"""Numerical range analysis for composition operators on the Hardy space
of the upper half-plane: spectral measures, level-set constants, closed
range verdicts, and similarity-to-isometry certificates."""

from ._roots import Branch
from .cauchy import CauchyTransform, cauchy_transform, g_tau
from .clark import (ClarkMeasure, TsereteliEstimate, clark_atoms, clark_density,
                    clark_measure, clark_measures, clark_singular_mass,
                    singular_mass_tsereteli)
from .errors import (ConfigError, ConvergenceError, DomainError, OrbitBreakError,
                     PreconditionError, QuadratureError, UhprangeError,
                     UnsupportedStructureError, WindowError)
from .herglotz import (CATALOG, NevanlinnaData, PhiFunction, phi_from_catalog,
                       phi_from_nevanlinna, phi_identity, phi_translation)
from .levelset import (DiskQuery, mc_oracle_measure, preimage_disk_measure,
                       preimage_disk_set, preimage_interval_measure,
                       preimage_interval_set, tail_set_measure)
from .measures import AcPiece, IntervalSet, RealMeasure, ScCantorPiece
from .range_analysis import (AUpperResult, ConstantEstimate, QueryGrid, RangeReport,
                             SimilarityCertificate, SimilarityLowerBound,
                             TestFunctionUc, backward_orbit, boole_check,
                             closed_range_report, constant_A_upper, constant_B,
                             constant_C, constant_D, contraction_check,
                             default_grid, default_tau_grid, letac_check,
                             rayleigh_quotient, similarity_certificate,
                             similarity_lower_bound)

__version__ = "0.1.0"

__all__ = [
    "AcPiece", "AUpperResult", "Branch", "CATALOG", "CauchyTransform",
    "ClarkMeasure", "ConfigError", "ConstantEstimate", "ConvergenceError",
    "DiskQuery", "DomainError", "IntervalSet", "NevanlinnaData", "OrbitBreakError",
    "PhiFunction", "PreconditionError", "QuadratureError", "QueryGrid",
    "RangeReport", "RealMeasure", "ScCantorPiece", "SimilarityCertificate",
    "SimilarityLowerBound", "TestFunctionUc", "TsereteliEstimate", "UhprangeError",
    "UnsupportedStructureError", "WindowError", "backward_orbit", "boole_check",
    "cauchy_transform", "clark_atoms", "clark_density", "clark_measure",
    "clark_measures", "clark_singular_mass", "closed_range_report", "constant_A_upper",
    "constant_B", "constant_C", "constant_D", "contraction_check",
    "default_grid", "default_tau_grid", "g_tau", "letac_check",
    "mc_oracle_measure", "phi_from_catalog", "phi_from_nevanlinna",
    "phi_identity", "phi_translation", "preimage_disk_measure",
    "preimage_disk_set", "preimage_interval_measure", "preimage_interval_set",
    "rayleigh_quotient", "similarity_certificate",
    "similarity_lower_bound", "singular_mass_tsereteli", "tail_set_measure",
]
