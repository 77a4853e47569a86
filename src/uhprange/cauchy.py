"""Cauchy transforms G(z) = integral d(mu)(t) / (t - z).

Two sources are supported: an explicit measure, or the resolvent family
G_tau(z) = 1/(tau - phi(z)) attached to a half-plane self-map, which is
itself the Cauchy transform of a probability measure when beta = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PreconditionError
from .herglotz import PhiFunction, require_contraction
from .measures import RealMeasure, cauchy_kernel, kernel_integral


class CauchyTransform:
    """Callable transform, together with enough structure for level sets.
    Every evaluation takes one point or an array of points."""

    def __init__(self, *, measure: RealMeasure | None = None,
                 phi: PhiFunction | None = None, tau: float | None = None):
        if (measure is None) == (phi is None):
            raise PreconditionError("provide exactly one of measure or (phi, tau)")
        self.measure = measure
        self.phi = phi
        self.tau = tau
        if measure is not None:
            self.kind = "measure"
            self._pos, self._w = measure.nodes
            self.total_mass = measure.total_mass()
        else:
            self.kind = "phi_tau"
            require_contraction(phi)
            self.total_mass = 1.0

    # -- evaluation -----------------------------------------------------------

    def eval(self, z):
        """Value at z with Im z > 0."""
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(arr.imag <= 0):
            raise DomainError("eval requires Im z > 0")
        if self.kind == "phi_tau":
            out = 1.0 / (self.tau - self.phi._eval_complex(arr))
        else:
            out = kernel_integral(self.measure, cauchy_kernel, arr)
        return out if np.ndim(z) else complex(out[0])

    def __call__(self, z):
        return self.eval(z)

    def real_value(self, x, tol: float = 1e-10) -> np.ndarray:
        """G at real x lying off the support (where the integral is proper)."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "phi_tau":
            out = self._resolvent_re(arr)
        else:
            for piece in self.measure.ac_pieces:
                inside = arr[(piece.left <= arr) & (arr <= piece.right)]
                if len(inside):
                    raise DomainError(
                        f"real evaluation at {inside[0]} inside the support "
                        f"({piece.left}, {piece.right}); use boundary_re for principal values")
            out = kernel_integral(self.measure, cauchy_kernel, arr, tol=tol)
        return out if np.ndim(x) else float(out[0])

    def boundary_re(self, x) -> np.ndarray:
        """Re G(x + i0); principal value inside absolutely continuous support."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "phi_tau":
            out = self._resolvent_re(arr)
        else:
            hit = arr[np.isin(arr, self._pos)]
            if len(hit):
                raise DomainError(f"Re G undefined exactly at a point mass ({hit[0]})")
            out = kernel_integral(self.measure, cauchy_kernel, arr, tol=1e-10, pv=True)
        return out if np.ndim(x) else float(out[0])

    def _resolvent_re(self, x: np.ndarray) -> np.ndarray:
        return np.real(1.0 / (self.tau - self.phi.boundary(x)))

    # -- structure used by level-set code --------------------------------------

    def point_masses(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind != "measure":
            raise PreconditionError("point masses only available for measure sources")
        return self._pos, self._w

    def ac_intervals(self) -> list[tuple[float, float]]:
        if self.kind != "measure":
            raise PreconditionError("ac intervals only available for measure sources")
        return [(p.left, p.right) for p in self.measure.ac_pieces]


def cauchy_transform(mu: RealMeasure) -> CauchyTransform:
    """Cauchy transform of a finite positive measure."""
    return CauchyTransform(measure=mu)


def g_tau(phi: PhiFunction, tau: float) -> CauchyTransform:
    """The transform 1/(tau - phi); a probability Cauchy transform for beta = 1."""
    return CauchyTransform(phi=phi, tau=float(tau))
