"""Spectral probability measures mu_tau attached to a half-plane self-map.

For beta = 1 the resolvent 1/(tau - phi) is the Cauchy transform of a
probability measure.  Its atoms sit at the real-branch solutions of
phi(x) = tau with mass 1/phi'(x); its density is the boundary imaginary
part of the resolvent over pi; the singular-continuous remainder is
estimated from the tail-set limit and cross-checked against the atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _quad
from ._roots import probe_grid, solve_tables
from .cauchy import CauchyTransform
from .errors import PreconditionError
from .herglotz import PhiFunction, require_contraction
from .levelset import resolvent_tail_measures, tail_measures
from .measures import AcPiece, RealMeasure

#: Roots with boundary derivative above this carry mass below 1e-12 and are
#: absorbed into the singular-continuous estimate instead.
ATOM_DERIVATIVE_MAX = 1e12

#: Atom total within this relative gap of the tail limit means the tail is
#: fully accounted for by atoms and no extra sc mass is reported.
_SC_ACCOUNTING_RTOL = 0.05

_DEFAULT_Y_GRID = tuple(np.geomspace(1e2, 1e6, 9))

#: A spectral measure is ``normalized`` when its total mass is within this
#: of 1.
_MASS_TOL = 1e-6

#: Midpoint rounds on a segment's probe points for its density tables: 2209
#: points on a finite segment, 1201 on a half-line.
_TABLE_ROUNDS = 4


@dataclass(frozen=True)
class TsereteliEstimate:
    """Extrapolated limit of y * |{Re G| beyond +-y}| with diagnostics."""

    estimate: float
    y_grid: tuple[float, ...]
    upper: tuple[float, ...]
    lower: tuple[float, ...]
    tail_gap: float
    converged: bool


def singular_mass_tsereteli(G: CauchyTransform, y_grid=None) -> TsereteliEstimate:
    """Estimate the singular mass from both tail families of Re G.

    The grid must be positive and span at least three decades.  Each tail
    sequence y * measure is extrapolated in 1/y from its last two entries;
    the two tails are averaged and flagged non-converged when they disagree
    by more than 10 percent at the largest y.  Every tail set comes from
    one batched tail query.
    """
    ys = _y_grid(y_grid)
    return _tsereteli(ys, tail_measures(G, ys))


def _y_grid(y_grid) -> np.ndarray:
    ys = np.asarray(_DEFAULT_Y_GRID if y_grid is None else y_grid, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise PreconditionError(f"y grid must be finite, got {ys.tolist()}")
    if len(ys) < 3 or not (ys[0] > 0 and np.all(np.diff(ys) > 0)):
        raise PreconditionError("y grid must be positive and increasing with >= 3 points")
    if math.log10(ys[-1] / ys[0]) < 3.0 - 1e-9:
        raise PreconditionError("y grid must span at least three decades")
    return ys


def _tsereteli(ys: np.ndarray, tails: np.ndarray) -> TsereteliEstimate:
    """The estimate from the (upper, lower) tail measures at each y."""
    upper, lower = ys * tails[:, 0], ys * tails[:, 1]
    ratio = ys[-1] / ys[-2]
    est_u, est_l = ((ratio * seq[-1] - seq[-2]) / (ratio - 1.0) for seq in (upper, lower))
    gap = abs(upper[-1] - lower[-1])
    return TsereteliEstimate(
        estimate=float(max(0.5 * (est_u + est_l), 0.0)), y_grid=tuple(map(float, ys)),
        upper=tuple(map(float, upper)), lower=tuple(map(float, lower)), tail_gap=float(gap),
        converged=bool(gap <= 0.1 * max(upper[-1], lower[-1], 1e-12)))


@dataclass(frozen=True)
class ClarkMeasure:
    """Spectral measure at level tau, decomposed."""

    tau: float
    atoms: tuple[tuple[float, float], ...]
    ac_segments: tuple[tuple[float, float], ...]
    density_tables: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    ac_mass: float
    sc_mass_estimate: float
    diagnostics: dict
    ac_pieces: tuple[AcPiece, ...] = field(repr=False)

    @cached_property
    def measure(self) -> RealMeasure:
        """The atoms and a.c. pieces as a RealMeasure, built on first use
        (which integrates each piece's mass)."""
        return RealMeasure(atoms=self.atoms, ac_pieces=self.ac_pieces)

    @property
    def atom_mass(self) -> float:
        return sum(m for (_, m) in self.atoms)

    @property
    def total_mass(self) -> float:
        return self.atom_mass + self.ac_mass + self.sc_mass_estimate


def _atoms(phi: PhiFunction, taus: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per real branch, the roots of phi(x) = tau for every tau and their
    masses 1/phi'(x); the mass is 0 where there is no root or the
    derivative is outside (0, ATOM_DERIVATIVE_MAX).  Every branch is
    solved in one root loop (solve_tables), and every root's derivative
    taken in one call; a root beyond the scan limit raises
    ConvergenceError, as its atom would be lost."""
    require_contraction(phi)
    tables = phi.branch_tables()
    phi._require_reach(tables, taus)
    x = solve_tables(tables, taus)
    fp, ok = np.zeros(x.shape), ~np.isnan(x)
    fp[ok] = phi.derivative(x[ok])
    atom = (0.0 < fp) & (fp < ATOM_DERIVATIVE_MAX)
    return list(zip(x, np.divide(1.0, fp, out=np.zeros(x.shape), where=atom)))


def clark_atoms(phi: PhiFunction, tau: float) -> list[tuple[float, float]]:
    """Real-branch roots of phi(x) = tau with their masses 1/phi'(x), in
    order (branches are sorted and disjoint)."""
    return _atom_list(_atoms(phi, np.asarray([float(tau)])), 0)


def _atom_list(found, k: int) -> list[tuple[float, float]]:
    return [(float(x[k]), float(m[k])) for x, m in found if m[k] > 0.0]


def _density(w: np.ndarray, tau) -> np.ndarray:
    """Im w / (pi |tau - w|^2) from boundary values w, and 0 where w = tau."""
    denom = np.abs(tau - w) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, w.imag / (math.pi * denom), 0.0)


def clark_density(phi: PhiFunction, tau: float, x) -> np.ndarray:
    """Density of the a.c. part: Im phi / (pi |tau - phi|^2) at x + i0.

    Points where the boundary value equals tau exactly (branch closures,
    a null set) are reported as 0 rather than nan; quadrature never lands
    on them.
    """
    out = _density(phi.boundary(np.atleast_1d(np.asarray(x, dtype=float))), float(tau))
    return out if np.asarray(x).ndim else float(out[0])


def clark_singular_masses(phi: PhiFunction, taus, y_grid=None
                          ) -> tuple[np.ndarray, np.ndarray, list[TsereteliEstimate]]:
    """(atom masses, sc estimates, tail diagnostics) for every tau, without
    density work: one root loop over every branch for the atoms and one
    batched disk-preimage query for all tail sets.  An atom total within 5
    percent of the tail limit accounts for the whole tail (no sc mass)."""
    taus = np.asarray(taus, dtype=float)
    return _singular_masses(phi, taus, _atoms(phi, taus), y_grid)


def _singular_masses(phi: PhiFunction, taus: np.ndarray, found, y_grid):
    """clark_singular_masses from the atoms already found by _atoms."""
    atom_total = sum((m for _, m in found), np.zeros(taus.shape))
    ys = _y_grid(y_grid)
    tails = [_tsereteli(ys, t) for t in resolvent_tail_measures(phi, taus, ys)]
    sc = [0.0 if t.estimate <= m * (1.0 + _SC_ACCOUNTING_RTOL) + 1e-6
          else max(t.estimate - m, 0.0) for t, m in zip(tails, atom_total)]
    return atom_total, np.asarray(sc), tails


def clark_singular_mass(phi: PhiFunction, tau: float, y_grid=None
                        ) -> tuple[float, float, TsereteliEstimate]:
    """The one-tau case of clark_singular_masses."""
    atom_total, sc, tails = clark_singular_masses(phi, [float(tau)], y_grid=y_grid)
    return float(atom_total[0]), float(sc[0]), tails[0]


def clark_measures(phi: PhiFunction, taus, *, y_grid=None) -> list[ClarkMeasure]:
    """Full decomposition of the spectral measure at every tau.  The
    tau-independent work is shared: one root loop over every branch for the
    atoms, one quadrature per segment domain, one batched tail query, and one
    boundary evaluation per segment on its probe points after _TABLE_ROUNDS
    rounds of midpoints, the abscissae of every tau's density table there;
    each entry equals its one-tau call."""
    taus = np.asarray(taus, dtype=float).ravel()
    if not np.isfinite(taus).all():
        raise PreconditionError(f"tau must be finite, got {taus[~np.isfinite(taus)][0]}")
    if not taus.size:
        return []
    require_contraction(phi)
    phi._require_branches()
    found = _atoms(phi, taus)
    segments = tuple(phi.nonreal_segments)
    # Exponent -0.5 removes the inverse square root blowup of the density at
    # a finite end where Im phi vanishes.
    exponents = [-0.5 if np.isfinite(l) and np.isfinite(r) else 0.0 for l, r in segments]

    def density(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        return _density(phi.boundary(x), taus[k])

    tables, ac_mass = [], np.zeros(len(taus))
    for seg, exponent in zip(segments, exponents):
        xs = probe_grid(seg, _TABLE_ROUNDS)
        tables.append([(xs, d) for d in _density(phi.boundary(xs), taus[:, None])])
        ac_mass += _quad.integrate_domains(density, seg[0], seg[1], len(taus), exponent,
                                           exponent, tol=1e-9).real
    atom_total, sc, tails = _singular_masses(phi, taus, found, y_grid)
    atom_total, ac_mass, sc = atom_total.tolist(), ac_mass.tolist(), sc.tolist()

    out = []
    for k, tau in enumerate(taus.tolist()):
        atoms = tuple(_atom_list(found, k))
        pieces = tuple(
            AcPiece(seg[0], seg[1],
                    lambda t, tau=tau: clark_density(phi, tau, np.asarray(t, float)),
                    left_exponent=exponent, right_exponent=exponent,
                    label=f"clark-density(tau={tau})")
            for seg, exponent, seg_tables in zip(segments, exponents, tables)
            if not seg_tables[k][1].max(initial=0.0) <= 0.0)
        total = atom_total[k] + ac_mass[k] + sc[k]
        diagnostics = {"tsereteli": tails[k], "atom_mass": atom_total[k], "ac_mass": ac_mass[k],
                       "sc_mass": sc[k], "total_mass": total, "mass_defect": abs(total - 1.0),
                       "normalized": abs(total - 1.0) <= _MASS_TOL}
        out.append(ClarkMeasure(
            tau=tau, atoms=atoms, ac_segments=segments,
            density_tables=tuple(t[k] for t in tables), ac_mass=ac_mass[k],
            sc_mass_estimate=sc[k], diagnostics=diagnostics,
            ac_pieces=pieces))
    return out


def clark_measure(phi: PhiFunction, tau: float, *, y_grid=None) -> ClarkMeasure:
    """The one-tau case of clark_measures."""
    return clark_measures(phi, [tau], y_grid=y_grid)[0]
