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

import numpy as np

from . import _quad
from .cauchy import CauchyTransform
from .errors import PreconditionError
from .herglotz import PhiFunction, require_contraction
from .levelset import resolvent_tail_measures, tail_set_measure
from .measures import AcPiece, RealMeasure

#: Roots with boundary derivative above this carry mass below 1e-12 and are
#: absorbed into the singular-continuous estimate instead.
ATOM_DERIVATIVE_MAX = 1e12

#: Atom total within this relative gap of the tail limit means the tail is
#: fully accounted for by atoms and no extra sc mass is reported.
_SC_ACCOUNTING_RTOL = 0.05

_DEFAULT_Y_GRID = tuple(np.geomspace(1e2, 1e6, 9))


@dataclass(frozen=True)
class TsereteliEstimate:
    """Extrapolated limit of y * |{Re G| beyond +-y}| with diagnostics."""

    estimate: float
    y_grid: tuple[float, ...]
    upper: tuple[float, ...]
    lower: tuple[float, ...]
    tail_gap: float
    converged: bool


def singular_mass_tsereteli(G: CauchyTransform,
                            y_grid=None) -> TsereteliEstimate:
    """Estimate the singular mass from both tail families of Re G.

    The grid must be positive and span at least three decades.  Each tail
    sequence y * measure is extrapolated in 1/y from its last two entries;
    the two tails are averaged and flagged non-converged when they disagree
    by more than 10 percent at the largest y.  On a resolvent this is the
    one-tau case of the batched tail query.
    """
    ys = _y_grid(y_grid)
    if G.kind == "phi_tau":
        return _tsereteli(ys, resolvent_tail_measures(G.phi, [G.tau], ys)[0])
    return _tsereteli(ys, np.asarray([[tail_set_measure(G, y, side)
                                       for side in ("upper", "lower")] for y in ys]))


def _y_grid(y_grid) -> np.ndarray:
    ys = np.asarray(_DEFAULT_Y_GRID if y_grid is None else y_grid, dtype=float)
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
    measure: RealMeasure = field(repr=False)

    @property
    def atom_mass(self) -> float:
        return sum(m for (_, m) in self.atoms)

    @property
    def total_mass(self) -> float:
        return self.atom_mass + self.ac_mass + self.sc_mass_estimate


def _atoms(phi: PhiFunction, taus: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per real branch, the roots of phi(x) = tau for every tau and their
    masses 1/phi'(x); the mass is 0 where there is no root or the
    derivative is outside (0, ATOM_DERIVATIVE_MAX).  One solve per branch."""
    require_contraction(phi)
    out = []
    for tbl in phi.branch_tables():
        x = tbl.solve(taus)
        fp, ok = np.zeros(x.shape), ~np.isnan(x)
        fp[ok] = phi.derivative(x[ok])
        atom = (0.0 < fp) & (fp < ATOM_DERIVATIVE_MAX)
        out.append((x, np.divide(1.0, fp, out=np.zeros(x.shape), where=atom)))
    return out


def clark_atoms(phi: PhiFunction, tau: float) -> list[tuple[float, float]]:
    """Real-branch roots of phi(x) = tau with their masses 1/phi'(x), in
    order (branches are sorted and disjoint)."""
    return _atom_list(_atoms(phi, np.asarray([float(tau)])))


def _atom_list(found) -> list[tuple[float, float]]:
    return [(float(x[0]), float(m[0])) for x, m in found if m[0] > 0.0]


def clark_density(phi: PhiFunction, tau: float, x) -> np.ndarray:
    """Density of the a.c. part: Im phi / (pi |tau - phi|^2) at x + i0.

    Points where the boundary value equals tau exactly (branch closures,
    a null set) are reported as 0 rather than nan; quadrature never lands
    on them.
    """
    w = phi.boundary(np.atleast_1d(np.asarray(x, dtype=float)))
    denom = np.abs(float(tau) - w) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom > 0.0, w.imag / (math.pi * denom), 0.0)
    return out if np.asarray(x).ndim else float(out[0])


def clark_singular_masses(phi: PhiFunction, taus, y_grid=None
                          ) -> tuple[np.ndarray, np.ndarray, list[TsereteliEstimate]]:
    """(atom masses, sc estimates, tail diagnostics) for every tau, without
    density work: one solve per branch for the atoms and one batched
    disk-preimage query for all tail sets.  An atom total within 5 percent
    of the tail limit accounts for the whole tail (no sc mass)."""
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


def _density_grid(phi: PhiFunction, segment: tuple[float, float]) -> np.ndarray:
    l, r = segment
    if math.isinf(l) or math.isinf(r):
        tl = -0.5 * math.pi * (1 - 1e-9) if math.isinf(l) else math.atan(l)
        tr = 0.5 * math.pi * (1 - 1e-9) if math.isinf(r) else math.atan(r)
        theta = np.linspace(tl + 1e-6, tr - 1e-6, 513)
        return np.tan(theta)
    w = r - l
    fr = 2.0 ** -np.arange(1, 40, dtype=float)
    xs = np.unique(np.concatenate([
        l + 0.5 * w * fr, r - 0.5 * w * fr,
        np.linspace(l + w / 256, r - w / 256, 257)]))
    return xs[(xs > l) & (xs < r)]


def _tabulate_density(phi: PhiFunction, tau: float, segment: tuple[float, float],
                      mass_tol: float = 1e-6, max_rounds: int = 4
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Density table on a grid refined until its trapezoid mass stabilizes."""
    xs = _density_grid(phi, segment)
    ds = clark_density(phi, tau, xs)
    mass = float(np.trapezoid(ds, xs))
    for _ in range(max_rounds):
        mids = 0.5 * (xs[:-1] + xs[1:])
        xs = np.unique(np.concatenate([xs, mids]))
        ds = clark_density(phi, tau, xs)
        new_mass = float(np.trapezoid(ds, xs))
        if abs(new_mass - mass) < mass_tol:
            break
        mass = new_mass
    return xs, ds


def clark_measure(phi: PhiFunction, tau: float, *, y_grid=None,
                  mass_tol: float = 1e-6) -> ClarkMeasure:
    """Full decomposition of the spectral measure at tau."""
    require_contraction(phi)
    phi._require_branches()
    tau = float(tau)
    found = _atoms(phi, np.asarray([tau]))
    atoms = _atom_list(found)

    segments = tuple(phi.nonreal_segments)
    tables = []
    ac_mass = 0.0
    for seg in segments:
        xs, ds = _tabulate_density(phi, tau, seg)
        tables.append((xs, ds))
        if np.isfinite(seg[0]) and np.isfinite(seg[1]):
            # The density may blow up like an inverse square root where the
            # boundary imaginary part vanishes; the substitution removes it.
            ac_mass += float(np.real(_quad.integrate_power_endpoint(
                lambda t: clark_density(phi, tau, t), seg[0], seg[1],
                p_left=-0.5, p_right=-0.5, tol=1e-9)))
        else:
            ac_mass += float(np.real(_quad.integrate_interval(
                lambda t: clark_density(phi, tau, t), seg[0], seg[1], tol=1e-9)))

    atom_total, sc, tails = _singular_masses(phi, np.asarray([tau]), found, y_grid)
    atom_total, sc, tser = float(atom_total[0]), float(sc[0]), tails[0]

    pieces = []
    for (seg, (xs, ds)) in zip(segments, tables):
        if ds.max(initial=0.0) <= 0.0:
            continue
        finite = np.isfinite(seg[0]) and np.isfinite(seg[1])
        exponent = -0.5 if finite else 0.0
        pieces.append(AcPiece(
            seg[0], seg[1],
            lambda t, phi=phi, tau=tau: clark_density(phi, tau, np.asarray(t, float)),
            left_exponent=exponent, right_exponent=exponent,
            label=f"clark-density(tau={tau})"))
    measure = RealMeasure(atoms=tuple(atoms), ac_pieces=tuple(pieces))

    total = atom_total + ac_mass + sc
    diagnostics = {
        "tsereteli": tser,
        "atom_mass": atom_total,
        "ac_mass": ac_mass,
        "sc_mass": sc,
        "total_mass": total,
        "mass_defect": abs(total - 1.0),
        "normalized": abs(total - 1.0) <= mass_tol,
    }
    return ClarkMeasure(tau=tau, atoms=tuple(atoms), ac_segments=segments,
                        density_tables=tuple(tables), ac_mass=ac_mass,
                        sc_mass_estimate=sc, diagnostics=diagnostics,
                        measure=measure)
