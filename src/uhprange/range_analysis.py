"""Closed-range constants and similarity certificates.

Four quantities attach to a contractive composition map: the operator
Rayleigh-quotient infimum, the interval-preimage ratio infimum, the
disk-preimage ratio infimum, and the infimum of singular spectral mass
over the level family.  They coincide; this module estimates each by its
own route over declared grids, cross-validates them, and decides closed
range.  Similarity to an isometry is certified constructively: a pair of
outer points with equal values, a positive escape step, and a convergent
derivative product along backward orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from ._roots import Branch
from .cauchy import cauchy_transform
from .clark import clark_singular_masses
from .errors import OrbitBreakError, PreconditionError
from .herglotz import PhiFunction, require_contraction
from .levelset import disk_panels, preimage_interval_measure, tail_measures
from .measures import IntervalSet, RealMeasure

VERDICT_FLOOR = 1e-3
CROSS_GAP_TOL = 0.05
_D_Y_GRID = (1e2, 1e4, 1e6)


# -- grids ---------------------------------------------------------------------


@dataclass(frozen=True)
class QueryGrid:
    """centers x lengths family of intervals (a, b) = center -+ length/2."""

    centers: tuple[float, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        c, l = np.asarray(self.centers, dtype=float), np.asarray(self.lengths, dtype=float)
        if not (c.size and l.size):
            raise PreconditionError("grids must be nonempty")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(l)) and np.all(l > 0)):
            raise PreconditionError("grid centers must be finite, lengths finite and positive")

    def union(self, other: "QueryGrid") -> "QueryGrid":
        return QueryGrid(tuple(sorted(set(self.centers) | set(other.centers))),
                         tuple(sorted(set(self.lengths) | set(other.lengths), reverse=True)))


def _clamped_hull(phi: PhiFunction, infinite_clamp: float = 30.0) -> tuple[float, float]:
    hull = phi.support_hull
    if hull is None:
        return (-1.0, 1.0)
    lo = -infinite_clamp if math.isinf(hull[0]) else hull[0]
    hi = infinite_clamp if math.isinf(hull[1]) else hull[1]
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def _hull_points(phi: PhiFunction, n: int, pad: float, *extra: float) -> tuple[float, ...]:
    """n points spanning the padded hull, dyadic points accumulating at the
    hull endpoints from both sides, and the extra points, sorted."""
    lo, hi = _clamped_hull(phi)
    dy = [e + s * 2.0**-k for e in (lo, hi) for s in (1.0, -1.0) for k in range(11)]
    return tuple(np.unique(np.concatenate([np.linspace(lo - pad, hi + pad, n),
                                           np.asarray(dy + list(extra))])).tolist())


def default_grid(phi: PhiFunction, n_centers: int = 201, n_lengths: int = 11,
                 pad: float = 10.0) -> QueryGrid:
    """Centers covering the padded hull plus dyadic points accumulating at
    the hull endpoints; lengths 1, 1/2, ..., 2**-(n_lengths-1)."""
    lengths = 2.0 ** -np.arange(n_lengths, dtype=float)
    return QueryGrid(_hull_points(phi, n_centers, pad), tuple(lengths.tolist()))


def default_tau_grid(phi: PhiFunction, n: int = 81, pad: float = 10.0) -> tuple[float, ...]:
    """The centers of default_grid with n points over the padded hull, and 0."""
    return _hull_points(phi, n, pad, 0.0)


# -- test functions and Rayleigh quotients ---------------------------------------


@dataclass(frozen=True)
class TestFunctionUc:
    """Square-integrable test function concentrating on the disk over (a, b).

    |u(x)|^2 (1+x^2) equals exp(2*pi*c) on (a, b), 1 far away, and at most
    exp(pi*c) on the closed disk; letting c grow isolates the disk preimage.
    """

    a: float
    b: float
    c: float

    __test__ = False  # not a pytest collection target

    def __post_init__(self):
        if not (self.a < self.b and self.c > 0):
            raise PreconditionError("need a < b and c > 0")

    def angle_subtended(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        th = np.angle(w - self.b) - np.angle(w - self.a)
        return np.clip(th, 0.0, math.pi)

    def abs2_boundary(self, w) -> np.ndarray:
        """|u|^2 on the closed upper half-plane."""
        w = np.asarray(w, dtype=complex)
        return np.exp(2.0 * self.c * self.angle_subtended(w)) / np.abs(w + 1j) ** 2

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        lg = np.log(z - self.b) - np.log(z - self.a)
        return np.exp(-1j * self.c * lg) / (z + 1j)

    def norm2(self) -> float:
        """Squared boundary L2 norm, in closed form."""
        span = math.atan(self.b) - math.atan(self.a)
        return math.exp(2.0 * math.pi * self.c) * span + (math.pi - span)


def rayleigh_quotient(phi: PhiFunction, u, rel_tol: float = 1e-8) -> float:
    """Boundary-integral quotient of composed-versus-plain squared norms."""
    require_contraction(phi)
    if hasattr(u, "abs2_boundary"):
        abs2 = u.abs2_boundary
    else:
        abs2 = lambda w: np.abs(np.asarray(u(np.asarray(w, complex)))) ** 2

    seeds: list[float] = []
    if isinstance(u, TestFunctionUc):
        pre, _ = preimage_interval_measure(phi, (u.a, u.b))
        seeds = [e for piece in pre for e in piece]
        seeds += [e for seg in phi.nonreal_segments for e in seg if np.isfinite(e)]

    def integrand(x: np.ndarray) -> np.ndarray:
        return abs2(phi.boundary(x))

    num = _quad.integrate_line_relative(integrand, rel_tol=rel_tol, seeds=seeds)
    if hasattr(u, "norm2"):
        den = u.norm2()
    else:
        den = _quad.integrate_line_relative(lambda x: abs2(x.astype(complex)),
                                            rel_tol=rel_tol, seeds=seeds)
    return num / den


def contraction_check(phi: PhiFunction, m: int = 20, seed: int = 0) -> float:
    """Max Rayleigh quotient over m random concentrating test functions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(m)):
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(0.25, 3.0))
        worst = max(worst, rayleigh_quotient(phi, TestFunctionUc(a, b, c)))
    return worst


# -- grid sweeps for the constants -----------------------------------------------


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    argmin: tuple
    per_length_min: tuple[float, ...] = ()
    boundary_argmin: bool = False
    detail: dict = field(default_factory=dict)


def _grid_intervals(grid: QueryGrid) -> tuple[np.ndarray, np.ndarray]:
    """Interval ends (a, b), each of shape (n_lengths, n_centers)."""
    centers, half = np.asarray(grid.centers)[None, :], 0.5 * np.asarray(grid.lengths)[:, None]
    return centers - half, centers + half


def _interval_measures(phi: PhiFunction, grid: QueryGrid
                       ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Matrix of interval-preimage measures, shape (n_lengths, n_centers),
    and the per-branch preimage endpoints (xa, xb) of every interval."""
    a, b = _grid_intervals(grid)
    ends = phi.pullback(a, b)
    out = np.zeros(a.shape)
    for xa, xb in ends:
        out += np.maximum(xb - xa, 0.0)
    return out, ends


def _nonempty(owner: np.ndarray, ends) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-branch preimages (xa, xb) of flat interval k, owned by
    owner[k], as flat (owner, lo, hi) rows, branch by branch, empty ones
    dropped."""
    lo, hi = (np.concatenate([x.ravel() for x in side]) for side in zip(*ends))
    keep = hi > lo
    return np.tile(owner, len(ends))[keep], lo[keep], hi[keep]


def _grid_min(ratios: np.ndarray, grid: QueryGrid) -> ConstantEstimate:
    """Minimum of a (n_lengths, n_centers) ratio matrix and its interval."""
    i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
    c, l = grid.centers[j], grid.lengths[i]
    return ConstantEstimate(
        value=float(ratios[i, j]), argmin=(c - 0.5 * l, c + 0.5 * l),
        per_length_min=tuple(ratios.min(axis=1).tolist()))


def constant_B(phi: PhiFunction, grid: QueryGrid | None = None) -> ConstantEstimate:
    """Infimum over the grid of |preimage of (a,b)| / (b-a)."""
    require_contraction(phi)
    grid = grid or default_grid(phi)
    measures, _ = _interval_measures(phi, grid)
    return _grid_min(measures / np.asarray(grid.lengths)[:, None], grid)


def _disk_sweep(phi: PhiFunction, grid: QueryGrid, interval_measures: np.ndarray,
                tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Disk-preimage measures over the grid, from the interval-preimage
    measures, and the boundary panels inside each disk as rows
    (flat query index, u, v) for the weighted numerator."""
    panels, _ = disk_panels(phi, *_grid_intervals(grid), tol=tol)
    widths = np.bincount(panels[:, 0].astype(int), panels[:, 2] - panels[:, 1],
                         minlength=interval_measures.size)
    return interval_measures + widths.reshape(interval_measures.shape), panels


def constant_C(phi: PhiFunction, grid: QueryGrid | None = None) -> ConstantEstimate:
    """Infimum over the grid of |preimage of the disk over (a,b)| / (b-a)."""
    require_contraction(phi)
    grid = grid or default_grid(phi)
    measures, _ = _disk_sweep(phi, grid, _interval_measures(phi, grid)[0])
    return _grid_min(measures / np.asarray(grid.lengths)[:, None], grid)


def constant_D(phi: PhiFunction, tau_grid=None, y_grid=_D_Y_GRID) -> ConstantEstimate:
    """Infimum over the tau grid of the singular spectral mass; the detail
    lists the taus whose tail limit did not converge."""
    require_contraction(phi)
    phi._require_branches()
    taus = np.asarray(default_tau_grid(phi) if tau_grid is None else tau_grid,
                      dtype=float).ravel()
    if not (taus.size and np.all(np.isfinite(taus))):
        raise PreconditionError("tau grid must be nonempty and finite")
    atom_total, sc, tails = clark_singular_masses(phi, taus, y_grid=y_grid)
    values = atom_total + sc
    j = int(np.argmin(values))
    return ConstantEstimate(
        value=float(values[j]), argmin=(float(taus[j]),),
        boundary_argmin=bool(j in (0, len(taus) - 1)),
        detail={"taus": tuple(taus.tolist()), "values": tuple(values.tolist()),
                "nonconverged": tuple(float(t) for t, ts in zip(taus, tails)
                                      if not ts.converged)})


@dataclass(frozen=True)
class AUpperResult:
    value: float
    interval: tuple[float, float]
    rayleigh_quotients: dict


def _weighted_numerators(phi: PhiFunction, ends, panels: np.ndarray, n: int) -> np.ndarray:
    """Integral of 1/(1+|phi|^2) over each of n disk preimages: the
    (query, u, v) panel rows, then the real-branch intervals of the
    per-branch ends (xa, xb), query q being flat index q of xa and xb."""
    owner, lo, hi = _nonempty(np.arange(n), ends)
    owner = np.concatenate([panels[:, 0].astype(int), owner])
    lo, hi = np.concatenate([panels[:, 1], lo]), np.concatenate([panels[:, 2], hi])

    def weight(x: np.ndarray, _query: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.abs(phi.boundary(x)) ** 2)

    return np.real(_quad.integrate_pieces(weight, lo, hi, owner, n, tol=1e-11))


def constant_A_upper(phi: PhiFunction, interval: tuple[float, float],
                     with_rayleigh: bool = False,
                     c_values=(1.0, 4.0, 16.0)) -> AUpperResult:
    """Upper bound for the quotient infimum from one interval query:
    weighted disk-preimage mass over the interval's own weight.

    Optionally evaluates finite-c Rayleigh quotients of the concentrating
    test family as convergence evidence.
    """
    require_contraction(phi)
    a, b = float(interval[0]), float(interval[1])
    ends = phi.pullback([a], [b])
    num = _weighted_numerators(phi, ends, disk_panels(phi, [a], [b])[0], 1)[0]
    den = math.atan(b) - math.atan(a)
    evidence = _rayleigh_evidence(phi, (a, b), c_values) if with_rayleigh else {}
    return AUpperResult(value=num / den, interval=(a, b), rayleigh_quotients=evidence)


def _rayleigh_evidence(phi: PhiFunction, interval: tuple[float, float],
                       c_values=(1.0, 4.0, 16.0)) -> dict:
    """Rayleigh quotient of the concentrating test function over the
    interval for each c, keyed by float(c)."""
    a, b = float(interval[0]), float(interval[1])
    return {float(c): rayleigh_quotient(phi, TestFunctionUc(a, b, float(c))) for c in c_values}


# -- report ----------------------------------------------------------------------


@dataclass(frozen=True)
class RangeReport:
    phi_name: str
    A_upper: float
    B_est: float
    C_est: float
    D_est: float
    A_argmin: tuple[float, float]
    B_argmin: tuple[float, float]
    C_argmin: tuple[float, float]
    D_argmin_tau: float
    cross_gap: float
    verdict: str
    thresholds: dict
    grid: QueryGrid
    tau_grid: tuple[float, ...]
    B_per_length: tuple[float, ...]
    C_per_length: tuple[float, ...]
    rayleigh_evidence: dict
    d_boundary_argmin: bool
    d_nonconverged: int

    def estimates(self) -> dict:
        return {"A_upper": self.A_upper, "B": self.B_est,
                "C": self.C_est, "D": self.D_est}


def closed_range_report(phi: PhiFunction, grid: QueryGrid | None = None,
                        tau_grid=None, floor: float = VERDICT_FLOOR,
                        gap_tol: float = CROSS_GAP_TOL,
                        with_rayleigh: bool = True) -> RangeReport:
    """Estimate all four constants, cross-validate, and decide closed range.

    Grid minima only upper-bound the true infima, so the verdict has three
    honest outcomes: closed_range needs every estimate above the floor and
    mutual agreement; not_closed_range needs an estimate below the floor
    with a non-increasing refinement trend; anything else is inconclusive.
    """
    require_contraction(phi)
    grid = grid or default_grid(phi)
    taus = default_tau_grid(phi) if tau_grid is None else tuple(tau_grid)
    d_res = constant_D(phi, tau_grid=taus)  # rejects a malformed tau grid up front

    lengths = np.asarray(grid.lengths)[:, None]
    interval_meas, ends = _interval_measures(phi, grid)
    disk_meas, panels = _disk_sweep(phi, grid, interval_meas)
    b_est = _grid_min(interval_meas / lengths, grid)
    c_est = _grid_min(disk_meas / lengths, grid)

    # weighted numerator over the same disk queries
    num = _weighted_numerators(phi, ends, panels, disk_meas.size).reshape(disk_meas.shape)
    den = np.asarray([[math.atan(c + 0.5 * l) - math.atan(c - 0.5 * l) for c in grid.centers]
                      for l in grid.lengths])
    a_est = _grid_min(num / den, grid)

    evidence = _rayleigh_evidence(phi, a_est.argmin) if with_rayleigh else {}

    ests = {"A_upper": a_est.value, "B": b_est.value, "C": c_est.value, "D": d_res.value}
    vals = list(ests.values())
    cross_gap = max(abs(x - y) for x in vals for y in vals)
    rel_gap = cross_gap / max(max(vals), floor)
    b_trend = b_est.per_length_min
    non_increasing = bool(b_trend[-1] <= b_trend[0] * 1.05 + 1e-12)
    if min(vals) > floor and rel_gap < gap_tol:
        verdict = "closed_range"
    elif min(vals) < floor and non_increasing:
        verdict = "not_closed_range"
    else:
        verdict = "inconclusive"

    return RangeReport(
        phi_name=phi.name, A_upper=a_est.value, B_est=b_est.value, C_est=c_est.value,
        D_est=d_res.value, A_argmin=a_est.argmin, B_argmin=b_est.argmin,
        C_argmin=c_est.argmin, D_argmin_tau=d_res.argmin[0], cross_gap=rel_gap,
        verdict=verdict, thresholds={"floor": floor, "cross_gap_tol": gap_tol},
        grid=grid, tau_grid=tuple(taus), B_per_length=b_trend,
        C_per_length=c_est.per_length_min,
        rayleigh_evidence=evidence,
        d_boundary_argmin=d_res.boundary_argmin,
        d_nonconverged=len(d_res.detail["nonconverged"]))


# -- identity checks --------------------------------------------------------------


def boole_check(mu: RealMeasure, y_list=(0.5, 1.0, 2.0, 10.0)) -> float:
    """Max over y and both tails of |y * tail measure - total mass| for a
    singular probability measure (for which the identity is exact)."""
    if mu.ac_pieces:
        raise PreconditionError("identity check requires a singular measure")
    if abs(mu.total_mass() - 1.0) > 1e-9:
        raise PreconditionError("identity check requires a probability measure")
    ys = np.asarray(y_list, dtype=float)
    errors = np.abs(ys[:, None] * tail_measures(cauchy_transform(mu), ys) - 1.0)
    return float(errors.max(initial=0.0))


def letac_check(phi: PhiFunction, intervals) -> float:
    """Max relative defect of |preimage| = length over the given intervals,
    for maps whose representing measure is purely singular."""
    require_contraction(phi)
    if phi.rho is None or phi.rho.ac_pieces:
        raise PreconditionError("measure-preservation check needs purely singular rho")
    a, b = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise PreconditionError("interval must be finite with a < b")
    ends = phi.pullback(a, b)
    meas = np.asarray([IntervalSet.build([(xa[k], xb[k]) for xa, xb in ends]).total_length
                       for k in range(a.size)])
    return float(np.max(np.abs(meas - (b - a)) / (b - a), initial=0.0))


# -- similarity to an isometry -----------------------------------------------------


@dataclass(frozen=True)
class SimilarityCertificate:
    status: str                      # certified | hypothesis_failed | alpha_too_small
    direction: str | None            # 'up': phi(x) >= x + eta off (c1, d1); 'down': mirror
    c1: float | None
    d1: float | None
    eta: float | None
    k: float | None
    product_bound: float | None
    orbit_gap_ok: bool | None
    hull: tuple[float, float]
    details: dict = field(default_factory=dict)


def similarity_certificate(phi: PhiFunction) -> SimilarityCertificate:
    """Constructive certificate that every power keeps a positive lower bound.

    Requires a compactly supported representing measure.  The hypothesis is
    that the boundary limit from the left of the support exceeds the limit
    from the right; the construction then searches matching outer points
    c1 < hull < d1 with equal values and a positive escape step eta, and
    bounds the derivative product along backward orbits.
    """
    require_contraction(phi)
    hull = phi.support_hull
    if hull is None:
        # Empty representing measure: a pure translation escapes at rate
        # |alpha| with derivative identically 1.
        alpha = phi.alpha or 0.0
        if alpha == 0.0:
            return SimilarityCertificate(
                status="alpha_too_small", direction=None, c1=None, d1=None,
                eta=None, k=0.0, product_bound=None, orbit_gap_ok=None,
                hull=(0.0, 0.0), details={"translation": True})
        return SimilarityCertificate(
            status="certified", direction="up" if alpha > 0 else "down",
            c1=0.0, d1=0.0, eta=abs(alpha), k=0.0, product_bound=1.0,
            orbit_gap_ok=True, hull=(0.0, 0.0), details={"translation": True})
    c, d = hull
    if not (np.isfinite(c) and np.isfinite(d)):
        raise PreconditionError("certificate requires compactly supported rho")
    k = phi.rho_k
    if k is None or not np.isfinite(k):
        raise PreconditionError("certificate requires finite second moment of rho")

    bl, br = _outer_branches(phi, hull)
    lim_c = phi.value_limit(bl, "right")
    lim_d = phi.value_limit(br, "left")
    if not lim_c > lim_d:
        return SimilarityCertificate(
            status="hypothesis_failed", direction=None, c1=None, d1=None, eta=None,
            k=k, product_bound=None, orbit_gap_ok=None, hull=hull,
            details={"limit_left_of_support": lim_c, "limit_right_of_support": lim_d})

    tbl_l = phi.branch_table(bl)
    tbl_r = phi.branch_table(br)
    scale = max(1.0, d - c)
    offsets = np.concatenate([scale * 2.0 ** -np.arange(1, 21, dtype=float),
                              scale * 2.0 ** np.arange(0, 11, dtype=float)])
    offsets = np.unique(offsets)

    candidates = []  # (direction, c1, d1, eta)
    for up, outer, tbl in ((True, d + offsets, tbl_l), (False, c - offsets, tbl_r)):
        vals = phi.boundary_real(outer)
        for x, v, root in zip(outer, vals, tbl.solve(vals)):
            (c1, d1), eta = ((root, x), v - x) if up else ((x, root), x - v)
            if not math.isnan(root) and (c1 < c if up else d1 > d) and eta > 0:
                candidates.append(("up" if up else "down", float(c1), float(d1), float(eta)))

    if not candidates:
        return SimilarityCertificate(
            status="alpha_too_small", direction=None, c1=None, d1=None, eta=None,
            k=k, product_bound=None, orbit_gap_ok=None, hull=hull,
            details={"limit_left_of_support": lim_c, "limit_right_of_support": lim_d})

    # Every candidate certifies; report the one with the smallest derivative
    # product bound (the grid parameters only affect the bound's quality).
    bounds = [_orbit_product_log_bound(k, eta, d1 - d, c - c1)
              for (_, c1, d1, eta) in candidates]
    best = min(range(len(candidates)), key=bounds.__getitem__)
    direction, c1, d1, eta = candidates[best]
    product_bound = math.exp(bounds[best])

    samples = np.concatenate([c1 - np.geomspace(1e-3, 1e3, 41),
                              d1 + np.geomspace(1e-3, 1e3, 41)])
    vals = phi.boundary_real(samples)
    if direction == "up":
        gap_ok = bool(np.all(vals >= samples + eta - 1e-8 * (1 + np.abs(samples))))
    else:
        gap_ok = bool(np.all(vals <= samples - eta + 1e-8 * (1 + np.abs(samples))))

    return SimilarityCertificate(
        status="certified", direction=direction, c1=c1, d1=d1, eta=eta, k=k,
        product_bound=product_bound, orbit_gap_ok=gap_ok, hull=hull,
        details={"limit_left_of_support": lim_c, "limit_right_of_support": lim_d,
                 "candidates": len(candidates)})


def _outer_branches(phi: PhiFunction, hull: tuple[float, float]) -> tuple[Branch, Branch]:
    """The real branches next to the hull (c, d) from outside: the last one
    ending at or left of c and the first one starting at or right of d."""
    c, d = hull
    left = [b for b in phi.real_branches if b.right <= c + 1e-12]
    right = [b for b in phi.real_branches if b.left >= d - 1e-12]
    if not left or not right:
        raise PreconditionError("certificate requires outer branches on both sides")
    return max(left, key=lambda b: b.right), min(right, key=lambda b: b.left)


def _orbit_product_log_bound(k: float, eta: float, delta_d: float,
                             delta_c: float, tail_tol: float = 1e-12) -> float:
    """Upper bound on the log of prod over n >= 0 of
    (1 + k/(delta_d + n*eta)^2)(1 + k/(delta_c + n*eta)^2), for positive
    eta and deltas.

    Each factor's series sum g(n), g(n) = log1p(k/(delta + n*eta)^2), is
    summed explicitly for n < N and closed with the midpoint integral

        sum_{n >= N} g(n) <= int_{N-1/2}^inf g = F(u) / eta,
        u = delta + (N - 1/2) eta,
        F(u) = int_u^inf log(1 + k/t^2) dt = 2 sqrt(k) atan(sqrt(k)/u) - u log1p(k/u^2).

    g is convex in n, so each g(n) is at most its mean over [n-1/2, n+1/2]
    and the closure is an upper bound for every N >= 1.  It exceeds the
    true tail by k*eta/(12 u^3) to leading order; N is the least count that
    puts this below tail_tol, capped at 2e6 terms as a memory guard.
    """
    root_k = math.sqrt(k)
    u_min = (k * eta / (12.0 * tail_tol)) ** (1.0 / 3.0)
    total = 0.0
    for delta in (delta_d, delta_c):
        n_terms = int(min(max(math.ceil((u_min - delta) / eta + 0.5), 1), 2e6))
        n = np.arange(n_terms, dtype=float)
        u = delta + (n_terms - 0.5) * eta
        total += float(np.sum(np.log1p(k / (delta + n * eta) ** 2)))
        total += (2.0 * root_k * math.atan(root_k / u) - u * math.log1p(k / u ** 2)) / eta
    return total


def backward_orbit(phi: PhiFunction, t: float, n: int,
                   cert: SimilarityCertificate | None = None) -> list[float]:
    """Backward orbit t_1, ..., t_n on the outer branches: phi(t_1) = t and
    phi(t_(k+1)) = t_k, with steps of at least eta except one branch jump."""
    if cert is None:
        cert = similarity_certificate(phi)
    if cert.status != "certified":
        raise PreconditionError(f"no certificate available (status {cert.status})")
    if len(phi.real_branches) == 1:
        tbl_l = tbl_r = phi.branch_table(phi.real_branches[0])
        vjoin = -math.inf if cert.direction == "up" else math.inf
    else:
        bl, br = _outer_branches(phi, cert.hull)
        tbl_l, tbl_r = phi.branch_table(bl), phi.branch_table(br)
        vjoin = float(phi.boundary_real(cert.d1))
    orbit: list[float] = []
    cur = float(t)
    for step in range(int(n)):
        if cert.direction == "up":
            tbl = tbl_r if cur > vjoin else tbl_l
        else:
            tbl = tbl_l if cur < vjoin else tbl_r
        root = float(tbl.solve(np.asarray([cur]))[0])
        if math.isnan(root):
            raise OrbitBreakError(f"no outer-branch preimage at step {step} (value {cur})")
        orbit.append(root)
        cur = root
    return orbit


@dataclass(frozen=True)
class SimilarityLowerBound:
    """Interval-ratio infimum per power 1..N; max_depth is N, as pulled
    intervals cannot fail."""

    values: tuple[float, ...]
    minimum: float
    max_depth: int


def similarity_lower_bound(phi: PhiFunction, N: int = 6,
                           grid: QueryGrid | None = None) -> SimilarityLowerBound:
    """Interval-ratio infimum of each power up to N on a shared grid;
    a stable positive floor across powers supports similarity.

    Power 1 is constant_B.  The preimages under power n are those under
    power n - 1 pulled back through the base map's branches,
    phi_n^-1(I) = phi^-1(phi_(n-1)^-1(I)); each pulled interval keeps the
    grid interval it came from."""
    require_contraction(phi)
    if int(N) < 1:
        raise PreconditionError(f"composition depth must be at least 1, not {N}")
    grid = grid or default_grid(phi)
    lengths = np.asarray(grid.lengths)[:, None]
    measures, ends = _interval_measures(phi, grid)
    values = [_grid_min(measures / lengths, grid).value]
    owner, lo, hi = _nonempty(np.arange(measures.size), ends)
    for _ in range(1, int(N)):
        owner, lo, hi = _nonempty(owner, phi.pullback(lo, hi))
        pulled = np.bincount(owner, hi - lo, minlength=measures.size)
        values.append(_grid_min(pulled.reshape(measures.shape) / lengths, grid).value)
    return SimilarityLowerBound(values=tuple(values), minimum=min(values), max_depth=int(N))
