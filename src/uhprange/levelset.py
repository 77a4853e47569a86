"""Lebesgue measures of preimage and tail sets.

Three set families drive the range analysis: preimages of finite
intervals under the boundary map, preimages of disks with a real
diameter, and the tail sets {Re G > y} / {Re G < -y} of a Cauchy
transform.  A seeded Monte Carlo estimator provides an independent check
on every deterministic value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import SCAN_LIMIT, bisect_increasing
from .cauchy import CauchyTransform
from .errors import PreconditionError, WindowError
from .herglotz import PhiFunction
from .measures import IntervalSet

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DiskQuery:
    """The open disk whose diameter is the real interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise PreconditionError(f"disk needs a < b (got {self.a}, {self.b})")

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def radius(self) -> float:
        return 0.5 * (self.b - self.a)

    def contains(self, w) -> np.ndarray:
        return np.abs(np.asarray(w, dtype=complex) - self.center) < self.radius


# -- interval preimages --------------------------------------------------------


def preimage_interval_set(phi: PhiFunction, interval: tuple[float, float]) -> IntervalSet:
    """{x : phi(x) real and in (a, b)}, one subinterval per real branch.

    Tangency tie-break: when an endpoint value a or b is never attained on
    a branch (it equals the branch's one-sided value limit), the clamped
    solution lands on the branch endpoint and the preimage is treated as
    half-open there; the reported measure is unaffected.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise PreconditionError("interval must be finite with a < b")
    pieces = []
    for tbl in phi.branch_tables():
        xl, xr = tbl.solve_clamped(np.asarray([a, b])).tolist()
        if xr > xl:
            pieces.append((xl, xr))
    return IntervalSet.build(pieces)


def preimage_interval_measure(phi: PhiFunction, interval: tuple[float, float]
                              ) -> tuple[IntervalSet, float]:
    s = preimage_interval_set(phi, interval)
    return s, s.total_length


# -- disk preimages ------------------------------------------------------------


def _scan_window(phi: PhiFunction, segment: tuple[float, float], reach: float
                 ) -> tuple[float, float]:
    """Clamp a non-real boundary segment to a finite window outside of which
    |phi| safely exceeds the query's reach (|phi| ~ |x| at infinity)."""
    l, r = segment
    threshold = 2.0 * reach + 10.0

    def push(anchor: float, direction: float) -> float:
        xs = anchor + direction * 2.0 ** np.arange(0, 28, dtype=float)
        xs = xs[np.abs(xs) <= SCAN_LIMIT]
        vals = np.abs(phi.boundary(xs))
        far_enough = vals > threshold
        for k in range(len(xs)):
            if far_enough[k:].all():
                return float(xs[k])
        return float(xs[-1]) if len(xs) else anchor + direction

    if math.isinf(l):
        anchor = r if np.isfinite(r) else 0.0
        l = push(anchor, -1.0)
    if math.isinf(r):
        anchor = l
        r = push(anchor, +1.0)
    return l, r


def boundary_disk_panels(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8
                         ) -> tuple[list[tuple[float, float]], float]:
    """Panels of the non-real boundary set whose values land in the disk.

    Adaptive bisection with a sampled variation pad: a panel is pruned when
    every sample sits farther from the center than radius plus pad, counted
    when every sample sits inside by more than the pad, split otherwise.
    Returns (inside panels, unresolved width).
    """
    c, r = q.center, q.radius
    inside: list[tuple[float, float]] = []
    unresolved = 0.0
    floor = max(tol / 16.0, 1e-13)
    for segment in phi.nonreal_segments:
        lo, hi = _scan_window(phi, segment, abs(c) + r)
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, 33)
        U, V = edges[:-1], edges[1:]
        for _ in range(64):
            if len(U) == 0:
                break
            M = 0.5 * (U + V)
            wU = phi.boundary(U + 1e-3 * (M - U))  # stay off segment endpoints
            wM = phi.boundary(M)
            wV = phi.boundary(V - 1e-3 * (V - M))
            dU = np.abs(wU - c)
            dM = np.abs(wM - c)
            dV = np.abs(wV - c)
            pad = 1.5 * np.maximum(np.abs(wU - wM), np.abs(wM - wV))
            dmin = np.minimum(np.minimum(dU, dM), dV)
            dmax = np.maximum(np.maximum(dU, dM), dV)
            is_out = dmin - pad > r
            is_in = dmax + pad < r
            width = V - U
            small = width < np.maximum(floor, 1e-12 * np.maximum(1.0, np.abs(U)))
            for (u, v) in zip(U[is_in], V[is_in]):
                inside.append((float(u), float(v)))
            unresolved += float(width[small & ~is_in & ~is_out].sum())
            keep = ~(is_in | is_out | small)
            U, V, M = U[keep], V[keep], M[keep]
            U = np.concatenate([U, M])
            V = np.concatenate([M, V])
        unresolved += float((V - U).sum()) if len(U) else 0.0
    return inside, unresolved


def preimage_disk_set(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8
                      ) -> tuple[IntervalSet, float]:
    """Preimage of the disk: real-branch intervals plus boundary panels.

    For real values the disk membership reduces to the diameter interval,
    so the real part coincides with the interval preimage.
    """
    real_part = preimage_interval_set(phi, (q.a, q.b))
    panels, unresolved = boundary_disk_panels(phi, q, tol=tol)
    return IntervalSet.build(list(real_part.intervals) + panels), unresolved


def preimage_disk_measure(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8) -> float:
    s, _ = preimage_disk_set(phi, q, tol=tol)
    return s.total_length


# -- tail sets of Cauchy transforms ---------------------------------------------


def tail_set_measure(G: CauchyTransform, y: float, side: str) -> float:
    """|{x : Re G(x) > y}| (upper) or |{x : Re G(x) < -y}| (lower).

    For resolvent sources the tail set is exactly the preimage of a disk
    of diameter 1/y touching tau, and the computation is delegated there.
    For measure sources the line splits into components off the singular
    support, where G is real and increasing, plus the interiors of the
    density intervals, which are scanned for principal-value crossings.
    """
    if y <= 0:
        raise PreconditionError("tail level y must be positive")
    if side not in ("upper", "lower"):
        raise PreconditionError("side must be 'upper' or 'lower'")
    if G.kind == "phi_tau":
        if side == "upper":
            return preimage_disk_measure(G.phi, DiskQuery(G.tau - 1.0 / y, G.tau))
        return preimage_disk_measure(G.phi, DiskQuery(G.tau, G.tau + 1.0 / y))

    pos, w = G.point_masses()
    acs = G.ac_intervals()
    comps = _components(pos, acs)
    total = 0.0
    total += _interior_gap_measure(G, comps, y, side)
    total += _exterior_measure(G, comps, y, side)
    for (l, r) in acs:
        total += _ac_interior_measure(G, l, r, y, side, pos)
    return total


def _components(pos: np.ndarray, acs: list[tuple[float, float]]
                ) -> list[tuple[float, float]]:
    blocks = [(float(p), float(p)) for p in pos] + [(float(l), float(r)) for (l, r) in acs]
    blocks.sort()
    comps = []
    cursor = -math.inf
    for (l, r) in blocks:
        if l > cursor:
            comps.append((cursor, l))
        cursor = max(cursor, r)
    comps.append((cursor, math.inf))
    return comps


def _nudge_in(edge: np.ndarray, width: np.ndarray, sign: float) -> np.ndarray:
    """Point just inside a component endpoint, resolvable in float."""
    step = np.maximum(width * 2.0 ** -49, 16.0 * _EPS * (np.abs(edge) + 1e-300))
    return edge + sign * step


def _interior_gap_measure(G: CauchyTransform, comps, y: float, side: str) -> float:
    gl = np.asarray([c[0] for c in comps if np.isfinite(c[0]) and np.isfinite(c[1])])
    gr = np.asarray([c[1] for c in comps if np.isfinite(c[0]) and np.isfinite(c[1])])
    if len(gl) == 0:
        return 0.0
    width = gr - gl
    keep = width > 0
    gl, gr, width = gl[keep], gr[keep], width[keep]
    if len(gl) == 0:
        return 0.0
    lo = _nudge_in(gl, width, +1.0)
    hi = _nudge_in(gr, width, -1.0)
    f = lambda xs: G.real_value(xs, tol=1e-9)
    flo = np.asarray(f(lo))
    fhi = np.asarray(f(hi))
    total = 0.0
    if side == "upper":
        full = flo >= y
        none = fhi <= y
        mid = ~full & ~none
        total += float(width[full].sum())
        if mid.any():
            roots = bisect_increasing(f, lo[mid], hi[mid], np.full(mid.sum(), float(y)),
                                      xtol=1e-15)
            total += float((gr[mid] - roots).sum())
    else:
        full = fhi <= -y
        none = flo >= -y
        mid = ~full & ~none
        total += float(width[full].sum())
        if mid.any():
            roots = bisect_increasing(f, lo[mid], hi[mid], np.full(mid.sum(), -float(y)),
                                      xtol=1e-15)
            total += float((roots - gl[mid]).sum())
    return total


def _exterior_measure(G: CauchyTransform, comps, y: float, side: str) -> float:
    mass = G.total_mass
    total = 0.0
    f = lambda xs: G.real_value(xs, tol=1e-9)
    for (gl, gr) in comps:
        if side == "upper" and gl == -math.inf and np.isfinite(gr):
            hi = _nudge_in(np.asarray([gr]), np.asarray([1.0]), -1.0)[0]
            if float(f(hi)) <= y:
                continue
            lo = gr - max(4.0 * mass / y, 16.0 * _EPS * (abs(gr) + 1.0))
            root = float(bisect_increasing(f, np.asarray([lo]), np.asarray([hi]),
                                           np.asarray([float(y)]), xtol=1e-15)[0])
            total += gr - root
        elif side == "lower" and gr == math.inf and np.isfinite(gl):
            lo = _nudge_in(np.asarray([gl]), np.asarray([1.0]), +1.0)[0]
            if float(f(lo)) >= -y:
                continue
            hi = gl + max(4.0 * mass / y, 16.0 * _EPS * (abs(gl) + 1.0))
            root = float(bisect_increasing(f, np.asarray([lo]), np.asarray([hi]),
                                           np.asarray([-float(y)]), xtol=1e-15)[0])
            total += root - gl
    return total


def _ac_interior_measure(G: CauchyTransform, left: float, right: float,
                         y: float, side: str, pos: np.ndarray) -> float:
    """Measure of the tail set inside one density interval.

    Re G is smooth but not monotone here; crossings are isolated by a
    scan grid clustered geometrically at the segment ends (where the
    transform blows up) and refined by scalar bisection.
    """
    inner = np.sort(pos[(pos > left) & (pos < right)])
    cuts = [left, *inner.tolist(), right]
    sgn = 1.0 if side == "upper" else -1.0
    level = float(y)
    total = 0.0
    for (u, v) in zip(cuts[:-1], cuts[1:]):
        wseg = v - u
        if not np.isfinite(wseg):
            raise PreconditionError("density intervals must be finite for tail scans")
        if wseg <= 0:
            continue
        fracs = 2.0 ** -np.arange(1, 45, dtype=float)
        xs = np.unique(np.concatenate([
            u + 0.5 * wseg * fracs, v - 0.5 * wseg * fracs,
            np.linspace(u + wseg / 64, v - wseg / 64, 63)]))
        xs = xs[(xs > u) & (xs < v)]
        hs = np.asarray([sgn * G.boundary_re(x) - level for x in xs])
        positive = hs > 0
        if not positive.any():
            continue

        def h(x: float) -> float:
            return sgn * G.boundary_re(x) - level

        # walk sign runs; ends of the segment stand in for unreachable
        # crossings hugging a blow-up point
        idx = 0
        while idx < len(xs):
            if not positive[idx]:
                idx += 1
                continue
            run_start = idx
            while idx < len(xs) and positive[idx]:
                idx += 1
            run_end = idx - 1
            a = u if run_start == 0 else _bisect_scalar(h, xs[run_start - 1], xs[run_start])
            b = v if run_end == len(xs) - 1 else _bisect_scalar(h, xs[run_end], xs[run_end + 1])
            total += max(b - a, 0.0)
    return total


def _bisect_scalar(h, lo: float, hi: float, iters: int = 80) -> float:
    """Scalar bisection for a sign change of h between lo and hi."""
    hlo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hi - lo < max(1e-13, 8.0 * _EPS * abs(mid)):
            break
        if (h(mid) > 0) == (hlo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- Monte Carlo oracle ----------------------------------------------------------


def mc_oracle_measure(target, region, n: int = 10**6, seed: int = 0,
                      window: tuple[float, float] | None = None
                      ) -> tuple[float, float]:
    """Uniform-sampling estimate of a level-set measure with its standard error.

    ``target`` is a PhiFunction (with an interval or DiskQuery region) or a
    measure-backed CauchyTransform (with a ("tail", y, side) region).  The
    sampling window must contain the set; samples hitting the outer margin
    of the window raise WindowError.  Deterministic for a fixed seed.
    """
    if isinstance(target, PhiFunction):
        if isinstance(region, DiskQuery):
            member = lambda x: region.contains(target.boundary(x))
            lo_t, hi_t = region.a, region.b
        else:
            a, b = float(region[0]), float(region[1])
            def member(x, a=a, b=b):
                w = target.boundary(x)
                return (w.imag == 0.0) & (a < w.real) & (w.real < b)
            lo_t, hi_t = a, b
        if window is None:
            window = target.preimage_window(lo_t, hi_t)
    elif isinstance(target, CauchyTransform):
        kind, y, side = region
        if kind != "tail":
            raise PreconditionError("CauchyTransform oracle region must be ('tail', y, side)")
        if target.kind != "measure" or target.measure.ac_pieces:
            raise PreconditionError(
                "tail oracle supports singular measure transforms only")
        pos, w = target.point_masses()
        sgn = 1.0 if side == "upper" else -1.0

        def member(x, pos=pos, w=w, sgn=sgn, y=float(y)):
            vals = (w[None, :] / (pos[None, :] - x[:, None])).sum(axis=1)
            return sgn * vals > y

        if window is None:
            reach = 4.0 * target.total_mass / float(y) + 1.0
            window = (float(pos.min()) - reach, float(pos.max()) + reach)
    else:
        raise PreconditionError(f"unsupported oracle target {target!r}")

    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise WindowError(f"invalid window ({lo}, {hi})")
    width = hi - lo
    margin = 1e-3 * width
    rng = np.random.default_rng(seed)
    hits = 0
    edge_hits = 0
    chunk = 200_000
    remaining = int(n)
    while remaining > 0:
        m = min(chunk, remaining)
        xs = lo + width * rng.random(m)
        inside = np.asarray(member(xs), dtype=bool)
        hits += int(inside.sum())
        edge_hits += int((inside & ((xs < lo + margin) | (xs > hi - margin))).sum())
        remaining -= m
    if edge_hits:
        raise WindowError(
            f"{edge_hits} hits in the outer window margin; widen ({lo}, {hi})")
    p = hits / float(n)
    return width * p, width * math.sqrt(max(p * (1.0 - p), 0.0) / float(n))
