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
from .measures import IntervalSet, atom_sum, cauchy_kernel, gaps_between

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DiskQuery:
    """The open disk whose diameter is the real interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise PreconditionError(f"disk needs a < b (got {self.a}, {self.b})")

    def contains(self, w) -> np.ndarray:
        c, r = 0.5 * (self.a + self.b), 0.5 * (self.b - self.a)
        return np.abs(np.asarray(w, dtype=complex) - c) < r


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
    return IntervalSet.build([(xa[0], xb[0]) for xa, xb in phi.pullback([a], [b])])


def preimage_interval_measure(phi: PhiFunction, interval: tuple[float, float]
                              ) -> tuple[IntervalSet, float]:
    s = preimage_interval_set(phi, interval)
    return s, s.total_length


# -- disk preimages ------------------------------------------------------------


def _scan_window(phi: PhiFunction, segment: tuple[float, float], reach: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Clamp a non-real boundary segment, per query, to a finite window
    outside of which |phi| safely exceeds the query's reach (|phi| ~ |x| at
    infinity)."""
    l, r = segment
    threshold = 2.0 * reach + 10.0

    def push(anchors: np.ndarray, direction: float) -> np.ndarray:
        out = anchors + direction
        for anchor in np.unique(anchors):
            xs = anchor + direction * 2.0 ** np.arange(0, 28, dtype=float)
            xs = xs[np.abs(xs) <= SCAN_LIMIT]
            if len(xs):
                # the first point after which every value is far enough
                # (suffix minimum above the threshold), else the last point
                tail_min = np.minimum.accumulate(np.abs(phi.boundary(xs))[::-1])[::-1]
                far = tail_min[None, :] > threshold[anchors == anchor, None]
                far[:, -1] = True
                out[anchors == anchor] = xs[np.argmax(far, axis=1)]
        return out

    lo, hi = np.full(reach.shape, float(l)), np.full(reach.shape, float(r))
    if math.isinf(l):
        lo = push(np.full(reach.shape, r if np.isfinite(r) else 0.0), -1.0)
    if math.isinf(r):
        hi = push(lo, +1.0)
    return lo, hi


def disk_panels(phi: PhiFunction, a, b, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Panels of the non-real boundary set whose values land in the disks
    over (a_k, b_k), all disks refined together.

    Adaptive bisection with a sampled variation pad: a panel is pruned when
    every sample sits farther from the center than radius plus pad, counted
    when every sample sits inside by more than the pad, split otherwise.
    Every (disk, segment) pair keeps its own scan window, 33 starting edges
    and 64 rounds, so a disk's panels do not depend on its batch.  Returns
    the inside panels as rows (disk, u, v), stably sorted by disk (segment
    by segment, in the order found), and each disk's unresolved width.
    """
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise PreconditionError("disks need finite diameters (a, b) with a < b")
    nseg = len(phi.nonreal_segments)
    c, r = np.repeat(0.5 * (a + b), nseg), np.repeat(0.5 * (b - a), nseg)
    floor = max(tol / 16.0, 1e-13)
    found = [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    for s, segment in enumerate(phi.nonreal_segments):
        lo, hi = _scan_window(phi, segment, np.abs(c[s::nseg]) + r[s::nseg])
        q = np.flatnonzero(hi > lo)
        edges = np.linspace(lo[q], hi[q], 33, axis=1)
        found.append((np.repeat(q * nseg + s, 32), edges[:, :-1].ravel(), edges[:, 1:].ravel()))
    unit, U, V = (np.concatenate(x) for x in zip(*found))
    found, open_width = found[:1], np.zeros(a.size * nseg)
    for _ in range(64):
        if len(U) == 0:
            break
        M = 0.5 * (U + V)
        # samples stay off segment endpoints
        w = [phi.boundary(x) for x in (U + 1e-3 * (M - U), M, V - 1e-3 * (V - M))]
        d = np.abs(np.asarray(w) - c[unit])
        pad = 1.5 * np.maximum(np.abs(w[0] - w[1]), np.abs(w[1] - w[2]))
        is_out = d.min(axis=0) - pad > r[unit]
        is_in = d.max(axis=0) + pad < r[unit]
        width = V - U
        small = width < np.maximum(floor, 1e-12 * np.maximum(1.0, np.abs(U)))
        found.append((unit[is_in], U[is_in], V[is_in]))
        lost = small & ~is_in & ~is_out
        open_width += np.bincount(unit[lost], width[lost], minlength=open_width.size)
        keep = ~(is_in | is_out | small)
        unit, U, V, M = unit[keep], U[keep], V[keep], M[keep]
        unit, U, V = np.concatenate([unit, unit]), np.concatenate([U, M]), np.concatenate([M, V])
    open_width += np.bincount(unit, V - U, minlength=open_width.size)
    rows = np.column_stack([np.concatenate(x) for x in zip(*found)])
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    rows[:, 0] //= max(nseg, 1)
    return rows, open_width.reshape(a.size, nseg).sum(axis=1)


def disk_preimages(phi: PhiFunction, a, b, tol: float = 1e-8
                   ) -> tuple[list[IntervalSet], np.ndarray]:
    """Preimages of the disks over (a_k, b_k), with unresolved widths: the
    real-branch preimage of (a_k, b_k) (real values in the disk are those
    in its diameter) plus the boundary panels.  Every distinct endpoint is
    solved once per branch and one disk_panels call serves all disks."""
    rows, unresolved = disk_panels(phi, a, b, tol=tol)
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    ends = phi.pullback(a, b)
    cuts = np.searchsorted(rows[:, 0], np.arange(a.size + 1))
    sets = [IntervalSet.build([(xa[k], xb[k]) for xa, xb in ends]
                              + rows[cuts[k]:cuts[k + 1], 1:].tolist())
            for k in range(a.size)]
    return sets, unresolved


def preimage_disk_set(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8
                      ) -> tuple[IntervalSet, float]:
    """The one-disk case of disk_preimages."""
    sets, unresolved = disk_preimages(phi, [q.a], [q.b], tol=tol)
    return sets[0], float(unresolved[0])


def preimage_disk_measure(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8) -> float:
    s, _ = preimage_disk_set(phi, q, tol=tol)
    return s.total_length


def resolvent_tail_measures(phi: PhiFunction, taus, ys) -> np.ndarray:
    """|{Re G_tau > y}| and |{Re G_tau < -y}| for G_tau = 1/(tau - phi), shape
    (len(taus), len(ys), 2): the preimages of the disks of diameter 1/y
    touching tau from the left and the right, in one disk_preimages call."""
    t, step = np.asarray(taus, dtype=float)[:, None], 1.0 / np.asarray(ys, dtype=float)
    a = np.stack(np.broadcast_arrays(t - step, t), axis=-1)
    b = np.stack(np.broadcast_arrays(t, t + step), axis=-1)
    sets, _ = disk_preimages(phi, a, b)
    return np.asarray([s.total_length for s in sets]).reshape(a.shape)


# -- tail sets of Cauchy transforms ---------------------------------------------


def tail_measures(G: CauchyTransform, ys) -> np.ndarray:
    """|{x : Re G(x) > y}| and |{x : Re G(x) < -y}| for every level y, shape
    (len(ys), 2).

    A resolvent is the one-tau case of resolvent_tail_measures.  For a
    measure source the line splits into components off the singular
    support, where G is real and increasing, plus the interiors of the
    density intervals.  Neither the component ends nor the density scans
    depend on y, so each is evaluated once for every level.
    """
    ys = np.asarray(ys, dtype=float).ravel()
    if not np.all(ys > 0):
        raise PreconditionError("tail level y must be positive")
    if G.kind == "phi_tau":
        return resolvent_tail_measures(G.phi, [G.tau], ys)[0]
    # query 2k is the upper tail at ys[k], query 2k + 1 the lower one
    level, sgn = np.repeat(ys, 2), np.tile([1.0, -1.0], ys.size)
    pos, _ = G.point_masses()
    acs = [(p.left, p.right) for p in G.measure.ac_pieces]
    total = _off_support_measures(G, gaps_between([(p, p) for p in pos.tolist()] + acs),
                                  level, sgn)
    for part in _density_measures(G, acs, pos, level, sgn).T:
        total = total + part
    return total.reshape(-1, 2)


def tail_set_measure(G: CauchyTransform, y: float, side: str) -> float:
    """|{x : Re G(x) > y}| (upper) or |{x : Re G(x) < -y}| (lower): the
    one-query case of tail_measures."""
    if side not in ("upper", "lower"):
        raise PreconditionError("side must be 'upper' or 'lower'")
    return float(tail_measures(G, [y])[0, int(side == "lower")])


def _nudge_in(edge: np.ndarray, width: np.ndarray, sign: np.ndarray | float) -> np.ndarray:
    """Point just inside a component endpoint, resolvable in float."""
    step = np.maximum(width * 2.0 ** -49, 16.0 * _EPS * (np.abs(edge) + 1e-300))
    return edge + sign * step


def _owner_sums(values: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Sums of values per owner (owners ascending).  Owners with equal
    counts are summed as rows of one array, which rounds each sum as numpy
    rounds the sum of that owner's values alone."""
    counts = np.bincount(owner, minlength=n)
    starts, out = np.cumsum(counts) - counts, np.zeros(n)
    for c in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == c)
        out[rows] = values[starts[rows, None] + np.arange(c)].sum(axis=1)
    return out


def _off_support_measures(G: CauchyTransform, comps, level: np.ndarray,
                          sgn: np.ndarray) -> np.ndarray:
    """The tail sets off the singular support, where Re G is real and
    increasing: the bounded components (gaps between blocks), where it runs
    from -inf to +inf, plus the unbounded end component where it tends to 0
    from the tail's side.  One evaluation of the component ends, one
    bisection for every crossing of every query."""
    f = lambda xs: G.real_value(xs, tol=1e-9)
    upper = sgn > 0
    gaps = np.asarray([c for c in comps if np.isfinite(c[0]) and np.isfinite(c[1])
                       and c[1] > c[0]]).reshape(-1, 2)
    gl, gr = gaps[:, 0], gaps[:, 1]
    width = gr - gl
    lo, hi = _nudge_in(gl, width, +1.0), _nudge_in(gr, width, -1.0)
    # the end components: (-inf, edge) for the upper tail, (edge, +inf) for the lower
    edges = np.asarray([next((r for l, r in comps if l == -math.inf and np.isfinite(r)), np.nan),
                        next((l for l, r in comps if r == math.inf and np.isfinite(l)), np.nan)])
    nears, has = _nudge_in(edges, np.ones(2), np.asarray([-1.0, 1.0])), ~np.isnan(edges)
    fnears = np.full(2, np.nan)
    flo, fhi, fnears[has] = np.split(np.asarray(f(np.concatenate([lo, hi, nears[has]]))),
                                     [len(lo), 2 * len(lo)])
    side = np.where(upper, 0, 1)
    edge, near = edges[side], nears[side]
    far = edge - sgn * np.maximum(4.0 * G.total_mass / level, 16.0 * _EPS * (np.abs(edge) + 1.0))
    outer = sgn * fnears[side] > level  # False where there is no end component
    full = np.where(upper[:, None], flo >= level[:, None], fhi <= -level[:, None])
    mid = ~full & ~np.where(upper[:, None], fhi <= level[:, None], flo >= -level[:, None])
    (kf, gf), (km, gm) = np.nonzero(full), np.nonzero(mid)
    roots = bisect_increasing(f, np.concatenate([lo[gm], np.minimum(far, near)[outer]]),
                              np.concatenate([hi[gm], np.maximum(far, near)[outer]]),
                              (sgn * level)[np.concatenate([km, np.flatnonzero(outer)])],
                              xtol=1e-15)
    inner = roots[:km.size]
    total = _owner_sums(width[gf], kf, level.size)
    total += _owner_sums(np.where(upper[km], gr[gm] - inner, inner - gl[gm]), km, level.size)
    total[outer] += sgn[outer] * (edge[outer] - roots[km.size:])
    return total


def _density_measures(G: CauchyTransform, acs, pos: np.ndarray, level: np.ndarray,
                      sgn: np.ndarray) -> np.ndarray:
    """The tail sets inside each density interval, shape (queries, intervals).

    Re G is smooth but not monotone here.  Each interval, cut at its
    interior atoms, is scanned on a grid clustered geometrically at the
    segment ends (where the transform blows up), evaluated once for all
    queries.  Each run of scan points beyond a query's level starts at a
    rising crossing and ends at a falling one.  The segment ends count as
    below every level, so a run that reaches one ends there, standing in
    for an unreachable crossing hugging a blow-up point.  The crossings on
    +Re G and on -Re G are refined in one bisection each.
    """
    xs, end, interval = [np.empty(0)], [np.empty(0, dtype=bool)], [np.empty(0, dtype=int)]
    for i, (left, right) in enumerate(acs):
        cuts = [left, *np.sort(pos[(pos > left) & (pos < right)]).tolist(), right]
        for (u, v) in zip(cuts[:-1], cuts[1:]):
            wseg = v - u
            if not np.isfinite(wseg):
                raise PreconditionError("density intervals must be finite for tail scans")
            if wseg <= 0:
                continue
            fracs = 2.0 ** -np.arange(1, 45, dtype=float)
            grid = np.unique(np.concatenate([u + 0.5 * wseg * fracs, v - 0.5 * wseg * fracs,
                                             np.linspace(u + wseg / 64, v - wseg / 64, 63)]))
            xs.append(np.concatenate([[u], grid[(grid > u) & (grid < v)], [v]]))
            end.append(np.arange(len(xs[-1])) % (len(xs[-1]) - 1) == 0)
            interval.append(np.full(len(xs[-1]), i))
    xs, end, interval = (np.concatenate(v) for v in (xs, end, interval))
    high = np.zeros((level.size, xs.size), dtype=bool)
    if xs.size:
        high[:, ~end] = sgn[:, None] * G.boundary_re(xs[~end]) - level[:, None] > 0
    before, after = np.zeros_like(high), np.zeros_like(high)
    before[:, 1:], after[:, :-1] = high[:, :-1], high[:, 1:]
    (kf, first), (kl, last) = np.nonzero(high & ~before), np.nonzero(high & ~after)
    a, b = xs[first - 1], xs[last + 1]
    rise, fall = ~end[first - 1], ~end[last + 1]
    for s in (1.0, -1.0):
        r, f = rise & (sgn[kf] == s), fall & (sgn[kl] == -s)
        roots = bisect_increasing(lambda x: s * G.boundary_re(x),
                                  np.concatenate([a[r], xs[last[f]]]),
                                  np.concatenate([xs[first[r]], b[f]]),
                                  np.concatenate([level[kf[r]], -level[kl[f]]]), xtol=1e-13)
        a[r], b[f] = roots[:r.sum()], roots[r.sum():]
    return np.bincount(kf * len(acs) + interval[first], np.maximum(b - a, 0.0),
                       minlength=level.size * len(acs)).reshape(level.size, len(acs))


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
            return sgn * atom_sum(cauchy_kernel, pos, w, x) > y

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
