"""Lebesgue measures of preimage and tail sets.

Three set families drive the range analysis: preimages of finite
intervals under the boundary map, preimages of disks with a real
diameter, and the tail sets {Re G > y} / {Re G < -y} of a Cauchy
transform.  Disks are read off the map's cached tables of its non-real
boundary segments, and their panel ends are roots.  A seeded Monte Carlo
estimator provides an independent check on every deterministic value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bisect_increasing, uncertified
from .cauchy import CauchyTransform
from .errors import PreconditionError, WindowError
from .herglotz import PhiFunction
from .measures import IntervalSet, atom_sum, cauchy_kernel, gaps_between, join_rows

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


def row_measure(rows: np.ndarray, shape) -> np.ndarray:
    """The Lebesgue measure of each query's preimage, shaped ``shape``, from
    its rows (k, u, v), k the query's flat index: the widths v - u summed
    per query in row order."""
    return np.bincount(rows[:, 0].astype(int), rows[:, 2] - rows[:, 1],
                       minlength=math.prod(shape)).reshape(shape)


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
    return IntervalSet.build(phi.pullback([a], [b])[:, 1:].tolist())


def preimage_interval_measure(phi: PhiFunction, interval: tuple[float, float]
                              ) -> tuple[IntervalSet, float]:
    s = preimage_interval_set(phi, interval)
    return s, s.total_length


# -- disk preimages ------------------------------------------------------------


def disk_panels(phi: PhiFunction, a, b, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Panels of the non-real boundary set whose values land in the disks
    over (a_k, b_k), read off the map's segment tables.

    On each interval that SegmentTable.candidates keeps for a disk (c, r),
    h = |phi - c|^2 - r^2 has exact signs at the nodes.  Ends on one side
    are certified by the bounds of uncertified, else split at its probe
    up to _PROBES times; what stays unsure is unresolved width on its
    ends' side.  Each sign change is a crossing, closed to ``tol`` by
    bisect_increasing, with h' = 2 Re(conj(phi - c) phi') where the map
    gives phi'.  Panels run between crossings and segment ends (the strip
    past the outermost node takes its side).
    Returns rows (disk, u, v), sorted by disk, then segment and u, and the
    unresolved widths; a disk's rows do not depend on its batch.
    """
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise PreconditionError("disks need finite diameters (a, b) with a < b")
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    found, open_width = [np.empty((0, 3))], np.zeros(a.size)
    for table in phi.segment_tables():
        k, j = table.candidates(c, r)
        x0, x1, p0, p1, dev = (table.x[j], table.x[j + 1], table.values[j],
                               table.values[j + 1], table.dev[j])
        brackets = []
        for probes in range(_PROBES, -1, -1):
            a0, a1, rk = np.abs(p0 - c[k]), np.abs(p1 - c[k]), r[k]
            change = (a0 < rk) != (a1 < rk)
            brackets.append((k[change], x0[change], x1[change], a0[change], a1[change]))
            unsure, s = uncertified(p0 - c[k], p1 - p0, dev, rk)
            unsure &= ~change
            k, x0, x1, p0, p1, dev, s = (u[unsure] for u in (k, x0, x1, p0, p1, dev, s))
            if not (probes and k.size):
                break
            xp = x0 + s * (x1 - x0)
            pp = phi._boundary_pair(xp, slope=False)[0]
            k, (x0, x1, p0, p1, dev) = np.tile(k, 2), (np.concatenate(u) for u in (
                (x0, xp), (xp, x1), (p0, pp), (pp, p1), (dev * s * s, dev * (1.0 - s) ** 2)))
        open_width += np.bincount(k, x1 - x0, minlength=a.size)
        kq, lo, hi, alo, ahi = (np.concatenate(u) for u in zip(*brackets))
        roots = _crossings(phi._boundary_pair, c[kq], r[kq], lo, hi, alo, ahi, tol)
        # a disk's panels pair its ends in order: the left end where its first
        # node is inside, its crossings, and the right end where they are odd
        first = np.flatnonzero(np.abs(table.values[0] - c) < r)
        odd = np.flatnonzero(np.bincount(np.concatenate([first, kq]), minlength=a.size) % 2)
        ek = np.concatenate([first, kq, odd])
        ex = np.concatenate([np.full(first.size, table.ends[0]), roots,
                             np.full(odd.size, table.ends[1])])
        order = np.lexsort((ex, ek))
        rows = np.column_stack([ek[order][::2], ex[order].reshape(-1, 2)])
        found.append(rows[rows[:, 2] > rows[:, 1]])
    rows = np.concatenate(found)
    return rows[np.argsort(rows[:, 0], kind="stable")], open_width


#: Probe rounds of disk_panels on intervals the table's bounds leave unsure.
_PROBES = 2


def _crossings(f, c, r, lo, hi, alo, ahi, tol: float) -> np.ndarray:
    """The root of h = |phi - c|^2 - r^2 in each bracket (lo, hi), with
    |phi - c| = alo, ahi there, from h's secant point; f gives phi, phi'."""
    sign = np.where(alo < r, 1.0, -1.0)  # h rises where lo is inside
    hlo, hhi = (alo - r) * (alo + r), (ahi - r) * (ahi + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = lo + (hi - lo) * hlo / (hlo - hhi)

    def h(xs, i):
        w, dw = f(xs)
        z, t = w - c[i], np.abs(w - c[i])
        slope = None if dw is None else sign[i] * 2.0 * (z.real * dw.real + z.imag * dw.imag)
        return sign[i] * (t - r[i]) * (t + r[i]), slope

    h.per_element = True
    return bisect_increasing(h, lo, hi, 0.0, xtol=tol, start=start)


def disk_measures(phi: PhiFunction, a, b, tol: float = 1e-8
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measures of the disks' preimages over (a_k, b_k), shaped like a, and
    the rows (k, u, v) they cover: the real-branch preimages of the
    diameters (real values in a disk are those in its diameter,
    phi.pullback) and the boundary panels (disk_panels), summed as joined
    rows (join_rows)."""
    panels, _ = disk_panels(phi, a, b, tol=tol)
    real = phi.pullback(a, b)
    return row_measure(join_rows(np.concatenate([real, panels])), np.shape(a)), real, panels


def disk_preimages(phi: PhiFunction, a, b, tol: float = 1e-8
                   ) -> tuple[list[IntervalSet], np.ndarray]:
    """Preimages of the disks over (a_k, b_k) as sets, with unresolved
    widths: the joined rows of disk_measures, one IntervalSet per disk."""
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    panels, unresolved = disk_panels(phi, a, b, tol=tol)
    rows = join_rows(np.concatenate([phi.pullback(a, b), panels]))
    cuts = np.searchsorted(rows[:, 0], np.arange(a.size + 1))
    return [IntervalSet(tuple(map(tuple, rows[cuts[k]:cuts[k + 1], 1:].tolist())))
            for k in range(a.size)], unresolved


def preimage_disk_set(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8
                      ) -> tuple[IntervalSet, float]:
    """The one-disk case of disk_preimages."""
    sets, unresolved = disk_preimages(phi, [q.a], [q.b], tol=tol)
    return sets[0], float(unresolved[0])


def preimage_disk_measure(phi: PhiFunction, q: DiskQuery, tol: float = 1e-8) -> float:
    """The one-disk case of disk_measures."""
    return float(disk_measures(phi, [q.a], [q.b], tol=tol)[0][0])


def resolvent_tail_measures(phi: PhiFunction, taus, ys) -> np.ndarray:
    """|{Re G_tau > y}| and |{Re G_tau < -y}| for G_tau = 1/(tau - phi), shape
    (len(taus), len(ys), 2): the preimages of the disks of diameter 1/y
    touching tau from the left and the right, in one disk_measures call."""
    t, step = np.asarray(taus, dtype=float)[:, None], 1.0 / np.asarray(ys, dtype=float)
    a = np.stack(np.broadcast_arrays(t - step, t), axis=-1)
    b = np.stack(np.broadcast_arrays(t, t + step), axis=-1)
    return disk_measures(phi, a, b)[0]


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
    from the tail's side.  One evaluation of the component ends, one root
    solve for every crossing of every query, each step taking Re G and
    Re G' = int d(mu)(t) / (t - x)^2 from one pass over the atoms.  A
    crossing starts at the root of a model with poles at the component's
    finite ends, whose strengths the end values give (_secular_start)."""
    f = lambda xs: G.real_value(xs, tol=1e-9, slope=True)
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
    probes = np.concatenate([lo, hi, nears[has]])
    flo, fhi, fnears[has] = np.split(G.real_value(probes, tol=1e-9), [len(lo), 2 * len(lo)])
    side = np.where(upper, 0, 1)
    edge, near = edges[side], nears[side]
    far = edge - sgn * np.maximum(4.0 * G.total_mass / level, 16.0 * _EPS * (np.abs(edge) + 1.0))
    outer = sgn * fnears[side] > level  # False where there is no end component
    full = np.where(upper[:, None], flo >= level[:, None], fhi <= -level[:, None])
    mid = ~full & ~np.where(upper[:, None], fhi <= level[:, None], flo >= -level[:, None])
    (kf, gf), (km, gm) = np.nonzero(full), np.nonzero(mid)
    targets = sgn * level
    starts = np.concatenate([
        _secular_start(gl[gm], gr[gm], -flo[gm] * (lo[gm] - gl[gm]),
                       fhi[gm] * (gr[gm] - hi[gm]), targets[km]),
        (edge - fnears[side] * (edge - near) / targets)[outer]])
    roots = bisect_increasing(f, np.concatenate([lo[gm], np.minimum(far, near)[outer]]),
                              np.concatenate([hi[gm], np.maximum(far, near)[outer]]),
                              targets[np.concatenate([km, np.flatnonzero(outer)])],
                              xtol=1e-15, start=starts)
    inner = roots[:km.size]
    total = _owner_sums(width[gf], kf, level.size)
    total += _owner_sums(np.where(upper[km], gr[gm] - inner, inner - gl[gm]), km, level.size)
    total[outer] += sgn[outer] * (edge[outer] - roots[km.size:])
    return total


def _secular_start(gl, gr, a, b, y) -> np.ndarray:
    """The root in (gl, gr) of the two-pole model -a/(x - gl) + b/(gr - x) = y
    (a, b > 0), as secular-equation solvers start between two poles.  With
    u = x - gl and W = gr - gl it is the root in (0, W) of
    y u^2 + c u - a W = 0, c = a + b - y W, whose discriminant
    c^2 + 4 y a W = (y W + a - b)^2 + 4 a b is positive: u = 2 a W / (c + s)
    for c >= 0 and (s - c) / (2 y) for c < 0 (then y > 0), with s the root of
    the discriminant, so neither form cancels.  NaN (the solver's midpoint
    start) where a or b is not finite and positive."""
    w = gr - gl
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # both forms, everywhere
        c = a + b - y * w
        s = np.sqrt((y * w + a - b) ** 2 + 4.0 * a * b)
        u = np.where(c >= 0.0, 2.0 * a * w / (c + s), (s - c) / (2.0 * y))
    return np.where((a > 0.0) & (b > 0.0) & np.isfinite(a + b), gl + u, np.nan)


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
    +Re G and on -Re G are refined in one root solve each, with the slope
    Re G'(x + i0) where every piece is named and by bisection otherwise.
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
    named = all(p.closed_form is not None for p in G.measure.ac_pieces)

    def crossing(x, s):
        if named:
            g, dg = G.boundary_re(x, slope=True)
            return s * g, s * dg
        return s * G.boundary_re(x), None

    for s in (1.0, -1.0):
        r, f = rise & (sgn[kf] == s), fall & (sgn[kl] == -s)
        roots = bisect_increasing(lambda x, s=s: crossing(x, s),
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
    if int(n) < 1:
        raise PreconditionError(f"the oracle needs n >= 1 samples, got {n}")
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
        pos, _ = target.point_masses()
        sgn = 1.0 if side == "upper" else -1.0

        def member(x, mu=target.measure, sgn=sgn, y=float(y)):
            return sgn * atom_sum(cauchy_kernel, mu, x) > y

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
