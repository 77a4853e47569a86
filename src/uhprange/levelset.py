"""Lebesgue measures of preimage and tail sets.

Three set families drive the range analysis: preimages of finite
intervals under the boundary map, preimages of disks with a real
diameter, and the tail sets {Re G > y} / {Re G < -y} of a Cauchy
transform.  Each is a batch of rows (k, u, v) measured by row_measure.
Disks are read off the map's cached tables of its non-real boundary
segments; a measure's tail sets off its support and, as disks of -1/G,
off the tables of its density segments, all roots in one solve.  A seeded
Monte Carlo estimator checks every deterministic value independently.
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

#: Abscissa tolerance of the disk crossings (disk_panels).
_DISK_TOL = 1e-8

#: Probe rounds of disk_panels on intervals the table's bounds leave unsure.
_PROBES = 2


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
    per query in row order (float zeros where there are no rows)."""
    return np.bincount(rows[:, 0].astype(int), rows[:, 2] - rows[:, 1],
                       minlength=math.prod(shape)).reshape(shape).astype(float)


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


def disk_panels(phi: PhiFunction, a, b, tol: float = _DISK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Panels of the non-real boundary set whose values land in the disks
    over (a_k, b_k), read off the map's segment tables.

    On each interval that SegmentTable.candidates keeps for a disk (c, r),
    h = |phi - c|^2 - r^2 has exact signs at the nodes.  Ends on one side
    are certified by the bounds of uncertified, else split at its probe
    up to _PROBES times; what stays unsure is unresolved width on its
    ends' side.  Each sign change is a crossing, and every table's are
    closed to ``tol`` in one bisect_increasing call, h' = 2 Re(conj(phi - c)
    phi') where the map gives phi'.  Panels run between crossings and
    segment ends (the strip past the outermost node takes its side).
    Returns rows (disk, u, v), sorted by disk, then segment and u, and the
    unresolved widths; a disk's rows do not depend on its batch.
    """
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise PreconditionError("disks need finite diameters (a, b) with a < b")
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    lo, hi, h, start, panels, open_width = _crossings(
        phi.segment_tables(), lambda x: phi._boundary_pair(x, slope=False)[0], c, r)
    f = lambda x, i: h(*phi._boundary_pair(x), i)
    f.per_element = True
    return panels(bisect_increasing(f, lo, hi, 0.0, xtol=tol, start=start)), open_width


def _crossings(tables, values, c, r):
    """disk_panels' crossings on the tables of ``values(x)``: brackets (lo, hi);
    h(w, dw, i) = s (|w - c|^2 - r^2) of element i, rising (s = +-1), with its
    slope (None where dw is); secant starts; panels(roots); open widths."""
    found, ends, open_width = [(np.empty(0, dtype=int),) + (np.empty(0),) * 4], [], np.zeros(c.size)
    for t, table in enumerate(tables):
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
            pp = values(xp)
            k, (x0, x1, p0, p1, dev) = np.tile(k, 2), (np.concatenate(u) for u in (
                (x0, xp), (xp, x1), (p0, pp), (pp, p1), (dev * s * s, dev * (1.0 - s) ** 2)))
        open_width += np.bincount(k, x1 - x0, minlength=c.size)
        found.append(tuple(np.concatenate(u) for u in zip(*brackets)))
        # a disk's panels pair its ends in order: the left end where its first
        # node is inside, its crossings, and the right end where they are odd
        first = np.flatnonzero(np.abs(table.values[0] - c) < r)
        odd = np.flatnonzero(np.bincount(np.concatenate([first, found[-1][0]]), minlength=c.size) % 2)
        ends.append(np.column_stack([np.concatenate([first, odd]), np.full(first.size + odd.size, t),
                                     np.repeat(table.ends, [first.size, odd.size])]))
    kq, lo, hi, alo, ahi = (np.concatenate(u) for u in zip(*found))
    tq = np.repeat(np.arange(len(tables)), [u[0].size for u in found[1:]])
    c, r = c[kq], r[kq]
    sign = np.where(alo < r, 1.0, -1.0)  # h rises where lo is inside
    hlo, hhi = (alo - r) * (alo + r), (ahi - r) * (ahi + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = lo + (hi - lo) * hlo / (hlo - hhi)

    def h(w, dw, i):
        z, t = w - c[i], np.abs(w - c[i])
        slope = None if dw is None else sign[i] * 2.0 * (z.real * dw.real + z.imag * dw.imag)
        return sign[i] * (t - r[i]) * (t + r[i]), slope

    def panels(roots):  # sorted by disk, then segment and u
        ek, et, ex = np.concatenate([np.column_stack([kq, tq, roots])] + ends).T
        order = np.lexsort((ex, et, ek))
        rows = np.column_stack([ek[order][::2], ex[order].reshape(-1, 2)])
        return rows[rows[:, 2] > rows[:, 1]]

    return lo, hi, h, start, panels, open_width


def disk_measures(phi: PhiFunction, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measures of the disks' preimages over (a_k, b_k), shaped like a, and
    the rows (k, u, v) they cover: the real-branch preimages of the
    diameters (real values in a disk are those in its diameter,
    phi.pullback) and the boundary panels (disk_panels), summed as joined
    rows (join_rows)."""
    panels, _ = disk_panels(phi, a, b)
    real = phi.pullback(a, b)
    return row_measure(join_rows(np.concatenate([real, panels])), np.shape(a)), real, panels


def disk_preimages(phi: PhiFunction, a, b) -> tuple[list[IntervalSet], np.ndarray]:
    """Preimages of the disks over (a_k, b_k) as sets, with unresolved
    widths: the joined rows of disk_measures, one IntervalSet per disk."""
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    panels, unresolved = disk_panels(phi, a, b)
    rows = join_rows(np.concatenate([phi.pullback(a, b), panels]))
    cuts = np.searchsorted(rows[:, 0], np.arange(a.size + 1))
    return [IntervalSet(tuple(map(tuple, rows[cuts[k]:cuts[k + 1], 1:].tolist())))
            for k in range(a.size)], unresolved


def preimage_disk_measure(phi: PhiFunction, q: DiskQuery) -> float:
    """The one-disk case of disk_measures."""
    return float(disk_measures(phi, [q.a], [q.b])[0][0])


def resolvent_tail_measures(phi: PhiFunction, taus, ys) -> np.ndarray:
    """|{Re G_tau > y}| and |{Re G_tau < -y}| for G_tau = 1/(tau - phi), shape
    (len(taus), len(ys), 2): the preimages of the disks of diameter 1/y
    touching tau from the left and the right, in one disk_measures call."""
    t, step = np.asarray(taus, dtype=float)[:, None], 1.0 / np.asarray(ys, dtype=float)
    a = np.stack(np.broadcast_arrays(t - step, t), axis=-1)
    b = np.stack(np.broadcast_arrays(t, t + step), axis=-1)
    return disk_measures(phi, a, b)[0]


# -- tail sets of Cauchy transforms ---------------------------------------------

#: Abscissa tolerance of every tail root.
_TAIL_TOL = 1e-15


def tail_measures(G: CauchyTransform, ys) -> np.ndarray:
    """|{x : Re G(x) > y}| and |{x : Re G(x) < -y}| for every level y, shape
    (len(ys), 2): for a measure source the row measure of tail_rows, for a
    resolvent the one-tau case of resolvent_tail_measures."""
    ys = np.asarray(ys, dtype=float).ravel()
    if not np.all(ys > 0):
        raise PreconditionError("tail level y must be positive")
    if G.kind == "phi_tau":
        return resolvent_tail_measures(G.phi, [G.tau], ys)[0]
    return row_measure(tail_rows(G, ys), (ys.size, 2))


def tail_set_measure(G: CauchyTransform, y: float, side: str) -> float:
    """|{x : Re G(x) > y}| (upper) or |{x : Re G(x) < -y}| (lower): the
    one-query case of tail_measures."""
    if side not in ("upper", "lower"):
        raise PreconditionError("side must be 'upper' or 'lower'")
    return float(tail_measures(G, [y])[0, int(side == "lower")])


def tail_rows(G: CauchyTransform, ys: np.ndarray) -> np.ndarray:
    """The tail sets of a measure source at the positive levels ys as rows
    (k, u, v), sorted by k and u: query 2i is {Re G > ys[i]}, 2i + 1 is
    {Re G < -ys[i]}.  Off the singular support Re G increases across each
    gap, and from 0 to its edge value on each end component: each is a row
    whole or cut at its root (started at _secular_start, or an end root at
    its one-pole model's).  Inside the density segments they are the panels
    of F = -1/G (G.segment_tables) in the disks over (-1/y, 0) and (0, 1/y).
    All roots are one solve at xtol _TAIL_TOL, from one G._boundary_pair
    pass for G, G' and F' = G'/G^2 (NaN inside a callable piece: bisected)."""
    targets = (ys[:, None] * np.asarray([1.0, -1.0])).ravel()
    level, sgn = np.abs(targets), np.sign(targets)
    upper = sgn > 0
    # query k's disk over (-1/y, 0) or (0, 1/y); an infinite density segment raises here
    dlo, dhi, h, cross_start, panels, _ = _crossings(G.segment_tables, G._reciprocal,
                                                     -0.5 * sgn / level, 0.5 / level)
    pos, _ = G.point_masses()
    comps = gaps_between([(p, p) for p in pos.tolist()] + list(G.measure.density_segments))
    gl, gr = np.asarray([c for c in comps if np.isfinite(c[0]) and np.isfinite(c[1])
                         and c[1] > c[0]]).reshape(-1, 2).T
    lo, hi = _nudge_in(gl, gr - gl, +1.0), _nudge_in(gr, gr - gl, -1.0)
    # the end components: (-inf, edge) for the upper tail, (edge, +inf) for the lower
    edges = np.asarray([next((r for l, r in comps if l == -math.inf and np.isfinite(r)), np.nan),
                        next((l for l, r in comps if r == math.inf and np.isfinite(l)), np.nan)])
    nears, has = _nudge_in(edges, np.ones(2), np.asarray([-1.0, 1.0])), ~np.isnan(edges)
    values = G.boundary_re(np.concatenate([lo, hi, nears[has]]))
    flo, fhi, fnears = values[:lo.size], values[lo.size:2 * lo.size], np.full(2, np.nan)
    fnears[has] = values[2 * lo.size:]
    # a gap is whole where the tail holds at its start, cut where it holds at its other end
    full = np.where(upper[:, None], flo >= level[:, None], fhi <= -level[:, None])
    mid = ~full & ~np.where(upper[:, None], fhi <= level[:, None], flo >= -level[:, None])
    (kf, gf), (km, gm) = np.nonzero(full), np.nonzero(mid)
    edge, near, fnear = (v[np.where(upper, 0, 1)] for v in (edges, nears, fnears))
    ko = np.flatnonzero(sgn * fnear > level)  # False where there is no end component
    far = edge - sgn * np.maximum(4.0 * G.total_mass / level, 16.0 * _EPS * (np.abs(edge) + 1.0))
    # a cut gap or end component runs from its root up for the upper tail, down for the lower
    kc = np.concatenate([km, ko])
    left, right = np.concatenate([gl[gm], edge[ko]]), np.concatenate([gr[gm], edge[ko]])

    def f(x, k):
        g, dg = G._boundary_pair(x)
        value, slope = g.real.copy(), dg.real.copy()
        i = np.flatnonzero(k >= kc.size)  # the crossings, of h(F, F')
        value[i], slope[i] = h(-1.0 / g[i], dg[i] / (g[i] * g[i]), k[i] - kc.size)
        return value, slope

    f.per_element = True
    roots = bisect_increasing(
        f, np.concatenate([lo[gm], np.minimum(far, near)[ko], dlo]),
        np.concatenate([hi[gm], np.maximum(far, near)[ko], dhi]),
        np.concatenate([targets[kc], np.zeros(dlo.size)]), xtol=_TAIL_TOL,
        start=np.concatenate([
            _secular_start(gl[gm], gr[gm], -flo[gm] * (lo[gm] - gl[gm]),
                           fhi[gm] * (gr[gm] - hi[gm]), targets[km]),
            edge[ko] - fnear[ko] * (edge[ko] - near[ko]) / targets[ko], cross_start]))
    cut = roots[:kc.size]
    k, u, v = (np.concatenate(part) for part in zip(
        (kf, gl[gf], gr[gf]), (kc, np.where(upper[kc], cut, left), np.where(upper[kc], right, cut)),
        panels(roots[kc.size:]).T))
    return np.column_stack([k, u, v])[np.lexsort((u, k))]


def _nudge_in(edge: np.ndarray, width: np.ndarray, sign: np.ndarray | float) -> np.ndarray:
    """Point just inside a component endpoint, resolvable in float."""
    step = np.maximum(width * 2.0 ** -49, 16.0 * _EPS * (np.abs(edge) + 1e-300))
    return edge + sign * step


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
