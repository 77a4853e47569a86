"""Monotone root finding on real branches.

Boundary restrictions of half-plane self-maps are strictly increasing on
each real branch, so every equation f(x) = target has at most one solution
per branch and a bracket with evaluated signs always holds it.  The solver
and the branch tables take one callable that returns f and its slope f'
together (one kernel pass for a representation map or a Cauchy
transform), or f and None.  A table holds the values on a probe grid
(geometric clustering toward endpoints, where values typically blow up)
and the slopes there; solving then reduces to a searchsorted bracket plus
a vectorized safeguarded Newton iteration.  A target equal to a probe's
value is that probe.  Each other element starts at a point its caller
gives: in a table bracket, the inverse cubic Hermite point of the two
probes (Fritsch and Carlson's monotone interpolation, read as x of y);
between two atoms of a Cauchy transform, the root of a model with poles at
both ends; else its bracket's midpoint.  Given the slope, each step is
Newton's; a step leaving the bracket is replaced by the one-pole step,
exact for f = a + c/(p - x) with the pole p at the bracket end beyond the
root (values blow up at branch ends and at the atoms of a Cauchy
transform); a step that is not finite, leaves the bracket, or is not
shorter than half the step before the last (a lying slope) is replaced by
bisection.  Without a slope every step bisects.  A root is the Newton
point of the evaluation that closes its bracket, taken with that
evaluation's own slope.

A non-real boundary segment has a table too (SegmentTable): the complex
boundary values on a grid refined to a fixed rule, with a bound on each
interval's deviation from its chord, which the disk queries of
levelset.disk_panels prune against and bracket their roots on.  The other
sweeps over a density segment (the Clark density tables, the tail scan of
a Cauchy transform) take its probe points with fixed rounds of midpoints
(probe_grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_EPS = np.finfo(float).eps

#: Outward scan limit for branches with infinite endpoints.
SCAN_LIMIT = 1e8

#: Absolute abscissa tolerance of a root bracket.
XTOL = 1e-12

#: Most roots solved together: bounds the root finder's state, the
#: temporaries of f and its slope, and the brackets BranchTable.solve gathers.
SOLVE_SLICE = 2 ** 12


@dataclass(frozen=True)
class Branch:
    """Maximal open interval where the boundary function is real analytic
    and strictly increasing."""

    left: float
    right: float

    def contains(self, x: float) -> bool:
        return self.left < x < self.right


def probe_points(branch: Branch) -> np.ndarray:
    """Strictly interior probe abscissae, geometric near every endpoint,
    none within 4 eps |end| of a finite end."""
    l, r = branch.left, branch.right
    pts: list[np.ndarray] = []
    frac = 2.0 ** (-np.arange(1, 50, dtype=float))
    if np.isfinite(l) and np.isfinite(r):
        w = r - l
        pts.append(l + w * 0.5 * frac)
        pts.append(r - w * 0.5 * frac)
        pts.append(l + w * np.linspace(0.05, 0.95, 41))
    elif np.isfinite(l):  # (l, +inf)
        base = max(1.0, abs(l))
        pts.append(l + base * frac)
        pts.append(l + base * 2.0 ** np.arange(0, 28, dtype=float))
    elif np.isfinite(r):  # (-inf, r)
        base = max(1.0, abs(r))
        pts.append(r - base * frac)
        pts.append(r - base * 2.0 ** np.arange(0, 28, dtype=float))
    else:
        pts.append(np.concatenate([-(2.0 ** np.arange(0, 28, dtype=float)),
                                   np.linspace(-1.0, 1.0, 41),
                                   2.0 ** np.arange(0, 28, dtype=float)]))
    xs = np.unique(np.concatenate(pts))
    # Nearer a finite end than 4 eps |end| (the rounding of an end found by
    # a root solve), a probe may evaluate beyond a pole, and its value would
    # flatten the running maximum of the whole table.  At an infinite end
    # both sides are inf, so no probe is near it.
    near = (xs - l < 4.0 * _EPS * abs(l)) | (r - xs < 4.0 * _EPS * abs(r))
    xs = xs[(xs > l) & (xs < r) & ~near & (np.abs(xs) <= SCAN_LIMIT)]
    return xs


def probe_grid(segment: tuple[float, float], rounds: int) -> np.ndarray:
    """The segment's probe points with a midpoint put between every two
    neighbours, ``rounds`` times over (n points become 2^rounds (n - 1) + 1):
    the grid that every sweep over a density segment starts from."""
    xs = probe_points(Branch(*segment))
    for _ in range(rounds):
        xs = np.insert(xs, np.arange(1, xs.size), 0.5 * (xs[:-1] + xs[1:]))
    return xs


class BranchTable:
    """Tabulated increasing boundary values of one branch.  ``f(x)``
    returns the pair (boundary values, slopes), or (values, None) where
    there is no slope and roots are bisected: bisect_increasing's callable.
    The table keeps the probes' raw values and slopes: a root starts at
    the inverse cubic Hermite point of its table bracket, and a target
    equal to a probe's raw value is that probe, with no evaluation."""

    def __init__(self, branch: Branch, f: Callable[[np.ndarray], tuple]):
        self.branch = branch
        self.f = f
        xs = probe_points(branch)
        ys, ds = f(xs)
        ys = np.asarray(ys, dtype=float)
        # Non-finite probes go first: a NaN would spread through the
        # running maximum to the rest of the table.
        keep = np.isfinite(ys)
        self.xs = xs[keep]
        self.values = ys[keep]
        self.slopes = (np.full(self.xs.shape, np.nan) if ds is None
                       else np.array(ds, dtype=float)[keep])
        # Guard against rounding-level non-monotonicity in the table only;
        # the root finder uses the exact function.
        self.ys = np.maximum.accumulate(self.values)
        if len(self.xs) < 2:
            raise ConvergenceError(f"branch {branch} could not be tabulated")

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.ys[0]), float(self.ys[-1])

    def solve(self, targets: np.ndarray, xtol: float = XTOL) -> np.ndarray:
        """Roots of f(x) = target on the branch; NaN where the target is
        outside the tabulated value range.  A target equal to the raw value
        of its bracket's upper probe is that probe; every other root starts
        at the bracket's inverse cubic Hermite point (x as a function of y
        through both probes, with slopes dx/dy = 1/f'), or its secant point
        where that point is not finite or not strictly inside.  Brackets
        are gathered for SOLVE_SLICE targets at a time."""
        targets = np.asarray(targets, dtype=float)
        flat = targets.ravel()
        out = np.full(flat.shape, np.nan)
        idx = np.searchsorted(self.ys, flat)
        ok = (idx > 0) & (idx < len(self.ys))
        exact = np.flatnonzero(ok)[self.values[idx[ok]] == flat[ok]]
        out[exact] = self.xs[idx[exact]]
        ok[exact] = False
        ok = np.flatnonzero(ok)
        for k in (ok[i:i + SOLVE_SLICE] for i in range(0, ok.size, SOLVE_SLICE)):
            j = idx[k]  # the upper probe of each bracket
            x0, x1, y0, y1 = self.xs[j - 1], self.xs[j], self.values[j - 1], self.values[j]
            start = _hermite_start(x0, x1, y0, y1, self.slopes[j - 1], self.slopes[j], flat[k])
            out[k] = bisect_increasing(self.f, x0, x1, flat[k], xtol=xtol, start=start)
        return out.reshape(targets.shape)

    def solve_clamped(self, targets: np.ndarray, xtol: float = XTOL) -> np.ndarray:
        """Like solve, but targets off the low/high end of the value range
        clamp to the corresponding branch endpoint (so that differences of
        two clamped solutions measure preimage intervals)."""
        targets = np.asarray(targets, dtype=float)
        flat = targets.ravel()
        out = self.solve(flat, xtol=xtol)
        low = flat <= self.ys[0]
        high = flat >= self.ys[-1]
        out[low] = self.xs[0] if not np.isfinite(self.branch.left) else self.branch.left
        out[high] = self.xs[-1] if not np.isfinite(self.branch.right) else self.branch.right
        return out.reshape(targets.shape)


#: A segment table splits an interval while its midpoint value lies farther
#: than CHORD_TOL * max(1, |value|) from the chord.
CHORD_TOL = 2.0 ** -16

#: Boxes of one level of a segment table per box of the level above.
BLOCK = 32


class SegmentTable:
    """Boundary values phi(x + i0) on one non-real segment, tabulated by a
    rule that no query changes; ``f(x)`` returns them.  The nodes start as the
    segment's probe points (geometric toward every end, out to SCAN_LIMIT at
    an infinite one).  An interval is split at its midpoint while the
    midpoint's value lies off the chord by more than CHORD_TOL
    max(1, |value|) and the interval is wider than 2^-44 of the segment's
    scale (its width, or the larger of 1 and |finite end|).  The midpoint
    of an interval that passes becomes a node too, and both halves take the
    distance measured there as their deviation bound ``dev``, about four
    times a half's own deviation from its chord: phi lies within
    4 dev s (1 - s) of the chord at the fraction s of the half.  A
    non-finite value makes no node, and its interval's bound is inf.
    ``boxes`` holds, level by level, the bounding boxes (re_lo, re_hi,
    im_lo, im_hi) of runs of 1, BLOCK, BLOCK^2, ... intervals, padded by
    their largest bound, up to a level of at most BLOCK boxes; ``ends``
    holds the segment's ends, an infinite one replaced by the outermost
    node."""

    def __init__(self, segment: tuple[float, float], f: Callable[[np.ndarray], np.ndarray]):
        l, r = segment
        x = probe_points(Branch(l, r))
        v = np.asarray(f(x), dtype=complex)
        x, v = x[np.isfinite(v)], v[np.isfinite(v)]
        if x.size < 2:
            raise ConvergenceError(f"segment {segment} could not be tabulated")
        finite = [abs(e) for e in segment if np.isfinite(e)]
        floor = 2.0 ** -44 * (r - l if len(finite) == 2 else max([1.0] + finite))
        dev = np.full(x.size - 1, np.nan)  # NaN: not measured yet
        while np.isnan(dev).any():
            j = np.flatnonzero(np.isnan(dev))
            m = 0.5 * (x[j] + x[j + 1])
            vm = np.asarray(f(m), dtype=complex)
            e = np.abs(vm - 0.5 * (v[j] + v[j + 1]))
            ok = np.isfinite(vm)
            split = (e > CHORD_TOL * np.maximum(1.0, np.abs(vm))) & (
                x[j + 1] - x[j] > np.maximum(floor, 16.0 * _EPS * np.abs(m)))
            dev[j] = np.where(ok & ~split, e, np.where(ok, np.nan, np.inf))
            x, v = np.insert(x, j[ok] + 1, m[ok]), np.insert(v, j[ok] + 1, vm[ok])
            dev = np.insert(dev, j[ok] + 1, dev[j[ok]])
        self.x, self.values, self.dev = x, v, dev
        self.ends = (l if np.isfinite(l) else x[0], r if np.isfinite(r) else x[-1])
        # each interval's box, then each run of BLOCK boxes' box, up to at most BLOCK boxes
        self.boxes = [tuple(bound(part[:-1], part[1:]) + sign * dev
                            for part in (v.real, v.imag)
                            for bound, sign in ((np.minimum, -1.0), (np.maximum, 1.0)))]
        while self.boxes[-1][0].size > BLOCK:
            first = np.arange(0, self.boxes[-1][0].size, BLOCK)
            self.boxes.append(tuple(bound.reduceat(part, first) for part, bound in zip(
                self.boxes[-1], (np.minimum, np.maximum) * 2)))

    def candidates(self, c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (disk, interval) pairs, disk-major, whose padded box the
        circle |w - c_k| = r_k meets, found from the coarsest level of boxes
        down: a box wholly outside or inside the disk (by a margin of 2^-30 r
        over rounding) holds no crossing.  Disks go 2^11 at a time."""
        found = [(np.empty(0, dtype=int),) * 2]
        for i in range(0, c.size, 2 ** 11):
            k = np.arange(i, min(i + 2 ** 11, c.size))
            j = np.zeros(k.size, dtype=int)
            for re_lo, re_hi, im_lo, im_hi in reversed(self.boxes):
                k, j = np.repeat(k, BLOCK), (j[:, None] * BLOCK + np.arange(BLOCK)).ravel()
                k, j = k[j < re_lo.size], j[j < re_lo.size]
                cc, lo, hi = c[k], re_lo[j], re_hi[j]
                near = (np.maximum(np.maximum(lo - cc, cc - hi), 0.0) ** 2
                        + np.maximum(np.maximum(im_lo[j], -im_hi[j]), 0.0) ** 2)
                far = np.maximum(np.abs(lo - cc), np.abs(hi - cc)) ** 2 + np.maximum(
                    im_lo[j] ** 2, im_hi[j] ** 2)
                meets = ((near < (r[k] * (1.0 + 2.0 ** -30)) ** 2)
                         & ~(far < (r[k] * (1.0 - 2.0 ** -30)) ** 2))
                k, j = k[meets], j[meets]
            found.append((k, j))
        return tuple(np.concatenate(v) for v in zip(*found))


def uncertified(A, B, d, r) -> tuple[np.ndarray, np.ndarray]:
    """Whether the bounds leave it open that phi, within 4 d s (1 - s) of
    the chord from c + A to c + A + B at the fraction s, crosses the circle
    |w - c| = r where both chord ends lie on one side of it; and where to
    probe it: the chord's point nearest c, or where the upper bound peaks,
    kept within [1/16, 15/16].  With a0 = |A| and a1 = |A + B|, the lower
    bound is the larger of the chord's distance less d and the one from
    the tangents at both ends of the convex |A + s B| - 4 d s (1 - s); the
    upper one is the largest value of (1 - s) a0 + s a1 + 4 d s (1 - s)."""
    a0, a1, inside = np.abs(A), np.abs(A + B), np.abs(A) < r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g0 = (A.real * B.real + A.imag * B.imag) / a0 - 4.0 * d
        g1 = ((A + B).real * B.real + (A + B).imag * B.imag) / a1 + 4.0 * d
        s = np.clip((a1 - g1 - a0) / (g0 - g1), 0.0, 1.0)
        lower = np.where(g0 >= 0.0, a0, np.where(g1 <= 0.0, a1, np.maximum(a0 + g0 * s,
                                                                           a1 + g1 * (s - 1.0))))
        near = np.clip(-(A.real * B.real + A.imag * B.imag) / np.abs(B) ** 2, 0.0, 1.0)
        lower = np.maximum(lower, np.abs(A + near * B) - d)
        far = np.clip((a1 - a0 + 4.0 * d) / (8.0 * d), 0.0, 1.0)
        upper = np.where(d > 0.0, a0 + far * (a1 - a0) + 4.0 * d * far * (1.0 - far),
                         np.maximum(a0, a1))
    probe = np.nan_to_num(np.where(inside, far, near), nan=0.5)
    return np.where(inside, ~(upper < r), ~(lower >= r)), np.clip(probe, 0.0625, 0.9375)


def _hermite_start(x0, x1, y0, y1, d0, d1, target) -> np.ndarray:
    """The inverse cubic Hermite point of each bracket: x(y) through
    (y0, x0) and (y1, x1) with slopes 1/d0 and 1/d1; the secant point where
    that one is not finite or not strictly inside (x0, x1)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h, w = y1 - y0, x1 - x0
        s = (target - y0) / h
        secant = x0 + s * w
        x = secant + s * (1.0 - s) * ((1.0 - s) * (h / d0 - w) - s * (h / d1 - w))
    return np.where((x0 < x) & (x < x1), x, secant)


def bisect_increasing(f: Callable, lo, hi, target, xtol: float = XTOL,
                      max_iter: int = 200, start=None) -> np.ndarray:
    """Roots of increasing f(x) = target in valid brackets (lo, hi), with
    f(lo) < target <= f(hi).  ``f(x)`` returns the pair (f(x), f'(x)), or
    (f(x), None) where there is no slope; a callable with ``per_element``
    set is called f(x, k) instead, k the indices of the points x in the
    batch, and solves one equation per element.  The first point of an
    element is its ``start``, or the bracket's midpoint where the start is not
    strictly inside the bracket (NaN and +-inf included) or not given.
    Every evaluation moves one end of its element's bracket; an element is
    done once its bracket is at most tol = max(xtol, 8 eps |x|) wide.
    Without a slope every later step bisects and a root is its bracket's
    midpoint.  With one, the steps are those of the module docstring, a
    step shorter than tol/2 goes tol/2 (so that the next evaluation closes
    the bracket), and a root is the Newton point of the last evaluation,
    taken with that evaluation's own slope and clipped to the bracket, or
    the midpoint where that point is not a number.  Each element keeps its
    own state, so a root does not depend on its batch; elements are solved
    SOLVE_SLICE at a time, and done ones are compacted out."""
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    x = 0.5 * (lo + hi)
    if start is not None:
        start = np.broadcast_to(np.asarray(start, dtype=float), lo.shape)
        x = np.where((lo < start) & (start < hi), start, x)
    out = np.empty(lo.shape)
    per_element = getattr(f, "per_element", False)
    for i in range(0, lo.size, SOLVE_SLICE):
        k = slice(i, i + SOLVE_SLICE)
        out[k] = _solve_slice(f, lo[k], hi[k], target[k], x[k], xtol, max_iter,
                              i if per_element else None)
    return out


def _solve_slice(f, lo, hi, target, x, xtol, max_iter, offset) -> np.ndarray:
    """bisect_increasing on one slice from the points x, f called f(x), or
    f(x, k) given the batch's index ``offset`` of the slice's first
    element; lo and hi are updated in place."""
    out, active = np.empty(lo.shape), np.arange(lo.size)
    last, before = 0.5 * (hi - lo), hi - lo  # the last two step lengths
    for _ in range(max_iter):
        if not active.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            value, slope = f(x) if offset is None else f(x, offset + active)
            r = np.asarray(value) - target  # exact in sign: r < 0 is f(x) < target
        # a copy: a real view would hold its complex base
        d = np.full(x.shape, np.nan) if slope is None else np.array(slope, dtype=float)
        below = r < 0.0
        np.copyto(lo, x, where=below)
        np.copyto(hi, x, where=~below)
        done = hi - lo <= np.maximum(xtol, 8.0 * _EPS * np.abs(x))
        if done.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.clip(x[done] - r[done] / d[done], lo[done], hi[done])
            out[active[done]] = np.where(np.isnan(root), 0.5 * (lo[done] + hi[done]), root)
            keep = ~done
            active, lo, hi, target, x, r, below, d, last, before = (
                v[keep] for v in (active, lo, hi, target, x, r, below, d, last, before))
            if not active.size:
                break
        if slope is None:
            x = 0.5 * (lo + hi)
            continue
        new = _safeguarded_point(x, r, d, lo, hi, below, xtol, before)
        x, last, before = new, np.abs(new - x), last
    out[active] = 0.5 * (lo + hi)
    return out


def _safeguarded_point(x, r, d, lo, hi, below, xtol, before) -> np.ndarray:
    """The next point from the iterate x (an end of the bracket (lo, hi),
    with residual r = f(x) - target and slope d): Newton's, if it lies
    between x and p, the bracket end on the root's side; else the one-pole
    point x' = p - d (p-x)^2 / (d (p-x) - r), which lies in (x, p) for
    d > 0.  Within tol/2 of x it moves to tol/2 from x.  The midpoint
    replaces a point that is not finite, not between x and p, or not
    nearer x than half of ``before``, the step before the last (which
    bounds the work of a lying slope by about twice bisection's)."""
    p = np.where(below, hi, lo)

    def valid(v):  # from x toward the root, short of p
        return (lo <= v) & (v <= hi) & (v != p)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new = x - r / d
        new = np.where(valid(new), new, p - d * (p - x) ** 2 / (d * (p - x) - r))
    # within tol/2 of x, go tol/2 toward the root: the next evaluation closes the bracket
    half = 0.5 * np.maximum(xtol, 8.0 * _EPS * np.abs(x))
    new = np.where(np.abs(new - x) < half, x + np.where(below, half, -half), new)
    ok = valid(new) & (np.abs(new - x) <= 0.5 * before)
    return np.where(ok, new, 0.5 * (lo + hi))
