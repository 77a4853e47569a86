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
    (f(x), None) where there is no slope.  The first point of an element
    is its ``start``, or the bracket's midpoint where the start is not
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
    for i in range(0, lo.size, SOLVE_SLICE):
        k = slice(i, i + SOLVE_SLICE)
        out[k] = _solve_slice(f, lo[k], hi[k], target[k], x[k], xtol, max_iter)
    return out


def _solve_slice(f, lo, hi, target, x, xtol, max_iter) -> np.ndarray:
    """bisect_increasing on one slice from the points x; lo and hi are
    updated in place."""
    out, active = np.empty(lo.shape), np.arange(lo.size)
    last, before = 0.5 * (hi - lo), hi - lo  # the last two step lengths
    for _ in range(max_iter):
        if not active.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            value, slope = f(x)
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
