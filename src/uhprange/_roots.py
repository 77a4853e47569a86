"""Monotone root finding on real branches.

Boundary restrictions of half-plane self-maps are strictly increasing on
each real branch, so every equation f(x) = target has at most one solution
per branch and bisection is total.  Branches are tabulated once on a probe
grid (geometric clustering toward endpoints, where values typically blow
up); solving then reduces to a searchsorted bracket plus vectorized
bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

#: Outward scan limit for branches with infinite endpoints.
SCAN_LIMIT = 1e8

#: Absolute abscissa tolerance for bisection.
XTOL = 1e-12

#: Most targets in one bisection call of BranchTable.solve.
SOLVE_SLICE = 2 ** 14


@dataclass(frozen=True)
class Branch:
    """Maximal open interval where the boundary function is real analytic
    and strictly increasing."""

    left: float
    right: float

    def contains(self, x: float) -> bool:
        return self.left < x < self.right


def probe_points(branch: Branch) -> np.ndarray:
    """Strictly interior probe abscissae, geometric near every endpoint."""
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
    xs = xs[(xs > l) & (xs < r) & (np.abs(xs) <= SCAN_LIMIT)]
    return xs


class BranchTable:
    """Tabulated increasing boundary values of one branch."""

    def __init__(self, branch: Branch, boundary_real: Callable[[np.ndarray], np.ndarray]):
        self.branch = branch
        self.f = boundary_real
        xs = probe_points(branch)
        ys = np.asarray(boundary_real(xs), dtype=float)
        # Non-finite probes go first: a NaN would spread through the
        # running maximum to the rest of the table.
        keep = np.isfinite(ys)
        self.xs = xs[keep]
        # Guard against rounding-level non-monotonicity in the table only;
        # bisection uses the exact function.
        self.ys = np.maximum.accumulate(ys[keep])
        if len(self.xs) < 2:
            raise ConvergenceError(f"branch {branch} could not be tabulated")

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.ys[0]), float(self.ys[-1])

    def solve(self, targets: np.ndarray, xtol: float = XTOL) -> np.ndarray:
        """Roots of f(x) = target on the branch; NaN where the target is
        outside the tabulated value range.  Targets are bisected in slices
        of SOLVE_SLICE, which bounds the temporaries of f."""
        targets = np.asarray(targets, dtype=float)
        flat = targets.ravel()
        out = np.full(flat.shape, np.nan)
        idx = np.searchsorted(self.ys, flat)
        ok = np.flatnonzero((idx > 0) & (idx < len(self.ys)))
        for k in (ok[i:i + SOLVE_SLICE] for i in range(0, ok.size, SOLVE_SLICE)):
            out[k] = bisect_increasing(self.f, self.xs[idx[k] - 1], self.xs[idx[k]], flat[k],
                                       xtol=xtol)
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


def bisect_increasing(f: Callable, lo, hi, target, xtol: float = XTOL,
                      max_iter: int = 200) -> np.ndarray:
    """Vectorized bisection for increasing f with valid brackets.  Each
    element leaves on its own tolerance, so a root does not depend on its
    batch; converged elements are compacted out rather than masked."""
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    out, active = np.empty(lo.shape), np.arange(lo.size)
    for _ in range(max_iter):
        if not active.size:
            break
        mid = 0.5 * (lo + hi)
        below = np.asarray(f(mid)) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        done = hi - lo <= np.maximum(xtol, 8.0 * np.finfo(float).eps * np.abs(mid))
        if done.any():
            out[active[done]] = 0.5 * (lo[done] + hi[done])
            active, lo, hi, target = (v[~done] for v in (active, lo, hi, target))
    out[active] = 0.5 * (lo + hi)
    return out
