"""Analytic self-maps of the upper half-plane.

A map is either assembled from its integral representation
``phi(z) = alpha + beta*z + integral (1+t*z)/(t-z) d(rho)(t)`` or taken
from a small catalog of closed forms.  Every map carries its real-branch
structure: the maximal open intervals of the line where the boundary
function is real analytic and strictly increasing.  Root finding, level
sets and the spectral-measure constructions all lean on that monotonicity.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from ._roots import SCAN_LIMIT, Branch, BranchTable, SegmentTable
from .errors import (ConvergenceError, DomainError, PreconditionError,
                     UnsupportedStructureError)
from .measures import AcPiece, RealMeasure, gaps_between, kernel_integral


@dataclass(frozen=True)
class NevanlinnaData:
    """The representation triple (alpha, beta, rho)."""

    alpha: float
    beta: float
    rho: RealMeasure

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise PreconditionError("alpha must be finite")
        if not (self.beta >= 0 and np.isfinite(self.beta)):
            raise PreconditionError("beta must be finite and >= 0")


def _as_array(x, dtype) -> tuple[np.ndarray, bool]:
    """(x as a 1-d array of dtype, whether x was a scalar)."""
    arr = np.asarray(x, dtype=dtype)
    return np.atleast_1d(arr), arr.ndim == 0


class PhiFunction:
    """Base class; concrete maps fill in the evaluation hooks.

    Invariants maintained by construction: beta >= 0; the branch list is
    sorted and disjoint; on every branch the boundary restriction is real
    and strictly increasing; ``nonreal_segments`` carry the boundary set
    where the imaginary part is positive (the a.c. support of rho).
    """

    def __init__(self, *, beta: float, branches: Sequence[Branch],
                 nonreal_segments: Sequence[tuple[float, float]],
                 support_hull: tuple[float, float] | None,
                 rho: RealMeasure | None, rho_k: float | None,
                 alpha: float | None, name: str,
                 excluded_points: Sequence[float] = (),
                 branches_complete: bool = True):
        self.beta = float(beta)
        self.real_branches = tuple(sorted(branches, key=lambda b: b.left))
        self.nonreal_segments = tuple(nonreal_segments)
        self.support_hull = support_hull
        self.rho = rho
        self.rho_k = rho_k
        self.alpha = alpha
        self.name = name
        self.excluded_points = tuple(excluded_points)
        self.branches_complete = branches_complete
        self._tables: dict[int, BranchTable] = {}
        self._segment_tables: list[SegmentTable] | None = None

    # -- evaluation hooks ------------------------------------------------

    def _eval_complex(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _boundary_complex(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative_complex(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- public surface ----------------------------------------------------

    def eval(self, z):
        """Value at z with Im z > 0."""
        arr, scalar = _as_array(z, complex)
        if np.any(arr.imag <= 0):
            raise DomainError("eval requires Im z > 0")
        out = self._eval_complex(arr)
        return complex(out[0]) if scalar else out

    def boundary(self, x) -> np.ndarray:
        """Boundary values on the real line (vectorized, closed upper
        half-plane); exact zero imaginary part on real branches."""
        arr, scalar = _as_array(x, float)
        out = self._boundary_complex(arr)
        return complex(out[0]) if scalar else out

    def boundary_value(self, x: float) -> complex:
        """Boundary value at a single real point, with domain checks."""
        x = float(x)
        for p in self.excluded_points:
            if x == p:
                raise DomainError(f"boundary value not defined at {p}")
        w = self.boundary(x)
        if not (np.isfinite(w.real) and np.isfinite(w.imag)):
            raise DomainError(f"boundary value diverges at {x}")
        return w

    def boundary_real(self, x) -> np.ndarray:
        """Real boundary values; meaningful on real branches only."""
        arr, scalar = _as_array(x, float)
        out = np.real(self._boundary_complex(arr))
        return float(out[0]) if scalar else out

    def _boundary_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Re phi(x + i0), Re phi'(x)) at real points, without domain
        checks: the callable of the branch tables.  Here from the boundary
        and derivative hooks (closed forms, or a composition's chain rule)."""
        return self.boundary_real(x), np.real(self._derivative_complex(x.astype(complex)))

    def _boundary_pair(self, x: np.ndarray, slope: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """(phi(x + i0), phi'(x + i0)) at real points, or (phi(x + i0), None)
        where the map gives no slope or ``slope`` is off: the segment
        tables' values and their disk crossings' callable.  Here the
        boundary hook alone."""
        return self._boundary_complex(x), None

    def derivative(self, z):
        """Derivative at z in the open upper half-plane, or at a real x
        strictly inside a real branch (where it is real and positive)."""
        arr, scalar = _as_array(z, complex)
        if np.all(arr.imag > 0):
            out = self._derivative_complex(arr)
            return complex(out[0]) if scalar else out
        if np.any(arr.imag != 0):
            raise DomainError("derivative: points must be in C+ or on real branches")
        off = ~self._on_branch_mask(arr.real)
        if off.any():
            raise DomainError(f"derivative: {arr.real[off][0]} is not on a real branch")
        out = np.real(self._derivative_complex(arr))
        return float(out[0]) if scalar else out

    # -- branch machinery ----------------------------------------------------

    def branch_of(self, x: float) -> Branch | None:
        for b in self.real_branches:
            if b.contains(x):
                return b
        return None

    def _on_branch_mask(self, x: np.ndarray) -> np.ndarray:
        """Whether each point lies strictly inside some real branch."""
        mask = np.zeros(x.shape, dtype=bool)
        for b in self.real_branches:
            mask |= (x > b.left) & (x < b.right)
        return mask

    def branch_table(self, branch: Branch) -> BranchTable:
        key = self.real_branches.index(branch)
        if key not in self._tables:
            # evaluated by a copy without the tables: through the map itself,
            # map and tables would be a cycle, which only a full collection frees
            twin = copy.copy(self)
            twin._tables, twin._segment_tables = {}, None
            self._tables[key] = BranchTable(branch, twin._boundary_and_slope)
        return self._tables[key]

    def branch_tables(self) -> list[BranchTable]:
        self._require_branches()
        return [self.branch_table(b) for b in self.real_branches]

    def segment_tables(self) -> list[SegmentTable]:
        """One table of the boundary values per non-real segment, built on
        first use and kept, as the branch tables are."""
        if self._segment_tables is None:
            values = lambda x: self._boundary_pair(x, slope=False)[0]
            self._segment_tables = [SegmentTable(seg, values) for seg in self.nonreal_segments]
        return self._segment_tables

    def pullback(self, lo, hi) -> np.ndarray:
        """The nonempty clamped preimages of the intervals (lo_k, hi_k), k
        the flat index, as rows (k, xa, xb), branch by branch: every distinct
        end is solved once per branch, and an infinite end maps to the
        branch's own end."""
        lo, hi = (np.asarray(v, dtype=float).ravel() for v in (lo, hi))
        ends, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        solved, tables = ~np.isinf(ends), self.branch_tables()
        x = np.empty((len(tables), ends.size))
        for i, tbl in enumerate(tables):
            x[i] = np.where(ends < 0.0, tbl.branch.left, tbl.branch.right)
            x[i, solved] = tbl.solve_clamped(ends[solved])
        xa, xb = x[:, inv[:lo.size]], x[:, inv[lo.size:]]
        del x  # freed before the rows are built: the peak of a deep power's pullback
        keep = xb > xa
        # stored by column, so that pulling the rows back reads contiguous ends
        return np.stack([np.flatnonzero(keep) % lo.size, xa[keep], xb[keep]]).T

    def pullbacks(self, lo, hi):
        """Yields the preimages of the intervals (lo_k, hi_k) under phi, phi_2,
        phi_3, ... as pullback's rows (k, xa, xb): power n's rows are power
        n - 1's pulled back through the map, phi_n^-1(I) = phi^-1(phi_(n-1)^-1(I)),
        each keeping the k of the row it came from.  No composition is
        tabulated."""
        rows = self.pullback(lo, hi)
        while True:
            yield rows
            pulled = self.pullback(rows[:, 1], rows[:, 2])
            pulled[:, 0] = rows[pulled[:, 0].astype(int), 0]
            rows = pulled

    def _require_branches(self):
        if not self.branches_complete:
            raise UnsupportedStructureError(
                f"{self.name}: real-branch structure is not fully enumerated "
                "(singular-continuous representing measure)")

    def value_limit(self, branch: Branch, side: str) -> float:
        """One-sided boundary limit at a branch endpoint; +-inf when the
        probe differences do not contract."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        tbl = self.branch_table(branch)
        v1, v2, v3 = map(float, tbl.f(tbl.xs[:3] if side == "left" else tbl.xs[:-4:-1])[0])
        d12, d23 = abs(v1 - v2), abs(v2 - v3)
        if d12 >= 0.9 * d23 and d12 > 1e-9 * (1.0 + abs(v1)):
            return -math.inf if side == "left" else math.inf
        return v1

    def preimage_window(self, lo: float, hi: float, pad_frac: float = 0.1) -> tuple[float, float]:
        """A finite window provably containing {x: phi(x) in [lo, hi]} up to
        the outward scan limit, padded for Monte Carlo use."""
        ends = self.pullback([lo], [hi])[:, 1:].ravel().tolist()
        for (l, r) in self.nonreal_segments:
            if np.isfinite(l):
                ends.append(l)
            if np.isfinite(r):
                ends.append(r)
        lo_x = min(ends) if ends else -1.0
        hi_x = max(ends) if ends else 1.0
        pad = max(1.0, pad_frac * (hi_x - lo_x))
        return (max(lo_x - pad, -SCAN_LIMIT), min(hi_x + pad, SCAN_LIMIT))

    def iterate(self, n: int) -> "PhiFunction":
        """n-fold composition with pulled-back branch structure."""
        if n < 1:
            raise PreconditionError("iterate requires n >= 1")
        if n == 1:
            return self
        self._require_branches()
        return IteratedPhi(self, n)

    def __repr__(self):
        return f"<PhiFunction {self.name}>"


class NevanlinnaPhi(PhiFunction):
    """Map assembled from its integral representation."""

    def __init__(self, data: NevanlinnaData):
        rho = data.rho
        blockers = ([(p, p) for (p, _) in rho.atoms]
                    + [(q.left, q.right) for q in rho.ac_pieces + rho.sc_pieces])
        # the branch and segment tables reach |x| = SCAN_LIMIT and no farther
        far = [e for block in blockers for e in block if math.isfinite(e) and abs(e) >= SCAN_LIMIT]
        if far:
            raise PreconditionError(
                f"position {far[0]!r} is beyond the scan limit: |x| < {SCAN_LIMIT:g}")
        branches = [Branch(l, r) for (l, r) in gaps_between(blockers)]
        hull = rho.support_hull()
        k = float(np.real(rho.integrate(lambda t: 1.0 + t * t))) if hull is not None else 0.0
        if any(math.isinf(p.left) or math.isinf(p.right) for p in rho.ac_pieces):
            k = math.inf
        super().__init__(
            beta=data.beta, branches=branches, nonreal_segments=rho.density_segments,
            support_hull=hull, rho=rho, rho_k=k, alpha=data.alpha,
            name=f"nevanlinna(alpha={data.alpha}, beta={data.beta})",
            excluded_points=[p for (p, _) in rho.atoms],
            branches_complete=not rho.sc_pieces)
        self.data = data

    def _eval_complex(self, z: np.ndarray) -> np.ndarray:
        return kernel_integral(self.rho, _kernel, z, start=self.data.alpha + self.data.beta * z)

    def _derivative_complex(self, z: np.ndarray) -> np.ndarray:
        return kernel_integral(self.rho, _kernel_derivative, z, start=self.data.beta)

    def _boundary_complex(self, x: np.ndarray) -> np.ndarray:
        """phi(x + i0) in one kernel pass (Plemelj limits inside the pieces),
        inf at the atoms of rho.  NaN off the branches raises
        ConvergenceError naming the point; on a branch it stays NaN."""
        out = np.asarray(kernel_integral(self.rho, _kernel, x, pv=True,
                                         start=self.data.alpha + self.data.beta * x), dtype=complex)
        odd = ~np.isfinite(out)  # atoms, piece ends and unresolved principal values
        if odd.any():
            out[odd & np.isin(x, self.excluded_points)] = complex(math.inf, 0.0)
            bad = x[np.isnan(out) & ~self._on_branch_mask(x)]
            if bad.size:
                raise ConvergenceError(f"principal value not resolved at x={float(bad[0])!r}")
        return out

    def _boundary_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and slope from one pass over rho (off its support)."""
        return kernel_integral(self.rho, _kernel_pair, x,
                               start=(self.data.alpha + self.data.beta * x, self.data.beta))

    def _boundary_pair(self, x: np.ndarray, slope: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """The Plemelj limits of phi and phi' from one pass over rho where
        every density piece is named, else phi's alone; NaN where a
        principal value is not resolved, without raising."""
        start = self.data.alpha + self.data.beta * x
        if slope and all(p.closed_form is not None for p in self.rho.ac_pieces):
            return kernel_integral(self.rho, _kernel_pair, x, pv=True,
                                   start=(start, self.data.beta))
        return kernel_integral(self.rho, _kernel, x, pv=True, start=start), None


def _kernel(t, z, w):
    """w * (1 + t z) / (t - z), the kernel of the representation."""
    return (1.0 + t * z) / (t - z) * w


def _kernel_derivative(t, z, w):
    """w * (1 + t^2) / (t - z)^2, its derivative in z."""
    return (1.0 + t * t) / (t - z) ** 2 * w


def _kernel_pair(t, z, w):
    """Yields _kernel's entries, then _kernel_derivative's, from one t - z."""
    d = t - z
    yield (1.0 + t * z) / d * w
    yield (1.0 + t * t) / d ** 2 * w


def _tree_weights(t, w):
    """(1+tz)/(t-z) = (1+t^2)/(t-z) - t: the tree sums the weights
    w (1+t^2), and the value adds -sum w t."""
    return w * (1.0 + t * t), -np.add.reduce(w * t)


# (mass, G, G') coefficients (z, 1+z^2, 0) and (1, 2z, 1+z^2)
_kernel.closed_form = lambda form, z: form.representation(z)
_kernel.boundary = lambda mass, x, g: x * mass + (1.0 + x * x) * g
_kernel.tree = (_tree_weights, (0,))
_kernel_derivative.closed_form = lambda form, z: form.derivative(z)
# its Plemelj limit m + H'(x + i0), H = (1+z^2) G
_kernel_derivative.boundary_slope = lambda form, x: (
    form.mass + 2.0 * x * form.boundary(x) + (1.0 + x * x) * form.boundary_slope(x))
_kernel_derivative.tree = (_tree_weights, (1,))
_kernel_pair.halves = (_kernel, _kernel_derivative)
_kernel_pair.tree = (_tree_weights, (0, 1))


class ClosedFormPhi(PhiFunction):
    """Catalog map given by closed-form evaluation/boundary/derivative; its
    non-real segments and support hull are those of its measure rho."""

    def __init__(self, *, name: str, eval_fn: Callable, boundary_fn: Callable,
                 deriv_fn: Callable, branches, rho: RealMeasure, rho_k: float | None,
                 alpha: float | None, excluded_points=()):
        super().__init__(beta=1.0, branches=branches,
                         nonreal_segments=rho.density_segments,
                         support_hull=rho.support_hull(), rho=rho, rho_k=rho_k,
                         alpha=alpha, name=name, excluded_points=excluded_points)
        self._eval_fn = eval_fn
        self._boundary_fn = boundary_fn
        self._deriv_fn = deriv_fn

    def _eval_complex(self, z):
        return self._eval_fn(z)

    def _boundary_complex(self, x):
        return self._boundary_fn(x)

    def _derivative_complex(self, z):
        return self._deriv_fn(z)

    def _boundary_pair(self, x, slope: bool = True):
        """The closed forms' boundary values and their derivative at x + 0j,
        which every catalog map's branch cuts make the limit from above."""
        return self._boundary_fn(x), self._deriv_fn(x.astype(complex)) if slope else None


class IteratedPhi(PhiFunction):
    """n-fold composition of a base map.

    A point belongs to a real branch of the composition exactly when its
    forward orbit stays on real branches of the base map, so the branch
    list is the base map's branches pulled back n - 1 times through the
    base, and a preimage under the composition is one pulled back n times.
    """

    def __init__(self, base: PhiFunction, n: int):
        ends = np.asarray([(b.left, b.right) for b in base.real_branches]).T
        rows = next(islice(base.pullbacks(*ends), n - 2, None))
        # preimages narrower than 1e-11 of their scale (the larger finite
        # end, at least 1) are dropped
        size = np.where(np.isinf(rows[:, 1:]), 0.0, np.abs(rows[:, 1:]))
        wide = rows[:, 2] - rows[:, 1] > 1e-11 * np.max(size, axis=1, initial=1.0)
        branches = sorted((Branch(lo, hi) for lo, hi in rows[wide, 1:].tolist()),
                          key=lambda b: b.left)
        if not branches:
            raise UnsupportedStructureError(
                f"branch pullback emptied at depth while iterating {base.name}")
        finite_ends = [e for b in branches for e in (b.left, b.right) if np.isfinite(e)]
        hull = None
        if finite_ends:
            hull = (min(finite_ends), max(finite_ends))
        nonreal = tuple(g for g in gaps_between((b.left, b.right) for b in branches)
                        if np.isfinite(g[0]) or np.isfinite(g[1]))
        super().__init__(beta=base.beta, branches=branches,
                         nonreal_segments=nonreal, support_hull=hull,
                         rho=None, rho_k=None, alpha=None,
                         name=f"{base.name}^{n}",
                         excluded_points=base.excluded_points)
        self.base = base
        self.n = n

    def pullback(self, lo, hi) -> np.ndarray:
        """The preimages of the intervals (lo_k, hi_k) as rows (k, xa, xb),
        pulled back n times through the base map's own tables (pullbacks):
        no table of the composition is built."""
        return next(islice(self.base.pullbacks(lo, hi), self.n - 1, None))

    def _eval_complex(self, z):
        w = z
        for _ in range(self.n):
            w = self.base._eval_complex(w)
        return w

    def _boundary_complex(self, x):
        w = x.astype(complex)
        for _ in range(self.n):
            w = self._step_value(w)
        return w

    def _derivative_complex(self, z):
        w = z
        prod = np.ones(z.shape, dtype=complex)
        for _ in range(self.n):
            prod = prod * self.base._derivative_complex(w)
            w = self._step_value(w)
        return prod

    def _step_value(self, w):
        """One base step: boundary values on the real line, else interior.
        A real +-inf (the base map's value at an atom) stays where it is for
        beta > 0, as phi(x) ~ beta x at infinity."""
        real = w.imag == 0.0
        step = real & ~(np.isinf(w.real) & (self.base.beta > 0))
        out = w.copy()
        if step.any():
            out[step] = self.base._boundary_complex(w[step].real)
        if (~real).any():
            out[~real] = self.base._eval_complex(w[~real])
        return out


# -- construction -------------------------------------------------------------


def phi_from_nevanlinna(data: NevanlinnaData) -> PhiFunction:
    """Build a map from its representation triple."""
    return NevanlinnaPhi(data)


def phi_translation(alpha: float) -> PhiFunction:
    """z -> z + alpha (empty representing measure)."""
    return NevanlinnaPhi(NevanlinnaData(alpha=float(alpha), beta=1.0,
                                        rho=RealMeasure.zero()))


def phi_identity() -> PhiFunction:
    return phi_translation(0.0)


def _sqrt_prod(z: np.ndarray) -> np.ndarray:
    """sqrt(z-1)*sqrt(z+1): maps C+ to C+, asymptotic to z at infinity."""
    return np.sqrt(z - 1.0) * np.sqrt(z + 1.0)


def _sqrt_density(t: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(1.0 - t * t, 0.0, None)) / (math.pi * (1.0 + t * t))


@cache
def _sqrt_piece() -> AcPiece:
    """sqrt's density piece, built once per process: its mass (sqrt(2) - 1)
    is integrated on first use and cached on the piece."""
    return AcPiece(-1.0, 1.0, _sqrt_density, 0.5, 0.5, label="semicircle-over-cauchy")


def _make_sqrt() -> ClosedFormPhi:
    rho = RealMeasure(ac_pieces=(_sqrt_piece(),))

    def eval_fn(z):
        return _sqrt_prod(np.asarray(z, dtype=complex))

    def boundary_fn(x):
        x = np.asarray(x, dtype=float)
        return _sqrt_prod(x.astype(complex))

    def deriv_fn(z):
        z = np.asarray(z, dtype=complex)
        return z / _sqrt_prod(z)

    return ClosedFormPhi(
        name="sqrt", eval_fn=eval_fn, boundary_fn=boundary_fn, deriv_fn=deriv_fn,
        branches=[Branch(-math.inf, -1.0), Branch(1.0, math.inf)],
        rho=rho, rho_k=0.5, alpha=0.0, excluded_points=())


def _make_zlog() -> ClosedFormPhi:
    rho = RealMeasure.poisson(-math.inf, 0.0)

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        return z + np.log(z)

    def boundary_fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out[pos] = x[pos] + np.log(x[pos])
            out[~pos] = x[~pos] + np.log(np.abs(x[~pos])) + 1j * math.pi
        return out

    def deriv_fn(z):
        z = np.asarray(z, dtype=complex)
        return 1.0 + 1.0 / z

    return ClosedFormPhi(
        name="zlog", eval_fn=eval_fn, boundary_fn=boundary_fn, deriv_fn=deriv_fn,
        branches=[Branch(0.0, math.inf)], rho=rho, rho_k=math.inf, alpha=None,
        excluded_points=(0.0,))


def _make_zloglin(alpha: float = 0.0) -> ClosedFormPhi:
    alpha = float(alpha)
    rho = RealMeasure.poisson(-1.0, 1.0)

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        return alpha + z + np.log(z - 1.0) - np.log(z + 1.0)

    def boundary_fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        on = np.abs(x) > 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out[on] = alpha + x[on] + np.log((x[on] - 1.0) / (x[on] + 1.0))
            xin = x[~on]
            out[~on] = (alpha + xin + np.log((1.0 - xin) / (1.0 + xin))
                        + 1j * math.pi)
        return out

    def deriv_fn(z):
        z = np.asarray(z, dtype=complex)
        return 1.0 + 2.0 / ((z - 1.0) * (z + 1.0))

    return ClosedFormPhi(
        name=f"zloglin(alpha={alpha})", eval_fn=eval_fn, boundary_fn=boundary_fn,
        deriv_fn=deriv_fn,
        branches=[Branch(-math.inf, -1.0), Branch(1.0, math.inf)],
        rho=rho, rho_k=2.0, alpha=alpha, excluded_points=(-1.0, 1.0))


def _make_sqrtpole(alpha: float = 0.0) -> ClosedFormPhi:
    alpha = float(alpha)
    rho = RealMeasure(atoms=((1.0, 0.5),), ac_pieces=(_sqrt_piece(),))

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        return alpha + _sqrt_prod(z) + 1.0 / (1.0 - z)

    def boundary_fn(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return alpha + _sqrt_prod(x.astype(complex)) + 1.0 / (1.0 - x)

    def deriv_fn(z):
        z = np.asarray(z, dtype=complex)
        return z / _sqrt_prod(z) + 1.0 / (1.0 - z) ** 2

    return ClosedFormPhi(
        name=f"sqrtpole(alpha={alpha})", eval_fn=eval_fn, boundary_fn=boundary_fn,
        deriv_fn=deriv_fn,
        branches=[Branch(-math.inf, -1.0), Branch(1.0, math.inf)],
        rho=rho, rho_k=1.5, alpha=None, excluded_points=(1.0,))


#: name -> (factory, parameter names)
CATALOG: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "sqrt": (_make_sqrt, ()),
    "zlog": (_make_zlog, ()),
    "zloglin": (_make_zloglin, ("alpha",)),
    "sqrtpole": (_make_sqrtpole, ("alpha",)),
}


def phi_from_catalog(name: str, **params) -> PhiFunction:
    """Closed-form catalog: sqrt, zlog, zloglin(alpha), sqrtpole(alpha)."""
    if name not in CATALOG:
        raise PreconditionError(
            f"unknown catalog function {name!r}; choices: {sorted(CATALOG)}")
    factory, accepted = CATALOG[name]
    extra = set(params) - set(accepted)
    if extra:
        raise PreconditionError(f"{name} does not take parameters {sorted(extra)}")
    return factory(**params)


def require_contraction(phi: PhiFunction):
    """Analysis operations assume beta = 1 (the contractive case)."""
    if abs(phi.beta - 1.0) > 1e-12:
        raise PreconditionError(
            f"operation requires beta = 1 (got beta = {phi.beta}); "
            "evaluation works for other beta but range analysis does not")
