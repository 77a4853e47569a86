"""Analytic self-maps of the upper half-plane.

A map is given by its integral representation
``phi(z) = alpha + beta*z + integral (1+t*z)/(t-z) d(rho)(t)``, evaluated
by kernel integrals or, for the small catalog, by closed forms; or it is a
composition of such a map.  Every map carries its real-branch structure:
the maximal open intervals of the line where the boundary function is
real analytic and strictly increasing.  Root finding, level sets and the
spectral-measure constructions all lean on that monotonicity.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from ._roots import SCAN_LIMIT, Branch, BranchTable, SegmentTable, solve_tables
from .errors import (ConvergenceError, DomainError, PreconditionError,
                     UnsupportedStructureError)
from .measures import AcPiece, RealMeasure, gaps_between, kernel_integral

#: preimage_window pads its window by this share of its width, at least 1.
_WINDOW_PAD = 0.1

#: Most branch roots, distinct ends times branch tables, that one power of
#: PhiFunction.pullbacks may solve (power 4 of five atoms solves 6.3e6).
PULLBACK_ROOTS = 2 ** 23


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
    where the imaginary part is positive (the a.c. support of rho).  A
    composition has no representation data: its ``rho``, ``rho_k`` and
    ``alpha`` are None.
    """

    rho: RealMeasure | None = None
    rho_k: float | None = None
    alpha: float | None = None

    def __init__(self, *, beta: float, branches: Sequence[Branch],
                 nonreal_segments: Sequence[tuple[float, float]],
                 support_hull: tuple[float, float] | None, name: str,
                 branches_complete: bool = True):
        self.beta = float(beta)
        self.real_branches = tuple(sorted(branches, key=lambda b: b.left))
        self.nonreal_segments = tuple(nonreal_segments)
        self.support_hull = support_hull
        self.name = name
        self.branches_complete = branches_complete
        self._tables: dict[int, BranchTable] = {}
        self._segment_tables: list[SegmentTable] | None = None

    # -- evaluation hooks ------------------------------------------------

    def _eval_complex(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative_complex(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _boundary_pair(self, x: np.ndarray, slope: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """(phi(x + i0), phi'(x + i0)) at real points, or (phi(x + i0), None)
        where the map gives no slope or ``slope`` is off, without domain
        checks: inf at a pole, NaN where a value is not resolved.  The one
        real-line hook: every boundary query, the branch tables (which read
        the real parts), the segment tables and their disk crossings.  The
        pair of a catalog or representation map is float64 where no point
        lies in the closure of a non-real segment (so on the real branches,
        where it is exactly real), with the bits of the real parts that
        the complex path gives the same points; else, and for a
        composition, it is complex."""
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
        half-plane); exact zero imaginary part on real branches, inf at a
        pole.  NaN off the real branches (a principal value not resolved)
        raises ConvergenceError naming the point; on a branch it stays NaN."""
        arr, scalar = _as_array(x, float)
        out = self._boundary_values(arr).astype(complex, copy=False)
        return complex(out[0]) if scalar else out

    def boundary_value(self, x: float) -> complex:
        """Boundary value at a single real point; DomainError where it is
        not finite (a pole)."""
        x = float(x)
        w = self.boundary(x)
        if not (np.isfinite(w.real) and np.isfinite(w.imag)):
            raise DomainError(f"boundary value diverges at {x}")
        return w

    def boundary_real(self, x) -> np.ndarray:
        """Real boundary values; meaningful on real branches only."""
        arr, scalar = _as_array(x, float)
        out = np.real(self._boundary_values(arr))
        return float(out[0]) if scalar else out

    def _boundary_values(self, x: np.ndarray) -> np.ndarray:
        """The boundary hook's values, under the one rule of every map: NaN
        off the real branches raises ConvergenceError."""
        out = self._boundary_pair(x, slope=False)[0]
        nan = np.isnan(out)
        if nan.any():
            bad = x[nan & ~self._on_branch_mask(x)]
            if bad.size:
                raise ConvergenceError(f"principal value not resolved at x={float(bad[0])!r}")
        return out

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
        return self._branch_table(self.real_branches.index(branch))

    def _branch_table(self, key: int) -> BranchTable:
        """The table of the key-th real branch, built on first use and kept."""
        if key not in self._tables:
            # evaluated by a copy without the tables: through the map itself,
            # map and tables would be a cycle, which only a full collection frees
            twin = copy.copy(self)
            twin._tables, twin._segment_tables = {}, None
            self._tables[key] = BranchTable(self.real_branches[key], twin._boundary_pair)
        return self._tables[key]

    def branch_tables(self) -> list[BranchTable]:
        self._require_branches()
        return [self._branch_table(key) for key in range(len(self.real_branches))]

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
        end is solved once per branch, every branch in one root loop
        (solve_tables), and an infinite end maps to the branch's own end.
        A finite end whose root lies beyond the scan limit raises
        ConvergenceError (_require_reach)."""
        lo, hi = (np.asarray(v, dtype=float).ravel() for v in (lo, hi))
        return self._pull(*np.unique(np.concatenate([lo, hi]), return_inverse=True))

    def _pull(self, ends: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """pullback's rows from the distinct ends and the inverse that
        gives the intervals' lo (its first half) and hi (its second)."""
        count = inv.size // 2
        solved, tables = ~np.isinf(ends), self.branch_tables()
        targets = ends[solved]
        self._require_reach(tables, targets)
        roots = solve_tables(tables, targets)
        x = np.empty((len(tables), ends.size))
        for i, tbl in enumerate(tables):
            x[i] = np.where(ends < 0.0, tbl.branch.left, tbl.branch.right)
            x[i, solved] = tbl.clamp(targets, roots[i])
        del roots
        xa, xb = x[:, inv[:count]], x[:, inv[count:]]
        del x  # freed before the rows are built: the peak of a deep power's pullback
        keep = xb > xa
        # stored by column, so that pulling the rows back reads contiguous ends
        return np.stack([np.flatnonzero(keep) % count, xa[keep], xb[keep]]).T

    def pullbacks(self, lo, hi):
        """Yields the preimages of the intervals (lo_k, hi_k) under phi, phi_2,
        phi_3, ... as pullback's rows (k, xa, xb): power n's rows are power
        n - 1's pulled back through the map, phi_n^-1(I) = phi^-1(phi_(n-1)^-1(I)),
        each keeping the k of the row it came from.  No composition is
        tabulated.  Before pulling a power's rows back, the size of the root
        table that pullback would solve, distinct ends times branch tables,
        is known; where it exceeds PULLBACK_ROOTS the generator stops with
        UnsupportedStructureError naming that size."""
        rows, power = self.pullback(lo, hi), 1
        while True:
            yield rows
            ends, inv = np.unique(np.concatenate([rows[:, 1], rows[:, 2]]), return_inverse=True)
            size, power = ends.size * len(self.real_branches), power + 1
            if size > PULLBACK_ROOTS:
                raise UnsupportedStructureError(f"power {power} would solve {size} branch roots, "
                                                f"over the budget of {PULLBACK_ROOTS}")
            pulled = self._pull(ends, inv)
            del ends, inv  # not held while the rows are read
            pulled[:, 0] = rows[pulled[:, 0].astype(int), 0]
            rows = pulled

    def _require_reach(self, tables: list[BranchTable], targets: np.ndarray) -> None:
        """Raises ConvergenceError, naming the branch, where a finite target
        lies beyond a table's value range at an infinite branch end: for
        beta > 0 phi runs to +-inf there, so such a target has a root past
        the table, which stops within SCAN_LIMIT."""
        for tbl in tables:
            b = tbl.branch
            far = targets[((targets > tbl.ys[-1]) & math.isinf(b.right))
                          | ((targets < tbl.ys[0]) & math.isinf(b.left))]
            if self.beta > 0 and far.size:
                raise ConvergenceError(
                    f"the root of phi(x) = {float(far[0])!r} on branch ({b.left}, {b.right}) "
                    f"lies beyond the scan limit |x| < {SCAN_LIMIT:g}")

    def _require_branches(self):
        if not self.branches_complete:
            raise UnsupportedStructureError(
                f"{self.name}: real-branch structure is not fully enumerated "
                "(singular-continuous representing measure)")

    def value_limit(self, branch: Branch, side: str) -> float:
        """One-sided boundary limit at a branch endpoint, from the branch
        table's three probe values nearest it; +-inf when their differences
        do not contract."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        tbl = self.branch_table(branch)
        v1, v2, v3 = (tbl.values[:3] if side == "left" else tbl.values[:-4:-1]).tolist()
        d12, d23 = abs(v1 - v2), abs(v2 - v3)
        if d12 >= 0.9 * d23 and d12 > 1e-9 * (1.0 + abs(v1)):
            return -math.inf if side == "left" else math.inf
        return v1

    def preimage_window(self, lo: float, hi: float) -> tuple[float, float]:
        """A finite window provably containing {x: phi(x) in [lo, hi]} up to
        the outward scan limit, padded by _WINDOW_PAD of its width (at
        least 1) for Monte Carlo use."""
        ends = self.pullback([lo], [hi])[:, 1:].ravel().tolist()
        for (l, r) in self.nonreal_segments:
            if np.isfinite(l):
                ends.append(l)
            if np.isfinite(r):
                ends.append(r)
        lo_x = min(ends) if ends else -1.0
        hi_x = max(ends) if ends else 1.0
        pad = max(1.0, _WINDOW_PAD * (hi_x - lo_x))
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
    """Map assembled from its integral representation.  The data fix its
    structure: the real branches are the gaps between the atoms and pieces
    of rho, the non-real segments rho's density segments, the hull rho's."""

    def __init__(self, data: NevanlinnaData, name: str | None = None):
        rho = data.rho
        blockers = ([(p, p) for (p, _) in rho.atoms]
                    + [(q.left, q.right) for q in rho.ac_pieces + rho.sc_pieces])
        # the branch and segment tables reach |x| = SCAN_LIMIT and no farther
        far = [e for block in blockers for e in block if math.isfinite(e) and abs(e) >= SCAN_LIMIT]
        if far:
            raise PreconditionError(
                f"position {far[0]!r} is beyond the scan limit: |x| < {SCAN_LIMIT:g}")
        super().__init__(
            beta=data.beta, branches=[Branch(l, r) for (l, r) in gaps_between(blockers)],
            nonreal_segments=rho.density_segments, support_hull=rho.support_hull(),
            name=name or f"nevanlinna(alpha={data.alpha}, beta={data.beta})",
            branches_complete=not rho.sc_pieces)
        self.data, self.rho, self.alpha = data, rho, data.alpha

    @cached_property
    def rho_k(self) -> float:
        """The second moment int (1 + t^2) d(rho)(t), integrated on first
        use; inf where a density piece reaches infinity."""
        if any(math.isinf(p.left) or math.isinf(p.right) for p in self.rho.ac_pieces):
            return math.inf
        return float(np.real(self.rho.integrate(lambda t: 1.0 + t * t)))

    def _eval_complex(self, z: np.ndarray) -> np.ndarray:
        return kernel_integral(self.rho, _kernel, z, start=self.data.alpha + self.data.beta * z)

    def _derivative_complex(self, z: np.ndarray) -> np.ndarray:
        return kernel_integral(self.rho, _kernel_derivative, z, start=self.data.beta)

    def _boundary_pair(self, x: np.ndarray, slope: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """The Plemelj limits of phi, and of phi' where asked, from one pass
        over rho (the slope is NaN inside a density piece given by a
        callable); inf at the atoms of rho.  Where no point lies in a
        density piece (ends included) the pass takes no Plemelj limit and
        stays in real arithmetic, which gives the real parts of the limits
        bit for bit: the pair is float64."""
        start = self.data.alpha + self.data.beta * x
        pv = any(((p.left <= x) & (x <= p.right)).any() for p in self.rho.ac_pieces)
        if slope:
            value, d = kernel_integral(self.rho, _kernel_pair, x, pv=pv,
                                       start=(start, self.data.beta))
        else:
            value, d = kernel_integral(self.rho, _kernel, x, pv=pv, start=start), None
        odd = ~np.isfinite(value)  # atoms, piece ends and unresolved principal values
        if odd.any():
            value[odd & np.isin(x, [p for (p, _) in self.rho.atoms])] = math.inf
        return value, d


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


class ClosedFormPhi(NevanlinnaPhi):
    """Catalog map: representation data, which give its structure as they
    give any map's, evaluated by closed forms: the value, the derivative,
    and the boundary pair ``pair_fn(x, slope)``, whose slope is the
    derivative at x + 0j (every catalog map's branch cuts make it the limit
    from above).  Where no point lies on the closed cut, the pair takes
    real-branch forms in float64 (see PhiFunction._boundary_pair)."""

    def __init__(self, name: str, data: NevanlinnaData, eval_fn: Callable,
                 deriv_fn: Callable, pair_fn: Callable):
        super().__init__(data, name)
        self._eval_fn, self._deriv_fn, self._pair_fn = eval_fn, deriv_fn, pair_fn

    def _eval_complex(self, z):
        return self._eval_fn(z)

    def _derivative_complex(self, z):
        return self._deriv_fn(z)

    def _boundary_pair(self, x, slope: bool = True):
        return self._pair_fn(x, slope)


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
        hull = (min(finite_ends), max(finite_ends)) if finite_ends else None
        nonreal = tuple(g for g in gaps_between((b.left, b.right) for b in branches)
                        if np.isfinite(g[0]) or np.isfinite(g[1]))
        super().__init__(beta=base.beta, branches=branches, nonreal_segments=nonreal,
                         support_hull=hull, name=f"{base.name}^{n}")
        self.base, self.n = base, n

    def _pull(self, ends: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """The preimages of the intervals as rows (k, xa, xb), pulled back n
        times through the base map's own tables (pullbacks): no table of
        the composition is built."""
        count = inv.size // 2
        return next(islice(self.base.pullbacks(ends[inv[:count]], ends[inv[count:]]),
                           self.n - 1, None))

    def _eval_complex(self, z):
        return self._steps(z, slope=False)[0]

    def _derivative_complex(self, z):
        return self._steps(z, slope=True)[1]

    def _boundary_pair(self, x, slope: bool = True):
        return self._steps(x.astype(complex), slope)

    def _steps(self, w, slope: bool):
        """The n base steps from w, and the chain rule's slope where asked
        (else None): a real step takes the base map's boundary value, and its
        slope where it leaves the base's branches; any other factor, the
        base's derivative, waits for the last step and is taken where the
        slope is not NaN (as after a step into a callable density piece).  A
        real +-inf (an atom's value) stays for beta > 0, as phi ~ beta x."""
        d, later = (np.ones(w.shape, dtype=complex) if slope else None), []
        for _ in range(self.n):
            real = w.imag == 0.0
            step = real & ~(np.isinf(w.real) & (self.base.beta > 0))
            off = step & ~self.base._on_branch_mask(w.real) if slope else np.zeros_like(step)
            on, w = step & ~off, w.copy()
            if slope:  # the factors of the steps on a base branch and the non-real ones wait
                later.append((np.flatnonzero(~real | on), w[~real | on]))
            if on.any():
                w[on] = self.base._boundary_pair(w[on].real, slope=False)[0]
            if off.any():  # each point leaves the line once: its slope is 1 until then
                w[off], d[off] = self.base._boundary_pair(w[off].real)
            if (~real).any():
                w[~real] = self.base._eval_complex(w[~real])
        for k, z in later:
            live = ~np.isnan(d[k])
            if live.any():
                dz = self.base._derivative_complex(z[live])
                with np.errstate(invalid="ignore", over="ignore"):  # inf slopes at the atoms
                    d[k[live]] *= dz
        return w, d


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


def _sqrt_prod_slope(z: np.ndarray) -> np.ndarray:
    """Its derivative z / (sqrt(z-1) sqrt(z+1)); NaN at the branch points
    +-1, as a representation map's slope on a piece end."""
    s = _sqrt_prod(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s == 0.0, np.nan, z / s)


def _sqrt_pair(x: np.ndarray, slope: bool):
    """The boundary pair of _sqrt_prod: off the cut [-1, 1] in float64,
    sign(x) sqrt|x - 1| sqrt|x + 1| and x (1/s), the bits of the complex
    forms' real parts (numpy divides by a complex s as a product with
    1/s); else the complex forms at x + 0j."""
    if (np.abs(x) > 1.0).all():
        s = np.copysign(np.sqrt(np.abs(x - 1.0)) * np.sqrt(np.abs(x + 1.0)), x)
        return s, x * (1.0 / s) if slope else None
    z = x.astype(complex)
    return _sqrt_prod(z), _sqrt_prod_slope(z) if slope else None


def _log_pair(value: np.ndarray, cut: np.ndarray, deriv: Callable, x: np.ndarray, slope: bool):
    """The boundary pair of a map whose limit from above is its real part
    ``value`` plus i pi on the closed cut ``cut``: float64 where no point
    lies on the cut, with the slope deriv(x), else complex, with the slope
    deriv(x + 0j).  Both slopes have the same bits where ``deriv`` divides
    only powers of two (numpy's complex division multiplies by the
    divisor's reciprocal, which is exact for those)."""
    if not cut.any():
        return value, deriv(x) if slope else None
    return value + 1j * math.pi * cut, deriv(x.astype(complex)) if slope else None


def _sqrt_density(t: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(1.0 - t * t, 0.0, None)) / (math.pi * (1.0 + t * t))


@cache
def _sqrt_piece() -> AcPiece:
    """sqrt's density piece, built once per process: its mass (sqrt(2) - 1)
    is integrated on first use and cached on the piece."""
    return AcPiece(-1.0, 1.0, _sqrt_density, 0.5, 0.5, label="semicircle-over-cauchy")


def _make_sqrt() -> ClosedFormPhi:
    return ClosedFormPhi(
        "sqrt", NevanlinnaData(0.0, 1.0, RealMeasure(ac_pieces=(_sqrt_piece(),))),
        _sqrt_prod, _sqrt_prod_slope, _sqrt_pair)


def _make_zlog() -> ClosedFormPhi:
    deriv_fn = lambda z: 1.0 + 1.0 / z

    def pair_fn(x, slope):  # x + log|x|, and i pi on the cut x <= 0
        with np.errstate(divide="ignore"):
            value = x + np.log(np.abs(x))
        return _log_pair(value, x <= 0.0, deriv_fn, x, slope)

    return ClosedFormPhi(
        "zlog", NevanlinnaData(0.0, 1.0, RealMeasure.poisson(-math.inf, 0.0)),
        lambda z: z + np.log(z), deriv_fn, pair_fn)


def _make_zloglin(alpha: float = 0.0) -> ClosedFormPhi:
    alpha = float(alpha)
    deriv_fn = lambda z: 1.0 + 2.0 / ((z - 1.0) * (z + 1.0))

    def pair_fn(x, slope):
        # alpha + x + log|(x - 1)/(x + 1)|, and i pi on the cut |x| <= 1, where
        # (1 - x)/(1 + x) is the negated quotient bit for bit
        with np.errstate(divide="ignore", invalid="ignore"):
            value = alpha + x + np.log(np.abs((x - 1.0) / (x + 1.0)))
        return _log_pair(value, np.abs(x) <= 1.0, deriv_fn, x, slope)

    return ClosedFormPhi(
        f"zloglin(alpha={alpha})", NevanlinnaData(alpha, 1.0, RealMeasure.poisson(-1.0, 1.0)),
        lambda z: alpha + z + np.log(z - 1.0) - np.log(z + 1.0), deriv_fn, pair_fn)


def _make_sqrtpole(alpha: float = 0.0) -> ClosedFormPhi:
    alpha = float(alpha)

    def deriv_fn(z):
        with np.errstate(divide="ignore", invalid="ignore"):  # the pole at 1
            return _sqrt_prod_slope(z) + 1.0 / (1.0 - z) ** 2

    def pair_fn(x, slope):
        s, ds = _sqrt_pair(x, slope)
        w = x if s.dtype == float else x.astype(complex)  # the slope's arithmetic
        with np.errstate(divide="ignore", invalid="ignore"):
            return alpha + s + 1.0 / (1.0 - x), ds + 1.0 / (1.0 - w) ** 2 if slope else None

    # 1/(1 - z) is the atom (1, 1/2), whose kernel adds 1/(1 - z) - 1/2
    rho = RealMeasure(atoms=((1.0, 0.5),), ac_pieces=(_sqrt_piece(),))
    return ClosedFormPhi(
        f"sqrtpole(alpha={alpha})", NevanlinnaData(alpha + 0.5, 1.0, rho),
        lambda z: alpha + _sqrt_prod(z) + 1.0 / (1.0 - z), deriv_fn, pair_fn)


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
