"""Analytic self-maps of the upper half-plane.

A map is either assembled from its integral representation
``phi(z) = alpha + beta*z + integral (1+t*z)/(t-z) d(rho)(t)`` or taken
from a small catalog of closed forms.  Every map carries its real-branch
structure: the maximal open intervals of the line where the boundary
function is real analytic and strictly increasing.  Root finding, level
sets and the spectral-measure constructions all lean on that monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._roots import SCAN_LIMIT, Branch, BranchTable
from .errors import (ConvergenceError, DomainError, PreconditionError,
                     UnsupportedStructureError)
from .measures import AcPiece, RealMeasure, cauchy_kernel, gaps_between, kernel_integral


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
            self._tables[key] = BranchTable(branch, self.boundary_real)
        return self._tables[key]

    def branch_tables(self) -> list[BranchTable]:
        self._require_branches()
        return [self.branch_table(b) for b in self.real_branches]

    def pullback(self, lo, hi) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per real branch, the clamped preimages (xa, xb) of the intervals
        (lo, hi), shaped like lo and hi: every distinct end is solved once,
        and an infinite end maps to the branch's own end."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ends, inv = np.unique(np.concatenate([lo.ravel(), hi.ravel()]), return_inverse=True)
        solved = ~np.isinf(ends)
        out = []
        for tbl in self.branch_tables():
            x = np.where(ends < 0.0, tbl.branch.left, tbl.branch.right)
            x[solved] = tbl.solve_clamped(ends[solved])
            x = x[inv]
            out.append((x[:lo.size].reshape(lo.shape), x[lo.size:].reshape(hi.shape)))
        return out

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
        v1, v2, v3 = map(float, tbl.f(tbl.xs[:3] if side == "left" else tbl.xs[:-4:-1]))
        d12, d23 = abs(v1 - v2), abs(v2 - v3)
        if d12 >= 0.9 * d23 and d12 > 1e-9 * (1.0 + abs(v1)):
            return -math.inf if side == "left" else math.inf
        return v1

    def preimage_window(self, lo: float, hi: float, pad_frac: float = 0.1) -> tuple[float, float]:
        """A finite window provably containing {x: phi(x) in [lo, hi]} up to
        the outward scan limit, padded for Monte Carlo use."""
        ends = [float(x[0]) for pair in self.pullback([lo], [hi]) for x in pair]
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
        branches = [Branch(l, r) for (l, r) in gaps_between(blockers)]
        nonreal = tuple((p.left, p.right) for p in rho.ac_pieces)
        hull = rho.support_hull()
        k = float(np.real(rho.integrate(lambda t: 1.0 + t * t))) if hull is not None else 0.0
        if any(math.isinf(p.left) or math.isinf(p.right) for p in rho.ac_pieces):
            k = math.inf
        super().__init__(
            beta=data.beta, branches=branches, nonreal_segments=nonreal,
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
        out = np.empty(x.shape, dtype=complex)
        on = self._on_branch_mask(x)
        if on.any():
            out[on] = self.boundary_real(x[on])  # exactly real on branches
        # Every atom of rho (the excluded points) is a pole of phi.
        pole = np.isin(x, self.excluded_points)
        out[pole] = complex(math.inf, 0.0)
        off = ~on & ~pole
        if off.any():
            out[off] = self._plemelj(x[off])
        return out

    def _plemelj(self, x: np.ndarray) -> np.ndarray:
        """phi(x + i0) = alpha + (beta + |rho|) x + (1+x^2) G(x + i0), G the Cauchy
        transform of rho (Plemelj, as (1+tx)/(t-x) = (1+x^2)/(t-x) + x)."""
        g = kernel_integral(self.rho, cauchy_kernel, x, pv=True)
        bad = x[np.isnan(g)]
        if bad.size:
            raise ConvergenceError(f"principal value not resolved at x={float(bad[0])!r}")
        scale = 1.0 + x * x
        return (self.data.alpha + (self.data.beta + self.rho.total_mass()) * x
                + scale * g.real + 1j * scale * g.imag)

    def boundary_real(self, x) -> np.ndarray:
        arr, scalar = _as_array(x, float)
        vals = np.real(kernel_integral(self.rho, _kernel, arr.astype(complex),
                                       start=self.data.alpha + self.data.beta * arr))
        return float(vals[0]) if scalar else vals


def _kernel(t, z, w):
    """w * (1 + t z) / (t - z), the kernel of the representation."""
    return (1.0 + t * z) / (t - z) * w


def _kernel_derivative(t, z, w):
    """w * (1 + t^2) / (t - z)^2, its derivative in z."""
    return (1.0 + t * t) / (t - z) ** 2 * w


# (mass, G, G') coefficients (z, 1+z^2, 0) and (1, 2z, 1+z^2)
_kernel.closed_form = lambda form, z: form.representation(z)
_kernel_derivative.closed_form = lambda form, z: form.derivative(z)


class ClosedFormPhi(PhiFunction):
    """Catalog map given by closed-form evaluation/boundary/derivative."""

    def __init__(self, *, name: str, eval_fn: Callable, boundary_fn: Callable,
                 deriv_fn: Callable, branches, nonreal_segments, support_hull,
                 rho: RealMeasure | None, rho_k: float | None, alpha: float | None,
                 excluded_points=()):
        super().__init__(beta=1.0, branches=branches,
                         nonreal_segments=nonreal_segments,
                         support_hull=support_hull, rho=rho, rho_k=rho_k,
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


class IteratedPhi(PhiFunction):
    """n-fold composition of a base map.

    A point belongs to a real branch of the composition exactly when its
    forward orbit stays on real branches of the base map, so the branch
    list is built by pulling the previous level's branches back through
    each increasing branch of the base.
    """

    def __init__(self, base: PhiFunction, n: int):
        branches = list(base.real_branches)
        for _ in range(n - 1):
            # preimages narrower than 1e-11 of their scale are dropped
            pulled = base.pullback(*np.asarray([(b.left, b.right) for b in branches]).T)
            branches = []
            for xa, xb in pulled:
                for lo, hi in zip(xa.tolist(), xb.tolist()):
                    scale = max(1.0, abs(lo) if np.isfinite(lo) else 0.0,
                                abs(hi) if np.isfinite(hi) else 0.0)
                    if hi > lo and (not np.isfinite(hi - lo) or hi - lo > 1e-11 * scale):
                        branches.append(Branch(lo, hi))
            branches.sort(key=lambda b: b.left)
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
        """One base step: boundary values on the real line, else interior."""
        real = w.imag == 0.0
        out = np.empty(w.shape, dtype=complex)
        if real.any():
            out[real] = self.base._boundary_complex(w[real].real)
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


def _make_sqrt() -> ClosedFormPhi:
    rho = RealMeasure(ac_pieces=(AcPiece(-1.0, 1.0, _sqrt_density, 0.5, 0.5,
                                         label="semicircle-over-cauchy"),))

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
        nonreal_segments=[(-1.0, 1.0)], support_hull=(-1.0, 1.0),
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
        branches=[Branch(0.0, math.inf)], nonreal_segments=[(-math.inf, 0.0)],
        support_hull=(-math.inf, 0.0), rho=rho, rho_k=math.inf, alpha=None,
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
        nonreal_segments=[(-1.0, 1.0)], support_hull=(-1.0, 1.0),
        rho=rho, rho_k=2.0, alpha=alpha, excluded_points=(-1.0, 1.0))


def _make_sqrtpole(alpha: float = 0.0) -> ClosedFormPhi:
    alpha = float(alpha)
    rho = RealMeasure(atoms=((1.0, 0.5),),
                      ac_pieces=(AcPiece(-1.0, 1.0, _sqrt_density, 0.5, 0.5,
                                         label="semicircle-over-cauchy"),))

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
        nonreal_segments=[(-1.0, 1.0)], support_hull=(-1.0, 1.0),
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
