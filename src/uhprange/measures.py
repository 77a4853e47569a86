"""Finite positive Borel measures on the line with an explicit Lebesgue
decomposition: point masses, absolutely continuous pieces given by a
density on an interval, and singular-continuous pieces realized as
depth-limited Cantor-type distribution functions.

The decomposition is part of the data, so singular mass is read off
rather than detected numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _quad
from .errors import PreconditionError

#: Construction level at which Cantor-type parts are discretized when a
#: kernel is integrated against a measure.
SC_EVAL_LEVEL = 12

#: Memory bounds of a kernel integral: kernel entries per chunk of the
#: atom sum, and points per adaptive call near a density piece.
_ATOM_CHUNK = 2**14
_POINTS_PER_CALL = 8

#: A point nearer than _NEAR_END |e| to an end e of negative exponent of a
#: density piece without a closed form is NaN (an end at 0 has no such
#: points).  The power substitution there resolves t only to its rounding,
#: eps |e|: on the arcsine law on (-1, 1) the error grows to 3e-12 relative
#: at 2**-21.5, and the adaptive path chases the rounding steps, from 2e3
#: panels a point at 2**-20 to 5e5 at 2**-28, until the panel budget runs
#: out below 2**-31.
_NEAR_END = 2.0**-20


@dataclass(frozen=True)
class AcPiece:
    """Absolutely continuous piece: a nonnegative density on (left, right).

    ``left_exponent``/``right_exponent`` declare power behaviour of the
    density at the endpoints (density ~ (t-left)**left_exponent, etc.);
    negative exponents > -1 flag integrable singularities that quadrature
    must remove by substitution.  Endpoints may be infinite, in which case
    the density must decay fast enough for the piece mass to be finite.

    ``closed_form`` carries the transforms of a named family (``RealMeasure``
    constructors ``uniform``, ``arcsine`` and ``poisson``); kernel integrals
    then take them at every point, and ``mass`` and ``cdf`` are closed.
    """

    left: float
    right: float
    density: Callable[[np.ndarray], np.ndarray]
    left_exponent: float = 0.0
    right_exponent: float = 0.0
    label: str = "density"
    closed_form: "_ClosedForm | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.left < self.right:
            raise PreconditionError(f"empty density interval ({self.left}, {self.right})")
        if self.left_exponent <= -1.0 or self.right_exponent <= -1.0:
            raise PreconditionError("endpoint exponents must exceed -1")

    def integrate(self, f: Callable, tol: float = 1e-10) -> complex:
        """Integral of f against this piece."""
        def g(t: np.ndarray, _owner: np.ndarray) -> np.ndarray:
            return np.asarray(f(t)) * np.asarray(self.density(t))

        return complex(_quad.integrate_domains(g, self.left, self.right,
                                               p_left=self.left_exponent,
                                               p_right=self.right_exponent, tol=tol)[0])

    @cached_property
    def mass(self) -> float:
        """The piece's mass: closed for a named family, else integrated to
        1e-12 once, on first use."""
        if self.closed_form is not None:
            return self.closed_form.mass
        return self.integrate(np.ones_like, tol=1e-12).real


@dataclass(frozen=True)
class ScCantorPiece:
    """Singular-continuous piece: a Cantor-type CDF on (left, right).

    At every level the surviving intervals keep the outer fraction
    ``(1 - middle) / 2`` on each side; mass splits evenly.  The recursion
    stops at ``depth`` levels and fills in linearly below that scale, so
    the CDF is exactly computable, monotone and continuous, with
    cdf(left) = 0 and cdf(right) = mass.
    """

    left: float
    right: float
    mass: float
    depth: int = 16
    middle: float = 1.0 / 3.0

    def __post_init__(self):
        if not self.left < self.right:
            raise PreconditionError("empty Cantor interval")
        if not 0.0 < self.middle < 1.0:
            raise PreconditionError("removed middle fraction must be in (0, 1)")
        if self.mass < 0:
            raise PreconditionError("negative singular-continuous mass")
        if self.depth < 1:
            raise PreconditionError("depth must be >= 1")

    def cdf(self, x) -> np.ndarray:
        """CDF values (vectorized)."""
        x = np.asarray(x, dtype=float)
        u = (x - self.left) / (self.right - self.left)
        u = np.clip(u, 0.0, 1.0)
        s = 0.5 * (1.0 - self.middle)  # surviving fraction per side
        y = np.zeros_like(u)
        scale = np.full_like(u, 1.0)
        active = np.ones(u.shape, dtype=bool)
        for _ in range(self.depth):
            low = active & (u < s)
            high = active & (u > 1.0 - s)
            mid = active & ~low & ~high
            u = np.where(low, u / s, u)
            u = np.where(high, (u - (1.0 - s)) / s, u)
            y = np.where(high, y + 0.5 * scale, y)
            scale = np.where(low | high, 0.5 * scale, scale)
            y = np.where(mid, y + 0.5 * scale, y)  # dead centre of a gap
            active = active & ~mid
        y = np.where(active, y + scale * u, y)
        return self.mass * y

    def support_intervals(self, level: int | None = None) -> list[tuple[float, float]]:
        """The 2**level surviving intervals at the given construction level."""
        level = self.depth if level is None else min(level, self.depth)
        s = 0.5 * (1.0 - self.middle)
        intervals = [(self.left, self.right)]
        for _ in range(level):
            nxt = []
            for (u, v) in intervals:
                w = v - u
                nxt.append((u, u + s * w))
                nxt.append((v - s * w, v))
            intervals = nxt
        return intervals

    def gaps(self, level: int | None = None) -> list[tuple[float, float]]:
        """Removed middle intervals down to the given level, sorted: the
        spaces between consecutive surviving intervals."""
        return gaps_between(self.support_intervals(level))[1:-1]

    def atomize(self, level: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes/weights: mass centroids of the level intervals.

        By symmetry the centroid of the measure restricted to a surviving
        interval is its midpoint, so the midpoint rule here is the exact
        first-moment discretization.
        """
        intervals = self.support_intervals(level)
        pos = np.asarray([0.5 * (u + v) for (u, v) in intervals])
        w = np.full(len(intervals), self.mass / len(intervals))
        return pos, w

    def integrate(self, f: Callable, tol: float = 1e-10) -> complex:
        """Riemann-Stieltjes integral of f against the CDF, refined by level."""
        prev = None
        for level in range(min(6, self.depth), min(self.depth, 14) + 1):
            pos, w = self.atomize(level)
            val = complex(np.sum(w * np.asarray(f(pos))))
            if prev is not None and abs(val - prev) < max(tol, 1e-14):
                return val
            prev = val
        return prev


@dataclass(frozen=True)
class RealMeasure:
    """Finite positive Borel measure with explicit decomposition."""

    atoms: tuple[tuple[float, float], ...] = ()
    ac_pieces: tuple[AcPiece, ...] = ()
    sc_pieces: tuple[ScCantorPiece, ...] = ()

    def __post_init__(self):
        positions = [p for (p, _) in self.atoms]
        if len(set(positions)) != len(positions):
            raise PreconditionError("atom positions must be pairwise distinct")
        for (p, m) in self.atoms:
            if not (m > 0 and np.isfinite(m) and np.isfinite(p)):
                raise PreconditionError(f"atom ({p}, {m}) must have finite position and mass > 0")
        for piece in self.ac_pieces:
            # A non-finite density would send the mass integral round its
            # refinement loop until the panel budget is spent.
            inner = math.tan(0.5 * (math.atan(piece.left) + math.atan(piece.right)))
            if not np.all(np.isfinite(piece.density(np.asarray([inner])))):
                raise PreconditionError(
                    f"{piece.label} piece on ({piece.left}, {piece.right}) is not finite "
                    f"at t = {inner}")
            if not (piece.mass >= 0.0 and np.isfinite(piece.mass)):
                raise PreconditionError(
                    f"{piece.label} piece on ({piece.left}, {piece.right}) has mass "
                    f"{piece.mass}; a density piece must have finite mass >= 0")
        if not np.isfinite(self.total_mass()):
            raise PreconditionError("measure must be finite")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "RealMeasure":
        return RealMeasure()

    @staticmethod
    def from_atoms(atoms: Sequence[tuple[float, float]]) -> "RealMeasure":
        return RealMeasure(atoms=tuple((float(p), float(m)) for (p, m) in atoms))

    @staticmethod
    def point_mass(position: float, mass: float = 1.0) -> "RealMeasure":
        return RealMeasure.from_atoms([(position, mass)])

    @staticmethod
    def uniform(left: float, right: float, mass: float = None) -> "RealMeasure":
        """Constant density on a finite (left, right); defaults to density 1."""
        left, right = _interval("uniform", left, right, finite=True)
        form = _Uniform(left, right, right - left if mass is None else float(mass))
        piece = AcPiece(left, right, lambda t, h=form.height: np.full_like(np.asarray(t, float), h),
                        label="uniform", closed_form=form)
        return RealMeasure(ac_pieces=(piece,))

    @staticmethod
    def arcsine(left: float, right: float, mass: float = 1.0) -> "RealMeasure":
        """The arcsine law mass / (pi sqrt((t - left)(right - t))) on a finite
        (left, right)."""
        left, right = _interval("arcsine", left, right, finite=True)
        mass = float(mass)

        def density(t):
            t = np.asarray(t, float)
            return mass / (math.pi * np.sqrt(t - left) * np.sqrt(right - t))
        piece = AcPiece(left, right, density, -0.5, -0.5, label="arcsine",
                        closed_form=_Arcsine(left, right, mass))
        return RealMeasure(ac_pieces=(piece,))

    @staticmethod
    def poisson(left: float, right: float, mass: float = None) -> "RealMeasure":
        """Density c / (1 + t^2) on (left, right), ends possibly infinite;
        c is 1 unless a mass is given."""
        form = _Poisson(*_interval("poisson", left, right, finite=False), mass)
        piece = AcPiece(form.a, form.b, lambda t, c=form.c: c / (1.0 + t * t), label="poisson",
                        closed_form=form)
        return RealMeasure(ac_pieces=(piece,))

    @staticmethod
    def cantor(left: float = 0.0, right: float = 1.0, mass: float = 1.0,
               depth: int = 16, middle: float = 1.0 / 3.0) -> "RealMeasure":
        return RealMeasure(sc_pieces=(ScCantorPiece(left, right, mass, depth, middle),))

    def combined(self, other: "RealMeasure") -> "RealMeasure":
        return RealMeasure(atoms=self.atoms + other.atoms,
                           ac_pieces=self.ac_pieces + other.ac_pieces,
                           sc_pieces=self.sc_pieces + other.sc_pieces)

    # -- basic quantities ----------------------------------------------------

    def total_mass(self) -> float:
        return (sum(m for (_, m) in self.atoms)
                + sum(p.mass for p in self.ac_pieces)
                + sum(p.mass for p in self.sc_pieces))

    def singular_mass(self) -> float:
        """Mass of the part singular to Lebesgue measure (atoms + Cantor parts)."""
        return sum(m for (_, m) in self.atoms) + sum(p.mass for p in self.sc_pieces)

    def cdf(self, x: float) -> float:
        """mu((-inf, x]); right-continuous, nondecreasing."""
        x = float(x)
        total = sum(m for (p, m) in self.atoms if p <= x)
        for piece in self.ac_pieces:
            if x >= piece.right:
                total += piece.mass
            elif x > piece.left and piece.closed_form is not None:
                total += float(piece.closed_form.cdf(x))
            elif x > piece.left:
                total += float(_quad.integrate_domains(
                    lambda t, _owner: piece.density(t), piece.left, x,
                    p_left=piece.left_exponent, tol=1e-11)[0].real)
        for piece in self.sc_pieces:
            total += float(piece.cdf(x))
        return total

    def integrate(self, f: Callable, tol: float = 1e-10) -> complex:
        """Integral of f d(mu).  f must be vectorized; it should be bounded on
        the measure's support or decay like 1/(1+t^2) for infinite pieces."""
        total = 0.0 + 0.0j
        if self.atoms:
            pos = np.asarray([p for (p, _) in self.atoms])
            w = np.asarray([m for (_, m) in self.atoms])
            total += complex(np.sum(w * np.asarray(f(pos))))
        share = tol / max(1, len(self.ac_pieces) + len(self.sc_pieces))
        for piece in self.ac_pieces:
            total += piece.integrate(f, tol=share)
        for piece in self.sc_pieces:
            total += complex(piece.integrate(f, tol=share))
        if abs(total.imag) < 1e-300:
            return total.real
        return total

    # -- structure used by transforms and level sets --------------------------

    def support_hull(self) -> tuple[float, float] | None:
        """Smallest closed interval containing the support, None when empty."""
        ends = [p for (p, _) in self.atoms]
        ends += [e for piece in self.ac_pieces for e in (piece.left, piece.right)]
        ends += [e for piece in self.sc_pieces for e in (piece.left, piece.right)]
        if not ends:
            return None
        return (min(ends), max(ends))

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms plus the Cantor pieces discretized at SC_EVAL_LEVEL, merged
        and sorted (computed once)."""
        pos = [float(p) for (p, _) in self.atoms]
        w = [float(m) for (_, m) in self.atoms]
        for piece in self.sc_pieces:
            p_i, w_i = piece.atomize(SC_EVAL_LEVEL)
            pos.extend(p_i.tolist())
            w.extend(w_i.tolist())
        order = np.argsort(pos) if pos else np.zeros(0, dtype=int)
        return np.asarray(pos, dtype=float)[order], np.asarray(w, dtype=float)[order]


def gaps_between(blocks) -> list[tuple[float, float]]:
    """The open gaps of the line left by closed blocks (l, r), sorted, from
    -inf to +inf; blocks may overlap or be single points."""
    gaps, cursor = [], -math.inf
    for (l, r) in sorted(blocks):
        if l > cursor:
            gaps.append((cursor, l))
        cursor = max(cursor, r)
    if cursor < math.inf:
        gaps.append((cursor, math.inf))
    return gaps


# -- closed forms of the named density families ------------------------------------


def _interval(name: str, left, right, finite: bool) -> tuple[float, float]:
    left, right = float(left), float(right)
    if not left < right:
        raise PreconditionError(f"empty density interval ({left}, {right})")
    if finite and not (math.isfinite(left) and math.isfinite(right)):
        raise PreconditionError(f"the {name} density needs a finite interval, got ({left}, {right})")
    return left, right


def _log_ratio(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log((b - z)/(a - z)) off [a, b], a and b finite: 2 atanh(u) with
    u = (b - a)/((a - z) + (b - z)) where |u| <= 1/2, which keeps the digits
    of the small logarithm far from the interval, and the ratio form nearer
    it, where 1 -+ u would lose them."""
    u = (b - a) / ((a - z) + (b - z))
    near = np.abs(u) > 0.5
    out = 2.0 * np.arctanh(np.where(near, 0.0, u))
    out[near] = np.log((b - z[near]) / (a - z[near]))
    return out


class _ClosedForm:
    """Transforms of a named density piece rho of mass m on (a, b).

    ``g`` and ``dg`` give G(z) = int d(rho)(t) / (t - z) and G'(z) at real
    points off the support or at complex points.  The kernels are linear in
    (m, G, G'): the Cauchy kernel has coefficients (0, 1, 0); the
    representation kernel (1+tz)/(t-z) = z + (1+z^2)/(t-z) has (z, 1+z^2, 0),
    so it integrates to z m + H with H = (1+z^2) G; its derivative
    (1+t^2)/(t-z)^2 = 1 + 2z/(t-z) + (1+z^2)/(t-z)^2 has (1, 2z, 1+z^2), which
    is m + H'.  ``boundary`` gives G(x + i0) = p.v. G(x) + i pi rho'(x) inside
    (a, b), and ``cdf`` rho((a, x]) there.
    """

    def __init__(self, a: float, b: float, mass: float):
        self.a, self.b, self.mass = a, b, mass

    def representation(self, z):
        return z * self.mass + (1.0 + z * z) * self.g(z)

    def derivative(self, z):
        return self.mass + 2.0 * z * self.g(z) + (1.0 + z * z) * self.dg(z)


class _Uniform(_ClosedForm):
    """Height h = m / (b - a): G = h log((b-z)/(a-z)), G' = m / ((a-z)(b-z)),
    written as a product, which keeps its digits far away."""

    def __init__(self, a: float, b: float, mass: float):
        super().__init__(a, b, mass)
        self.height = mass / (b - a)

    def g(self, z):
        return self.height * _log_ratio(self.a, self.b, z)

    def dg(self, z):
        return self.mass / ((self.a - z) * (self.b - z))

    def boundary(self, x):
        return self.height * (np.log((self.b - x) / (x - self.a)) + 1j * math.pi)

    def cdf(self, x):
        return self.height * (x - self.a)


class _Arcsine(_ClosedForm):
    """G = -m / (sqrt(z-a) sqrt(z-b)) with principal roots, whose product
    is -sqrt((a-x)(b-x)) at a real x < a; G' = -G/2 (1/(z-a) + 1/(z-b)).
    The principal value inside is 0."""

    def g(self, z):
        z = np.asarray(z, dtype=complex)
        return -self.mass / (np.sqrt(z - self.a) * np.sqrt(z - self.b))

    def dg(self, z):
        za, zb = z - self.a, z - self.b
        return -0.5 * self.g(z) * (za + zb) / (za * zb)

    def boundary(self, x):
        return 1j * self.mass / (np.sqrt(x - self.a) * np.sqrt(self.b - x))

    def cdf(self, x):
        share = 2.0 / math.pi * math.asin(math.sqrt(min(x - self.a, self.b - x) / (self.b - self.a)))
        return self.mass * (share if x - self.a <= self.b - x else 1.0 - share)


class _Poisson(_ClosedForm):
    """Density c / (1 + t^2), ends possibly infinite.  The representation
    integral c [log((b-z)/(a-z)) + log|a - i| - log|b - i|] (an infinite
    end's terms drop out in the limit) and its derivative are regular at
    +-i and are used as they stand.  G = (that - z m) / (1 + z^2) cancels
    near +-i; within _SERIES_RADIUS of them G is summed from the Taylor
    series of that numerator instead."""

    def __init__(self, a: float, b: float, mass: float | None):
        span = math.atan(b) - math.atan(a)
        if not span > 0.0:
            raise PreconditionError(f"poisson density on ({a}, {b}) has no representable mass")
        mass = span if mass is None else float(mass)
        super().__init__(a, b, mass)
        self.c = mass / span
        self.shift = sum(s * math.log(math.hypot(1.0, e))
                         for e, s in ((a, 1.0), (b, -1.0)) if math.isfinite(e))

    def _log(self, z):
        """log((b-z)/(a-z)) with an infinite end's log|end| dropped."""
        a, b = self.a, self.b
        if math.isfinite(a) and math.isfinite(b):
            return _log_ratio(a, b, z)
        if math.isfinite(b):
            return np.log(z - b)
        if math.isfinite(a):
            return -np.log(a - z)
        return 1j * math.pi * np.sign(np.imag(z))

    def representation(self, z):
        return self.c * (self._log(z) + self.shift)

    def derivative(self, z):
        a, b = self.a, self.b
        if math.isfinite(a) and math.isfinite(b):
            return self.c * (b - a) / ((a - z) * (b - z))
        if math.isfinite(b):
            return self.c / (z - b)
        if math.isfinite(a):
            return self.c / (a - z)
        return np.zeros_like(z)

    def g(self, z):
        out = self.representation(z) - z * self.mass
        near = np.zeros(out.shape, dtype=bool)
        if np.iscomplexobj(z):
            i0 = np.where(z.imag > 0.0, 1j, -1j)
            near = np.abs(z - i0) < _SERIES_RADIUS
            out[near] = self._g_series(z[near], i0[near])
        # next to +-i, 1 + z^2 can be subnormal and the quotient overflow
        return np.divide(out, 1.0 + z * z, out=out, where=~near)

    def _g_series(self, z, i0):
        """G(z) = [c (p S(p w) - q S(q w)) - m] / (z + i0), w = z - i0, with
        p = 1/(a - i0), q = 1/(b - i0) (0 for an infinite end) and
        S(x) = sum_n x^n / (n + 1): the Taylor series at i0 of the numerator
        above, which vanishes there, divided by (z - i0)(z + i0).  |p w| and
        |q w| are at most _SERIES_RADIUS, as |t - i0| >= 1 on the axis."""
        w, total = z - i0, -self.mass + 0j
        for end, sign in ((self.a, 1.0), (self.b, -1.0)):
            if math.isfinite(end):
                p = 1.0 / (end - i0)
                s = np.zeros_like(w)
                for n in range(_SERIES_TERMS, 0, -1):
                    s = s * (p * w) + 1.0 / n
                total = total + sign * self.c * p * s
        return total / (z + i0)

    def boundary(self, x):
        a, b = self.a, self.b
        if math.isfinite(a) and math.isfinite(b):
            log = np.log((b - x) / (x - a))
        else:
            log = ((np.log(b - x) if math.isfinite(b) else 0.0)
                   - (np.log(x - a) if math.isfinite(a) else 0.0))
        return (self.c * (log + self.shift) - x * self.mass + 1j * math.pi * self.c) / (1.0 + x * x)

    def cdf(self, x):
        return self.c * (math.atan(x) - math.atan(self.a))


#: The poisson Cauchy transform takes its series within this distance of
#: +-i; with _SERIES_TERMS terms the series is exact to 0.25**30 ~ 1e-18.
_SERIES_RADIUS = 0.25
_SERIES_TERMS = 30


# -- kernel integrals -----------------------------------------------------------


def cauchy_kernel(t, z, w):
    """w / (t - z): the Cauchy kernel weighted by w."""
    return w / (t - z)


cauchy_kernel.closed_form = lambda form, z: form.g(z)  # (mass, G, G') coefficients (0, 1, 0)


def atom_sum(kernel: Callable, pos: np.ndarray, w: np.ndarray, z) -> np.ndarray:
    """sum_j kernel(pos_j, z_k, w_j) for every point z_k (result in the
    shape of z): one broadcast row per point, in chunks of at most
    _ATOM_CHUNK entries."""
    z = np.asarray(z)
    if not len(pos):
        return np.zeros(z.shape, dtype=np.result_type(z, float))
    flat = z.ravel()
    step = max(1, _ATOM_CHUNK // len(pos))
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = [kernel(pos[None, :], flat[i:i + step, None], w[None, :]).sum(axis=1)
                for i in range(0, max(1, len(flat)), step)]
    return (rows[0] if len(rows) == 1 else np.concatenate(rows)).reshape(z.shape)


def kernel_integral(mu: RealMeasure, kernel: Callable, z, start=0.0, tol: float = 1e-11,
                    pv: bool = False) -> np.ndarray:
    """start + integral of K(t, z_k) d(mu)(t) at every point z_k of a real
    or complex array (result in its shape and type).

    ``kernel(t, z, w)`` gives w * K(t, z).  Atoms and Cantor nodes pass
    their masses to atom_sum.  A named density piece (one with a
    ``closed_form``) gives every point the kernel's ``closed_form(form, z)``
    and, with ``pv``, G(x + i0) from ``form.boundary`` inside.  Any other
    density piece passes 1 to the kernel, multiplies by the density and
    integrates adaptively (``_quad.integrate_domains``), _POINTS_PER_CALL
    points per call, in which every point owns its panels; a point within
    _NEAR_END |e| of an end e of negative exponent is NaN, without
    quadrature.
    With ``pv`` (Cauchy kernel, real z) the result is G(x + i0): inside a
    piece, its principal value (one ``_quad.pv_cauchy`` call) plus
    i pi density(x); on a finite end where the density does not vanish, the
    vertical limit of Re G: +inf on a left end, -inf on a right one.  Pieces
    are added in order, and a point's value does not depend on the others.
    """
    z = np.asarray(z)
    total = start + atom_sum(kernel, *mu.nodes, z)
    flat = z.ravel()
    for piece in mu.ac_pieces:
        vals = np.empty(flat.shape, dtype=complex)
        ends = {e: s * math.inf for e, p, s in ((piece.left, piece.left_exponent, 1.0),
                                                 (piece.right, piece.right_exponent, -1.0))
                if pv and e in flat and (p < 0.0 or p == 0.0 and
                                         np.ravel(piece.density(np.asarray([e])))[0] != 0.0)}
        inside = ((piece.left < flat) & (flat < piece.right) if pv
                  else np.zeros(flat.shape, dtype=bool))
        skip = inside.copy()
        for end, value in ends.items():
            vals[flat == end], skip = value, skip | (flat == end)
        form = piece.closed_form if hasattr(kernel, "closed_form") else None
        if form is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals[~skip] = kernel.closed_form(form, flat[~skip])
                if inside.any():
                    vals[inside] = form.boundary(flat[inside])
        else:
            lost = np.zeros(flat.shape, dtype=bool)
            for e, p in ((piece.left, piece.left_exponent), (piece.right, piece.right_exponent)):
                if p < 0.0:
                    lost |= ~skip & (np.abs(flat - e) < _NEAR_END * abs(e))
            vals[lost] = math.nan
            idx = np.flatnonzero(~skip & ~lost)
            for i in range(0, len(idx), _POINTS_PER_CALL):
                chunk = idx[i:i + _POINTS_PER_CALL]
                vals[chunk] = _density_integral(piece, kernel, flat[chunk], tol)
            if inside.any():  # Plemelj: G(x + i0) = p.v. + i pi density(x)
                vals[inside] = (_quad.pv_cauchy(piece.density, piece.left, piece.right,
                                                flat[inside], tol, piece.left_exponent,
                                                piece.right_exponent)
                                + 1j * math.pi * piece.density(flat[inside]))
        with np.errstate(invalid="ignore"):  # inf - inf on an end two pieces share
            total = total + (vals if np.iscomplexobj(z) or pv else vals.real).reshape(z.shape)
    return total


def _density_integral(piece: AcPiece, kernel: Callable, z: np.ndarray, tol: float) -> np.ndarray:
    """Integral of K(t, z_k) against one density piece for a few points
    z_k, point k owning its panels.  A node that lands on a real z_k makes
    the kernel infinite there and the value NaN, without a warning (as in
    atom_sum)."""
    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        return kernel(t, z[k], 1.0) * piece.density(t)

    with np.errstate(divide="ignore", invalid="ignore"):
        return _quad.integrate_domains(f, piece.left, piece.right, len(z), piece.left_exponent,
                                       piece.right_exponent, tol)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint open intervals with its total length."""

    intervals: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def build(raw: Sequence[tuple[float, float]]) -> "IntervalSet":
        """Sort, drop empties, and merge overlapping or touching intervals."""
        cleaned = sorted((float(a), float(b)) for (a, b) in raw if b > a)
        merged: list[tuple[float, float]] = []
        for (a, b) in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalSet(intervals=tuple(merged))

    @property
    def total_length(self) -> float:
        return sum(b - a for (a, b) in self.intervals if np.isfinite(b - a))

    def to_record(self) -> dict:
        """Serialization used by the CLI outputs."""
        return {"intervals": [[a, b] for (a, b) in self.intervals],
                "total_length": self.total_length}

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)
