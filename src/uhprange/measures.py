"""Finite positive Borel measures on the line with an explicit Lebesgue
decomposition: point masses, absolutely continuous pieces given by a
density on an interval, and singular-continuous pieces realized as
depth-limited Cantor-type distribution functions.

The decomposition is part of the data, so singular mass is read off
rather than detected numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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

_EPS = np.finfo(float).eps

#: The tree code (NodeTree).  A measure with at least _TREE_NODES nodes
#: sums them through a tree at the real points of their hull.  A leaf
#: cell's near zone, the cell widened _TREE_SEPARATION times about its
#: centre, holds at most _TREE_LEAF nodes, unless the cell is already
#: _TREE_MIN_CELL of the hull's magnitude wide.  _TREE_TERMS expansion
#: terms: far nodes lie beyond _TREE_SEPARATION half-widths of the centre
#: and a point within one, so the value's truncation is below r**p and the
#: slope's below (p + 1) r**(p - 1) of the direct sum's terms, r =
#: 1/_TREE_SEPARATION; p is the least that puts both below eps/8.
_TREE_NODES = 256
_TREE_LEAF = 32
_TREE_SEPARATION = 3.0
_TREE_MIN_CELL = 2.0**-40
_TREE_TERMS = next(p for p in range(2, 100)
                   if (p + 1) * _TREE_SEPARATION ** (1 - p) <= _EPS / 8)

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
    def density_segments(self) -> tuple[tuple[float, float], ...]:
        """The density support described once: the open intervals between
        consecutive ends of the a.c. pieces that some piece covers, sorted
        and disjoint, so that overlapping pieces are measured once."""
        ends = sorted({e for p in self.ac_pieces for e in (p.left, p.right)})
        return tuple((l, r) for l, r in zip(ends[:-1], ends[1:])
                     if any(p.left <= l and r <= p.right for p in self.ac_pieces))

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

    @cached_property
    def node_tree(self) -> "NodeTree | None":
        """The NodeTree of the nodes, where there are at least _TREE_NODES
        of them over a hull between 2**-900 and 2**900 wide (its cells'
        half-widths stay normal numbers), else None (built once, on first
        use)."""
        pos, w = self.nodes
        if pos.size < _TREE_NODES or not 2.0**-900 < pos[-1] - pos[0] < 2.0**900:
            return None
        return NodeTree(pos, w)


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
    (a, b), ``boundary_slope`` its derivative G'(x + i0), and ``cdf``
    rho((a, x]) there.
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

    def boundary_slope(self, x):
        return self.dg(x)

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

    def boundary_slope(self, x):
        xa, xb = x - self.a, x - self.b
        return -0.5 * self.boundary(x) * (xa + xb) / (xa * xb)

    def cdf(self, x):
        share = 2.0 / math.pi * math.asin(math.sqrt(min(x - self.a, self.b - x) / (self.b - self.a)))
        return self.mass * (share if x - self.a <= self.b - x else 1.0 - share)


class _Poisson(_ClosedForm):
    """Density c / (1 + t^2), ends possibly infinite.  The representation
    integral c [log((b-z)/(a-z)) + log|a - i| - log|b - i|] (an infinite
    end's terms drop out in the limit) and its derivative are regular at
    +-i and are used as they stand.  G = (that - z m) / (1 + z^2) cancels
    near +-i; within _SERIES_RADIUS of them G and G' are summed from the
    Taylor series of that numerator instead."""

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
        return self._near_i(out, z, 0)

    def dg(self, z):
        """G' = (H' - m - 2z G) / (1 + z^2), H' the representation's
        derivative; near +-i the series' derivative."""
        return self._near_i(self.derivative(z) - self.mass - 2.0 * z * self.g(z), z, 1)

    def _near_i(self, numerator, z, k):
        """numerator / (1 + z^2), but entry k of _g_series (G or G')
        within _SERIES_RADIUS of +-i."""
        near = np.zeros(numerator.shape, dtype=bool)
        if np.iscomplexobj(z):
            i0 = np.where(z.imag > 0.0, 1j, -1j)
            near = np.abs(z - i0) < _SERIES_RADIUS
            numerator[near] = self._g_series(z[near], i0[near])[k]
        # next to +-i, 1 + z^2 can be subnormal and the quotient overflow
        return np.divide(numerator, 1.0 + z * z, out=numerator, where=~near)

    def _g_series(self, z, i0):
        """(G, G'): G(z) = N(w) / (z + i0), w = z - i0, with
        N(w) = c (p S(p w) - q S(q w)) - m, p = 1/(a - i0), q = 1/(b - i0)
        (0 for an infinite end) and S(x) = sum_n x^n / (n + 1): the Taylor
        series at i0 of the numerator above, which vanishes there, divided
        by (z - i0)(z + i0); and G' = (N'(w) - G) / (z + i0).  |p w| and
        |q w| are at most _SERIES_RADIUS, as |t - i0| >= 1 on the axis."""
        w, total, dtotal = z - i0, -self.mass + 0j, 0j
        for end, sign in ((self.a, 1.0), (self.b, -1.0)):
            if math.isfinite(end):
                p = 1.0 / (end - i0)
                s, ds = np.zeros_like(w), np.zeros_like(w)
                for n in range(_SERIES_TERMS, 0, -1):  # Horner, with S' alongside
                    ds = ds * (p * w) + s
                    s = s * (p * w) + 1.0 / n
                total = total + sign * self.c * p * s
                dtotal = dtotal + sign * self.c * p * p * ds
        g = total / (z + i0)
        return g, (dtotal - g) / (z + i0)

    def boundary(self, x):
        a, b = self.a, self.b
        if math.isfinite(a) and math.isfinite(b):
            log = np.log((b - x) / (x - a))
        else:
            log = ((np.log(b - x) if math.isfinite(b) else 0.0)
                   - (np.log(x - a) if math.isfinite(a) else 0.0))
        return (self.c * (log + self.shift) - x * self.mass + 1j * math.pi * self.c) / (1.0 + x * x)

    def boundary_slope(self, x):
        return (self.derivative(x) - self.mass - 2.0 * x * self.boundary(x)) / (1.0 + x * x)

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


def _cauchy_weights(t, w):
    """The tree's weights v and constant c of the Cauchy kernels:
    sum_j w_j / (t_j - x) = c + sum_j v_j / (t_j - x), and the slopes alike."""
    return w, 0.0


cauchy_kernel.closed_form = lambda form, z: form.g(z)  # (mass, G, G') coefficients (0, 1, 0)
cauchy_kernel.boundary = lambda mass, x, g: g  # the Plemelj limit G(x + i0) itself
cauchy_kernel.tree = (_cauchy_weights, (0,))  # NodeTree.sums' weights and parts


def cauchy_kernel_derivative(t, z, w):
    """w / (t - z)^2: the Cauchy kernel's derivative in z."""
    return w / (t - z) ** 2


cauchy_kernel_derivative.closed_form = lambda form, z: form.dg(z)  # coefficients (0, 0, 1)
cauchy_kernel_derivative.boundary_slope = lambda form, x: form.boundary_slope(x)  # G'(x + i0)
cauchy_kernel_derivative.tree = (_cauchy_weights, (1,))


def cauchy_kernel_pair(t, z, w):
    """Yields q = w / (t - z), then q / (t - z), once q is summed."""
    d = t - z
    q = w / d
    yield q
    yield q / d


cauchy_kernel_pair.halves = (cauchy_kernel, cauchy_kernel_derivative)
cauchy_kernel_pair.tree = (_cauchy_weights, (0, 1))


def atom_sum(kernel: Callable, mu: RealMeasure, z):
    """sum_j kernel(t_j, z_k, w_j) over the nodes (t_j, w_j) of mu (atoms
    and Cantor nodes, ``mu.nodes``) for every point z_k (result in the shape
    of z).  A kernel with ``tree`` takes mu's NodeTree, where there is one,
    at real points in its hull; every other point takes one broadcast row,
    in chunks of at most _ATOM_CHUNK entries.  A kernel with ``halves``
    yields two arrays of entries, each summed on its own, and gives a pair
    of results."""
    z = np.asarray(z)
    flat, pair = z.ravel(), hasattr(kernel, "halves")
    tree = mu.node_tree if z.dtype.kind != "c" and hasattr(kernel, "tree") else None
    if tree is None:
        sums = _direct_sums(kernel, *mu.nodes, flat, pair)
    else:
        inside = tree.covers(flat)
        sums = np.empty((1 + pair, flat.size))
        sums[:, inside] = tree.sums(*kernel.tree, flat[inside])
        sums[:, ~inside] = _direct_sums(kernel, *mu.nodes, flat[~inside], pair)
    return tuple(total.reshape(z.shape) for total in sums) if pair else sums[0].reshape(z.shape)


def _direct_sums(kernel: Callable, pos: np.ndarray, w: np.ndarray, flat: np.ndarray,
                 pair: bool) -> list:
    """atom_sum's broadcast rows at the points of a flat array, one sum
    array per half."""
    sums = [np.empty(flat.size, complex if flat.dtype.kind == "c" else float)
            for _ in range(1 + pair)]
    step = max(1, _ATOM_CHUNK // max(1, len(pos)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, flat.size, step):
            rows = kernel(pos[None, :], flat[i:i + step, None], w[None, :])
            for total, row in zip(sums, rows if pair else (rows,)):
                np.add.reduce(row, axis=1, out=total[i:i + step])
    return sums


def _shift_matrices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """T with a_child = a_parent @ T for a child's left (-1) and right (+1)
    half: a polynomial sum_k a_k y^k in y = (x - c)/h, re-centred on
    c -+ h/2 and scaled by h/2, has coefficients
    sum_k a_k C(k, m) (-+1)^(k-m) 2^-k, all exact in binary."""
    k, m = np.arange(p)[:, None], np.arange(p)[None, :]
    binom = np.asarray([[math.comb(i, j) for j in range(p)] for i in range(p)], dtype=float)
    return tuple(binom * sign ** (k - m) * 2.0 ** -k for sign in (-1.0, 1.0))


_SHIFT = _shift_matrices(_TREE_TERMS)
_SHIFT_DIAGONAL = 2.0 ** -np.arange(_TREE_TERMS)
_SHIFT_OFF = tuple(t - np.diag(_SHIFT_DIAGONAL) for t in _SHIFT)


class NodeTree:
    """Tree code for sum_j v_j / (t_j - x) and sum_j v_j / (t_j - x)^2 over
    sorted nodes t_j at real x in their hull, the root cell, in the manner
    of Greengard and Rokhlin's fast multipole method (Dutt, Gu and Rokhlin
    treat the same one-dimensional Cauchy kernel).

    The cells bisect the root cell down to leaves (see _TREE_LEAF); the
    nodes in a cell's near zone are a contiguous range.  A point sums its
    leaf's near nodes directly and the others through the leaf's local
    expansion sum_k a_k u^k, u = (x - c)/h about the leaf's centre c, h its
    half-width, and that expansion's derivative.  A far node enters the
    expansion of the coarsest cell whose near zone excludes it, as
    a_k += v h^k / (t - c)^(k+1), and every cell passes its expansion to
    its children re-centred (_SHIFT).  The weights v and a constant added
    to the value come from a kernel's ``tree`` weights function; the
    geometry is built once and the expansions once per weights function.
    Every temporary holds at most _ATOM_CHUNK entries, and a point's sums
    take the same operations in any batch."""

    def __init__(self, pos: np.ndarray, w: np.ndarray):
        n = pos.size
        self.pos, self.w, self.lo, self.hi = pos, w, float(pos[0]), float(pos[-1])
        smallest = _TREE_MIN_CELL * max(abs(self.lo), abs(self.hi))
        # the root cell: half-width a power of 2 and centre on the grid of
        # 2**-8 of it, so that every cell's centre c -+ h is exact; a
        # rounded centre would misplace each expansion by an ulp of c,
        # which grows to eps |c| / h of its slope
        h = 2.0 ** math.ceil(math.log2(0.5 * (self.hi - self.lo) * (1.0 + 2.0**-6)))
        centre = np.asarray([round(0.5 * (self.lo + self.hi) / (h * 2.0**-8)) * h * 2.0**-8])
        near = np.asarray([[0, n]])
        leaf = near[:, 1] - near[:, 0] <= _TREE_LEAF
        # below the root, per level: the cells' centres, half-width, far
        # zones (the parent's near nodes less the cell's, two ranges a
        # cell) and leaf mask; the cells are the children of the last
        # level's cells that are not leaves, left then right
        self._levels = []
        leaves = [(centre[leaf], np.full(leaf.sum(), h), near[leaf])]
        self._root_leaves = int(leaf.sum())
        while not leaf.all():
            parent, h = np.repeat(near[~leaf], 2, axis=0), 0.5 * h
            centre = (centre[~leaf, None] + np.asarray([-h, h])).ravel()
            near = np.stack([np.searchsorted(pos, centre - _TREE_SEPARATION * h, "left"),
                             np.searchsorted(pos, centre + _TREE_SEPARATION * h, "right")], 1)
            zones = np.stack([parent[:, 0], near[:, 0], near[:, 1], parent[:, 1]], 1).reshape(-1, 2)
            leaf = (near[:, 1] - near[:, 0] <= _TREE_LEAF) | (0.5 * h < smallest)
            self._levels.append((centre, h, zones, leaf))
            leaves.append((centre[leaf], np.full(leaf.sum(), h), near[leaf]))
        centre, half, near = (np.concatenate(v) for v in zip(*leaves))
        self._order = np.argsort(centre)
        self.centre, self.half, near = centre[self._order], half[self._order], near[self._order]
        self.left = self.centre - self.half
        width = int((near[:, 1] - near[:, 0]).max())
        index = near[:, :1] + np.arange(width)
        # padding: a node at +inf of weight 0 adds 0 to both sums
        self._near = np.where(index < near[:, 1:], index, n)
        self.near_pos = np.append(pos, math.inf)[self._near]
        self._tables = {}

    def covers(self, x: np.ndarray) -> np.ndarray:
        return (self.lo <= x) & (x <= self.hi)

    def table(self, weights: Callable):
        """(near weights, (value, slope) expansion coefficients, constant)
        per leaf for ``weights(t, w) = (v, c)``, computed once.  Each
        coefficient is carried down the levels as an unevaluated sum
        hi + lo: the shift's diagonal is a power of 2, and the rounding of
        adding the rest and the far terms to it goes to lo, so that no
        level rounds the large low-order coefficients again."""
        if weights not in self._tables:
            v, const = weights(self.pos, self.w)
            hi = lo = np.zeros((1, _TREE_TERMS))
            rows = [hi[:self._root_leaves]]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for centre, h, zones, leaf in self._levels:
                    shifted = [np.stack([np.einsum("ck,km->cm", a, t) for t in m], 1).reshape(-1, _TREE_TERMS)
                               for a, m in ((hi, _SHIFT_OFF), (lo, _SHIFT))]
                    hi, err = _two_sum(np.repeat(hi * _SHIFT_DIAGONAL, 2, axis=0), shifted[0])
                    lo = shifted[1] + err
                    self._add_far(hi, lo, v, centre, h, zones)
                    rows.append(hi[leaf] + lo[leaf])
                    hi, lo = hi[~leaf], lo[~leaf]
            value = np.concatenate(rows)[self._order]
            slope = np.zeros_like(value)
            slope[:, :-1] = value[:, 1:] * np.arange(1, _TREE_TERMS) / self.half[:, None]
            self._tables[weights] = (np.append(v, 0.0)[self._near], (value, slope), const)
        return self._tables[weights]

    def _add_far(self, hi, lo, v, centre, h, zones):
        """Add to each cell's coefficients hi + lo the terms of its far
        zone's nodes, v h^k / (t - c)^(k+1), each zone summed pairwise,
        _ATOM_CHUNK entries at a time."""
        count = zones[:, 1] - zones[:, 0]
        ends = np.cumsum(count)
        step = _ATOM_CHUNK // _TREE_TERMS
        for a in range(0, int(ends[-1]), step):
            k = np.arange(a, min(a + step, int(ends[-1])))
            zone = np.searchsorted(ends, k, "right")
            node, cell = zones[zone, 0] + k - (ends[zone] - count[zone]), zone // 2
            d = self.pos[node] - centre[cell]
            terms = _powers(h / d)
            terms *= v[node] / d
            first = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
            rows = cell[first]
            hi[rows], err = _two_sum(hi[rows], np.add.reduceat(terms, first, axis=1).T)
            lo[rows] += err

    def sums(self, weights: Callable, parts: tuple, x: np.ndarray) -> np.ndarray:
        """The sums at real points x in the hull, one row per part: 0 the
        value c + sum v/(t - x), 1 the slope sum v/(t - x)^2.  A point on a
        node gets the direct sum's inf (or NaN), without a warning."""
        near_v, coef, const = self.table(weights)
        out = np.empty((len(parts), x.size))
        step = max(1, _ATOM_CHUNK // max(self.near_pos.shape[1], _TREE_TERMS))
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, x.size, step):
                xi = x[i:i + step]
                leaf = np.maximum(np.searchsorted(self.left, xi, "right") - 1, 0)
                d = self.near_pos[leaf]
                d -= xi[:, None]
                q = near_v[leaf]
                q /= d
                near = (q, np.divide(q, d, out=d) if 1 in parts else None)
                powers = _powers((xi - self.centre[leaf]) / self.half[leaf])
                # C order: each point's terms are one row, summed pairwise
                # along it, as in any batch
                terms = np.empty((xi.size, _TREE_TERMS))
                for row, part in enumerate(parts):
                    np.take(coef[part], leaf, axis=0, out=terms)
                    terms *= powers.T
                    out[row, i:i + step] = (np.add.reduce(near[part], axis=1)
                                            + np.add.reduce(terms, axis=1))
        if 0 in parts:
            out[parts.index(0)] += const
        return out


def _powers(u: np.ndarray) -> np.ndarray:
    """u**k for k < _TREE_TERMS, one row per k: each block of rows is the
    block below it times a square, so that row k takes about log2(k)
    roundings and the table log2(_TREE_TERMS) products."""
    out = np.empty((_TREE_TERMS, u.size))
    out[0], out[1] = 1.0, u
    n = 2
    while n < _TREE_TERMS:
        top = min(2 * n, _TREE_TERMS)
        np.multiply(out[:top - n], out[n // 2] * out[n // 2], out=out[n:top])
        n = top
    return out


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def kernel_integral(mu: RealMeasure, kernel: Callable, z, start=0.0, tol: float = 1e-11,
                    pv: bool = False):
    """start + integral of K(t, z_k) d(mu)(t) at every point z_k of a real
    or complex array (result in its shape and type), ``kernel(t, z, w)``
    giving w * K(t, z): the one pass over mu of every measure transform.
    Atoms and Cantor nodes pass their masses to atom_sum.  A named density
    piece (one with a ``closed_form``) gives every point the kernel's
    ``closed_form(form, z)``.  Any other density piece passes 1 to the
    kernel, multiplies by the density and integrates adaptively
    (``_quad.integrate_domains``), _POINTS_PER_CALL points per call, in
    which every point owns its panels; a point within _NEAR_END |e| of an
    end e of negative exponent is NaN, without quadrature.
    With ``pv`` (real z) the result is the Plemelj limit from above:
    inside a piece ``kernel.boundary(mass, x, G(x + i0))``, G(x + i0) =
    p.v. + i pi density(x) from ``form.boundary`` or one ``_quad.pv_cauchy``
    call (G for the Cauchy kernel, x m + (1+x^2) G for the representation
    kernel); on a finite end where the density does not vanish, +inf on a
    left end and -inf on a right one, and where it vanishes the integral
    (_plemelj).  A kernel with ``boundary_slope`` (cauchy_kernel_derivative)
    gives G'(x + i0) inside a named piece, and NaN inside any other piece
    and on every end.  Pieces are added in order, and a point's value does
    not depend on the others.  A kernel with ``halves`` (a kernel and its
    derivative, as cauchy_kernel_pair) gives (value, slope) from one
    atom_sum pass, each piece taking each half; ``start`` is a pair or one
    number for both; the value has the first half's bits.
    """
    z = np.asarray(z)
    sums = atom_sum(kernel, mu, z)
    if not hasattr(kernel, "halves"):
        return _add_pieces(mu, kernel, z, start + sums, tol, pv)
    value, slope = kernel.halves
    v, d = start if isinstance(start, tuple) else (start, start)
    return (_add_pieces(mu, value, z, v + sums[0], tol, pv),
            _add_pieces(mu, slope, z, d + sums[1], tol, pv))


def _add_pieces(mu: RealMeasure, kernel: Callable, z: np.ndarray, total, tol: float, pv: bool):
    for piece in mu.ac_pieces:
        vals = _piece_values(piece, kernel, z.ravel(), tol, pv)
        with np.errstate(invalid="ignore"):  # inf - inf on an end two pieces share
            total = total + (vals if np.iscomplexobj(z) or pv else vals.real).reshape(z.shape)
    return total


def _piece_values(piece: AcPiece, kernel: Callable, flat: np.ndarray, tol: float,
                  pv: bool) -> np.ndarray:
    """The integral of K(t, z_k) against one density piece at every point
    of a flat array, as complex numbers (see kernel_integral)."""
    vals = np.empty(flat.shape, dtype=complex)
    on = (piece.left <= flat) & (flat <= piece.right) if pv else np.zeros(flat.shape, dtype=bool)
    form = piece.closed_form if hasattr(kernel, "closed_form") else None
    if form is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[~on] = kernel.closed_form(form, flat[~on])
    else:
        lost = np.zeros(flat.shape, dtype=bool)
        for e, p in ((piece.left, piece.left_exponent), (piece.right, piece.right_exponent)):
            if p < 0.0:
                lost |= ~on & (np.abs(flat - e) < _NEAR_END * abs(e))
        vals[lost] = math.nan
        idx = np.flatnonzero(~on & ~lost)
        for i in range(0, len(idx), _POINTS_PER_CALL):
            chunk = idx[i:i + _POINTS_PER_CALL]
            vals[chunk] = _density_integral(piece, kernel, flat[chunk], tol)
    if on.any():
        vals[on] = _plemelj(piece, kernel, form, flat[on], tol)
    return vals


def _plemelj(piece: AcPiece, kernel: Callable, form, x: np.ndarray, tol: float) -> np.ndarray:
    """The limits from above at points x of the piece's closed interval
    (see kernel_integral).  On an end e where the density vanishes the
    integrand goes as (t - e)**(p - 1), p > 0 the end's exponent: it takes
    that power's substitution (-1/2's for p = 0), as a node on e gives 0 inf."""
    vals, inside = np.full(x.shape, math.nan, dtype=complex), (piece.left < x) & (x < piece.right)
    if hasattr(kernel, "boundary_slope"):  # G'(x + i0) of a named piece, else NaN
        if form is not None and inside.any():
            vals[inside] = kernel.boundary_slope(form, x[inside])
        return vals
    for e, p, s in ((piece.left, piece.left_exponent, 1.0), (piece.right, piece.right_exponent, -1.0)):
        at = x == e
        if at.any() and (p < 0.0 or np.ravel(piece.density(np.asarray([e])))[0] != 0.0):
            vals[at] = s * math.inf
        elif at.any():
            end = {"left_exponent" if s > 0.0 else "right_exponent": p - 1.0 if p > 0.0 else -0.5}
            vals[at] = _density_integral(replace(piece, **end), kernel, x[at][:1], tol)[0]
    if inside.any():  # Plemelj: G(x + i0) = p.v. + i pi density(x)
        xi = x[inside]
        g = (form.boundary(xi) if form is not None else
             _quad.pv_cauchy(piece.density, piece.left, piece.right, xi, tol, piece.left_exponent,
                             piece.right_exponent) + 1j * math.pi * piece.density(xi))
        vals[inside] = kernel.boundary(piece.mass, xi, g)
    return vals


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


def join_rows(rows: np.ndarray) -> np.ndarray:
    """Rows (k, u, v) sorted by query k and u, each row that touches or
    overlaps the one before joined to it (no row holds another), as
    IntervalSet.build joins a query's intervals: a query's widths, summed
    in order, are its set's total_length."""
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    tail = np.append(False, (rows[1:, 0] == rows[:-1, 0]) & (rows[1:, 1] <= rows[:-1, 2]))
    start, last = ~tail[:len(rows)], np.append(~tail[1:], True)[:len(rows)]
    return np.column_stack([rows[start, 0], rows[start, 1], rows[last, 2]])
