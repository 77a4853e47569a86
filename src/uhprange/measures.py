"""Finite positive Borel measures on the line with an explicit Lebesgue
decomposition: point masses, absolutely continuous pieces given by a
density on an interval, and singular-continuous pieces realized as
depth-limited Cantor-type distribution functions.

The decomposition is part of the data, so singular mass is read off
rather than detected numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: A point is far from a density piece, and takes the piece's graded rule,
#: when its ``_quad.clearance`` from the rule's panels is at least this:
#: the rule's error then falls like 4**-30 ~ 1e-18.
_FAR_CLEARANCE = 4.0

#: A piece's graded rule is used only when it reproduces the piece's mass
#: to this relative tolerance; else its density has a feature (a kink, a
#: jump, a narrow peak) that the fixed panels do not resolve.
_RULE_MASS_TOL = 1e-12


@dataclass(frozen=True)
class AcPiece:
    """Absolutely continuous piece: a nonnegative density on (left, right).

    ``left_exponent``/``right_exponent`` declare power behaviour of the
    density at the endpoints (density ~ (t-left)**left_exponent, etc.);
    negative exponents > -1 flag integrable singularities that quadrature
    must remove by substitution.  Endpoints may be infinite, in which case
    the density must decay fast enough for the piece mass to be finite.
    """

    left: float
    right: float
    density: Callable[[np.ndarray], np.ndarray]
    left_exponent: float = 0.0
    right_exponent: float = 0.0
    label: str = "density"

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
        """The piece's mass, integrated to 1e-12 once, on first use."""
        return self.integrate(np.ones_like, tol=1e-12).real

    @cached_property
    def rule(self) -> tuple | None:
        """Nodes t, weights w * density(t) and panels of the piece's graded
        rule (``_quad.graded_rule``), computed once; None when the rule
        does not reproduce the piece's mass."""
        t, w, panels = _quad.graded_rule(self.left, self.right,
                                         self.left_exponent, self.right_exponent)
        w_rho = w * np.asarray(self.density(t), dtype=float)
        mass = self.mass
        if not abs(float(w_rho.sum()) - mass) <= _RULE_MASS_TOL * mass:
            return None
        return t, w_rho, panels


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
        """Constant density on (left, right); defaults to density 1."""
        height = (right - left if mass is None else mass) / (right - left)
        piece = AcPiece(left, right, lambda t, h=height: np.full_like(np.asarray(t, float), h),
                        label="uniform")
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


# -- kernel integrals -----------------------------------------------------------


def cauchy_kernel(t, z, w):
    """w / (t - z): the Cauchy kernel weighted by w."""
    return w / (t - z)


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
    their masses to atom_sum.  A density piece gives a point far from it
    (``_quad.clearance`` from the panels of the piece's graded rule at
    least _FAR_CLEARANCE) one atom_sum over the rule's nodes, weighted by
    the density.  A nearer point passes 1 to the kernel, multiplies by the
    density and is integrated adaptively (``_quad.integrate_domains``),
    _POINTS_PER_CALL points per call, in which every point owns its
    panels.  With ``pv`` (Cauchy kernel, real z) the result is G(x + i0):
    inside a piece, its principal value (one ``_quad.pv_cauchy`` call) plus
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
        far = np.zeros(flat.shape, dtype=bool)
        if piece.rule is not None:
            t, w_rho, panels = piece.rule
            far[~skip] = _quad.clearance(panels, flat[~skip]) >= _FAR_CLEARANCE
            vals[far] = atom_sum(kernel, t, w_rho, flat[far])
        idx = np.flatnonzero(~skip & ~far)
        for i in range(0, len(idx), _POINTS_PER_CALL):
            chunk = idx[i:i + _POINTS_PER_CALL]
            vals[chunk] = _density_integral(piece, kernel, flat[chunk], tol)
        if inside.any():  # Plemelj: G(x + i0) = p.v. + i pi density(x)
            vals[inside] = (_quad.pv_cauchy(piece.density, piece.left, piece.right, flat[inside],
                                            tol, piece.left_exponent, piece.right_exponent)
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
