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
#: atom sum, and points per adaptive call of a density piece.
_ATOM_CHUNK = 4_000_000
_POINTS_PER_CALL = 8


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
        def g(t: np.ndarray) -> np.ndarray:
            return np.asarray(f(t)) * np.asarray(self.density(t))

        return _quad.integrate_power_endpoint(
            g, self.left, self.right,
            p_left=self.left_exponent, p_right=self.right_exponent, tol=tol)

    def mass(self, tol: float = 1e-12) -> float:
        return float(np.real(self.integrate(lambda t: np.ones_like(t), tol=tol)))


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
    _ac_masses: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        positions = [p for (p, _) in self.atoms]
        if len(set(positions)) != len(positions):
            raise PreconditionError("atom positions must be pairwise distinct")
        for (p, m) in self.atoms:
            if not (m > 0 and np.isfinite(m) and np.isfinite(p)):
                raise PreconditionError(f"atom ({p}, {m}) must have finite position and mass > 0")
        if not self._ac_masses:
            masses = tuple(piece.mass() for piece in self.ac_pieces)
            object.__setattr__(self, "_ac_masses", masses)
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
                + sum(self._ac_masses)
                + sum(p.mass for p in self.sc_pieces))

    def singular_mass(self) -> float:
        """Mass of the part singular to Lebesgue measure (atoms + Cantor parts)."""
        return sum(m for (_, m) in self.atoms) + sum(p.mass for p in self.sc_pieces)

    def cdf(self, x: float) -> float:
        """mu((-inf, x]); right-continuous, nondecreasing."""
        x = float(x)
        total = sum(m for (p, m) in self.atoms if p <= x)
        for piece, mass in zip(self.ac_pieces, self._ac_masses):
            if x >= piece.right:
                total += mass
            elif x > piece.left:
                total += float(np.real(_quad.integrate_power_endpoint(
                    piece.density, piece.left, x,
                    p_left=piece.left_exponent, p_right=0.0, tol=1e-11)))
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
            total += complex(piece.integrate(f, tol=share))
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
    their masses to atom_sum; a density piece passes 1, multiplies by the
    density and is integrated over its ``_quad.domains`` (as
    AcPiece.integrate splits it), _POINTS_PER_CALL points per adaptive
    call, in which every point owns its panels.  With ``pv`` (for the
    Cauchy kernel), real points strictly inside a piece take the principal
    value instead.  Pieces are added in order, and a point's value does not
    depend on the other points.
    """
    z = np.asarray(z)
    total = start + atom_sum(kernel, *mu.nodes, z)
    flat = z.ravel()
    for piece in mu.ac_pieces:
        vals = np.empty(flat.shape, dtype=complex)
        inside = ((piece.left < flat) & (flat < piece.right) if pv
                  else np.zeros(flat.shape, dtype=bool))
        for principal, idx in ((False, np.flatnonzero(~inside)), (True, np.flatnonzero(inside))):
            for i in range(0, len(idx), _POINTS_PER_CALL):
                chunk = idx[i:i + _POINTS_PER_CALL]
                vals[chunk] = (_quad.pv_cauchy(piece.density, piece.left, piece.right,
                                               flat[chunk], tol=tol) if principal
                               else _density_integral(piece, kernel, flat[chunk], tol))
        total = total + (vals if np.iscomplexobj(z) else vals.real).reshape(z.shape)
    return total


def _density_integral(piece: AcPiece, kernel: Callable, z: np.ndarray, tol: float) -> np.ndarray:
    """Integral of K(t, z_k) against one density piece for a few points
    z_k: the sum of its domains in order, point k owning its panels."""
    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        return kernel(t, z[k], 1.0) * piece.density(t)

    parts = _quad.domains(piece.left, piece.right, piece.left_exponent, piece.right_exponent)
    total, n = 0.0, len(z)
    for lo, hi, sub in parts:
        total = total + _quad.integrate_pieces(_quad.substituted(f, sub), np.full(n, lo),
                                               np.full(n, hi), np.arange(n), n,
                                               tol=tol / len(parts))
    return total


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
