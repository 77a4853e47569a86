"""Cauchy transforms G(z) = integral d(mu)(t) / (t - z).

Two sources are supported: an explicit measure, or the resolvent family
G_tau(z) = 1/(tau - phi(z)) attached to a half-plane self-map, which is
itself the Cauchy transform of a probability measure when beta = 1.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._roots import SegmentTable
from .errors import DomainError, PreconditionError
from .herglotz import PhiFunction, require_contraction
from .measures import RealMeasure, cauchy_kernel, cauchy_kernel_pair, kernel_integral


class CauchyTransform:
    """Callable transform, together with enough structure for level sets.
    Every evaluation takes one point or an array of points."""

    def __init__(self, *, measure: RealMeasure | None = None,
                 phi: PhiFunction | None = None, tau: float | None = None):
        if (measure is None) == (phi is None):
            raise PreconditionError("provide exactly one of measure or (phi, tau)")
        self.measure = measure
        self.phi = phi
        self.tau = tau
        if measure is not None:
            self.kind = "measure"
            self._pos, self._w = measure.nodes
            self.total_mass = measure.total_mass()
        else:
            self.kind = "phi_tau"
            require_contraction(phi)
            self.total_mass = 1.0

    # -- evaluation -----------------------------------------------------------

    def eval(self, z):
        """Value at z with Im z > 0."""
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(arr.imag <= 0):
            raise DomainError("eval requires Im z > 0")
        if self.kind == "phi_tau":
            out = 1.0 / (self.tau - self.phi._eval_complex(arr))
        else:
            out = kernel_integral(self.measure, cauchy_kernel, arr)
        return out if np.ndim(z) else complex(out[0])

    def __call__(self, z):
        return self.eval(z)

    def real_value(self, x, tol: float = 1e-10, slope: bool = False):
        """G at real x lying off the support (where the integral is proper).
        With ``slope`` (measure sources), the pair (G, G') in the shape of x
        from one cauchy_kernel_pair pass; G has the same bits either way."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "phi_tau":
            if slope:
                raise PreconditionError("real_value with slope needs a measure source")
            out = self._resolvent_re(arr)
        else:
            for piece in self.measure.ac_pieces:
                inside = arr[(piece.left <= arr) & (arr <= piece.right)]
                if len(inside):
                    raise DomainError(
                        f"real evaluation at {inside[0]} inside the support "
                        f"({piece.left}, {piece.right}); use boundary_re for principal values")
            if slope:
                return kernel_integral(self.measure, cauchy_kernel_pair, x, tol=tol)
            out = kernel_integral(self.measure, cauchy_kernel, arr, tol=tol)
        return out if np.ndim(x) else float(out[0])

    def boundary_re(self, x, slope: bool = False):
        """Re G(x + i0); principal value inside absolutely continuous support.
        With ``slope`` (measure sources), the pair (Re G, Re G') in the shape
        of x from one cauchy_kernel_pair pass, G' = d/dx G(x + i0) (NaN
        inside a piece without a closed form); Re G has the same bits
        either way."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "phi_tau":
            if slope:
                raise PreconditionError("boundary_re with slope needs a measure source")
            out = self._resolvent_re(arr)
        else:
            pos = self._pos  # sorted: the first atom not below a point is the one it may hit
            hit = arr[pos.take(np.searchsorted(pos, arr), mode="clip") == arr] if pos.size else []
            if len(hit):
                raise DomainError(f"Re G undefined exactly at a point mass ({hit[0]})")
            if slope:
                return tuple(v.real for v in self._boundary_pair(np.asarray(x, dtype=float)))
            out = self._boundary_pair(arr, slope=False)[0].real
        return out if np.ndim(x) else float(out[0])

    def _boundary_pair(self, x: np.ndarray, slope: bool = True):
        """(G, G') at x + i0 of a measure source, or (G, None); unchecked."""
        if slope:
            return kernel_integral(self.measure, cauchy_kernel_pair, x, tol=1e-10, pv=True)
        return kernel_integral(self.measure, cauchy_kernel, x, tol=1e-10, pv=True), None

    def _resolvent_re(self, x: np.ndarray) -> np.ndarray:
        return np.real(1.0 / (self.tau - self.phi.boundary(x)))

    # -- structure used by level-set code --------------------------------------

    def point_masses(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind != "measure":
            raise PreconditionError("point masses only available for measure sources")
        return self._pos, self._w

    @cached_property
    def segment_tables(self) -> list[SegmentTable]:
        """One table of F(x + i0) = -1/G(x + i0) per density segment cut at
        the nodes, built on first use and kept: F maps C+ to C+ (Bercovici and
        Voiculescu), so Re G > y (< -y) where F is in the disk over (-1/y, 0) ((0, 1/y))."""
        ends = np.union1d(self._pos, self.measure.density_segments).tolist()
        if not np.isfinite(ends).all():
            raise PreconditionError("density intervals must be finite for tail sets")
        return [SegmentTable((u, v), self._reciprocal) for u, v in zip(ends[:-1], ends[1:])
                if any(l <= u and v <= r for l, r in self.measure.density_segments)]

    def _reciprocal(self, x: np.ndarray) -> np.ndarray:
        """F(x + i0) = -1/G(x + i0) at real points."""
        return -1.0 / self._boundary_pair(x, slope=False)[0]


def cauchy_transform(mu: RealMeasure) -> CauchyTransform:
    """Cauchy transform of a finite positive measure."""
    return CauchyTransform(measure=mu)


def g_tau(phi: PhiFunction, tau: float) -> CauchyTransform:
    """The transform 1/(tau - phi); a probability Cauchy transform for beta = 1."""
    return CauchyTransform(phi=phi, tau=float(tau))
