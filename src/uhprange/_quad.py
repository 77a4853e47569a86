"""Adaptive panel quadrature used throughout the package.

A fixed 15-point Gauss-Legendre rule is applied per panel; a panel is
accepted when bisecting it changes the estimate by less than its share of
the absolute tolerance budget (shares proportional to panel length).
Integrands must be vectorized: ``f`` maps a 1-d ndarray of abscissae to an
ndarray of real or complex values.

Infinite endpoints are folded to a bounded domain with t = tan(theta),
which suits integrands with 1/(1+t^2)-type decay.  Integrable endpoint
singularities of power type are removed with the substitution
t = a + u**(1/(1+p)).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

#: Relative panel width below which refinement is abandoned.
_WIDTH_FLOOR = 4.0 * np.finfo(float).eps


def _gauss_batch(f: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """15-point Gauss value of f(x, owner) on each panel [lo_i, hi_i].  Not a
    matrix product: BLAS rounds a row differently with the number of rows."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel(), owner.repeat(len(_NODES)))).reshape(x.shape)
    return h * np.einsum("ij,j->i", y, _WEIGHTS)


def domains(a: float, b: float, p_left: float = 0.0, p_right: float = 0.0) -> list:
    """The domains on which an integral over (a, b) is computed: one
    tangent fold when an end is infinite, else the two halves, with the
    substitution t = end +- u**(1/(1+p)) at an end whose exponent p is
    negative.  Each is (lo, hi, sub): sub(u) gives (t, Jacobian), and is
    None where t = u."""
    if math.isinf(a) or math.isinf(b):
        ta = -0.5 * math.pi if math.isinf(a) else math.atan(a)
        tb = 0.5 * math.pi if math.isinf(b) else math.atan(b)
        return [(ta, tb, _tan_fold)]
    mid = 0.5 * (a + b)
    return [_half(a, mid, p_left, +1.0), _half(b, mid, p_right, -1.0)]


def _tan_fold(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.tan(theta)
    return t, 1.0 + t * t


def _half(end: float, mid: float, p: float, sign: float) -> tuple:
    if p >= 0.0:
        return (min(end, mid), max(end, mid), None)
    m = 1.0 / (1.0 + p)
    return (0.0, abs(mid - end) ** (1.0 / m),
            lambda u: (end + sign * u**m, m * u ** (m - 1.0)))


def integrate_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    seeds: Sequence[float] = (),
    max_panels: int = 10**6,
) -> complex:
    """Integrate f over (a, b); endpoints may be +-inf.

    ``seeds`` are interior points forced to be panel boundaries, which
    helps when the integrand has known kinks or sharp windows.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_interval(f, b, a, tol=tol, seeds=seeds, max_panels=max_panels)
    if math.isinf(a) or math.isinf(b):
        (ta, tb, fold), = domains(a, b)
        mapped_seeds = [math.atan(s) for s in seeds if np.isfinite(s)]
        return integrate_interval(substituted(f, fold), ta, tb, tol=tol, seeds=mapped_seeds,
                                  max_panels=max_panels)

    edges = [a] + sorted({float(s) for s in seeds if a < s < b}) + [b]
    total = integrate_pieces(lambda x, _owner: f(x), edges[:-1], edges[1:],
                             np.zeros(len(edges) - 1, dtype=int), 1,
                             tol=tol, max_panels=max_panels)[0]
    return total.real if abs(total.imag) < 1e-300 else total


def substituted(f: Callable, sub: Callable | None) -> Callable:
    """The integrand f(t, ...) of a domain in the variable u of sub."""
    if sub is None:
        return f

    def g(u: np.ndarray, *owner) -> np.ndarray:
        t, jac = sub(u)
        return np.asarray(f(t, *owner)) * jac
    return g


def integrate_pieces(f: Callable, lo, hi, owner, n: int, tol: float = 1e-10,
                     max_panels: int = 10**6) -> np.ndarray:
    """Integrals of f over finite pieces [lo_i, hi_i], summed per owner id
    in 0..n-1 (complex array of length n).  The integrand is called as
    f(x, k) with the owner k of every abscissa x.

    Every owner integrates to ``tol``, shared among its pieces by length,
    with its own rounding floor and panel budget, and sums its panels in
    their own order, so its result does not depend on the other owners.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=int)
    total = np.zeros(n, dtype=complex)
    if not len(lo):
        return total
    budget = tol * (hi - lo) / np.bincount(owner, hi - lo, minlength=n)[owner]
    vals = _gauss_batch(f, lo, hi, owner)
    abs_accum = np.zeros(n)
    n_panels = np.bincount(owner, minlength=n)
    while len(lo):
        if n_panels.max() > max_panels:
            raise QuadratureError(f"panel budget {max_panels} exhausted; "
                                  f"{len(lo)} panels still above tolerance")
        mid = 0.5 * (lo + hi)
        child_vals = _gauss_batch(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                                  np.concatenate([owner, owner]))
        left, right = child_vals.reshape(2, -1)
        refined = left + right
        err = np.abs(vals - refined)
        scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        # Differences at the rounding level of the integral's absolute mass
        # cannot be refined away; the effective tolerance is floored there.
        abs_vals, abs_refined = np.abs(vals), np.abs(refined)
        l1 = abs_accum + np.bincount(owner, abs_vals, minlength=n)
        noise = (64.0 * np.finfo(float).eps * (abs_vals + abs_refined)
                 + 128.0 * np.finfo(float).eps * l1[owner])
        done = (err <= np.maximum(budget, noise)) | (hi - lo < _WIDTH_FLOOR * scale)
        np.add.at(total, owner[done], refined[done])
        abs_accum += np.bincount(owner[done], abs_refined[done], minlength=n)
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        vals = np.concatenate([left[keep], right[keep]])
        budget = 0.5 * np.concatenate([budget[keep], budget[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        n_panels += np.bincount(owner, minlength=n)
    return total


def integrate_real_line(f: Callable, tol: float = 1e-10,
                        seeds: Sequence[float] = (), max_panels: int = 10**6) -> complex:
    """Integrate f over the whole real line (tan-folded)."""
    return integrate_interval(f, -math.inf, math.inf, tol=tol, seeds=seeds,
                              max_panels=max_panels)


def integrate_line_relative(
    f: Callable,
    rel_tol: float = 1e-9,
    seeds: Sequence[float] = (),
    max_rounds: int = 4,
) -> float:
    """Line integral of a nonnegative integrand to a relative tolerance.

    The absolute tolerance an adaptive pass needs depends on the unknown
    magnitude of the result, so passes are repeated with the tolerance
    re-anchored to the previous estimate until it is consistent.
    """
    # Coarse magnitude probe so the first pass is not hopeless for
    # integrands spanning many orders of magnitude.
    probe = np.tan(np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 257))
    if len(seeds):
        near = np.asarray([s + d for s in seeds for d in (-1e-3, 0.0, 1e-3)], dtype=float)
        probe = np.concatenate([probe, near])
    fmax = float(np.max(np.abs(f(probe))))
    estimate = max(fmax, 1e-300)
    for _ in range(max_rounds):
        abs_tol = max(rel_tol * estimate, 1e-300)
        value = integrate_interval(f, -math.inf, math.inf, tol=abs_tol, seeds=seeds)
        value = float(np.real(value))
        if abs_tol <= rel_tol * max(abs(value), 1e-300) * 1.5:
            return value
        estimate = max(abs(value), 1e-300)
    return value


def integrate_power_endpoint(
    f: Callable,
    a: float,
    b: float,
    p_left: float = 0.0,
    p_right: float = 0.0,
    tol: float = 1e-10,
    max_panels: int = 10**6,
) -> complex:
    """Integrate f over (a, b) where f ~ (t-a)^p_left near a and
    ~ (b-t)^p_right near b, with p > -1 (integrable), split into the
    ``domains`` that share the tolerance.

    Negative exponents are removed by substituting t = a + u**m with
    m = 1/(1+p), after which the transformed integrand is bounded; an
    infinite end is tangent-folded instead.
    """
    if not (p_left > -1.0 and p_right > -1.0):
        raise QuadratureError("endpoint exponents must be > -1 for integrability")
    parts = domains(a, b, p_left, p_right)
    total = 0.0 + 0.0j
    for lo, hi, sub in parts:
        total += integrate_interval(substituted(f, sub), lo, hi, tol=tol / len(parts),
                                    max_panels=max_panels)
    if abs(total.imag) < 1e-300:
        return total.real
    return total


def pv_cauchy(f: Callable, a: float, b: float, x, tol: float = 1e-10):
    """Principal value of integral f(t)/(t-x) dt over finite (a, b) for one
    point a < x < b, or an array of them.

    Splitting off f(x) leaves the bounded difference quotient
    (f(t)-f(x))/(t-x) plus the elementary principal value
    f(x)*log((b-x)/(x-a)), so no panel ever straddles a blowup.  All points
    share one adaptive call in which point k owns the pieces [a, x_k] and
    [x_k, b], so a point's value does not depend on the others.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"principal value needs a finite interval, not ({a}, {b})")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = xs.size
    fx = np.asarray(f(xs), dtype=float)

    def quotient(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = t - xs[k]
        out = (np.asarray(f(t)) - fx[k]) / np.where(d == 0.0, 1.0, d)
        return np.where(d == 0.0, 0.0, out)

    val = integrate_pieces(quotient, np.concatenate([np.full(n, float(a)), xs]),
                           np.concatenate([xs, np.full(n, float(b))]),
                           np.tile(np.arange(n), 2), n, tol=tol).real
    # libm's log: numpy's vectorized log differs from it in the last bit
    # on some inputs
    val = val + fx * np.asarray([math.log(r) for r in ((b - xs) / (xs - a)).tolist()])
    return val if np.ndim(x) else float(val[0])
