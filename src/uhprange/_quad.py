"""Adaptive panel quadrature used throughout the package.

A fixed 15-point Gauss-Legendre rule is applied per panel; a panel is
accepted when bisecting it changes the estimate by less than its share of
the absolute tolerance budget (shares proportional to panel length).
Integrands must be vectorized: ``f`` maps a 1-d ndarray of abscissae to an
ndarray of real or complex values.

Every integrator but ``pv_cauchy`` computes several integrals in one
adaptive pass as its *owners*, numbered 0..n-1: the integrand is called
as f(x, k) with the owner k of every abscissa x, and ``tol`` is a scalar
or one value per owner.  Each owner shares its own tolerance among its
own panels, refines and sums them in their own order, and so gets the
bits it would get in a pass of its own.

Infinite endpoints are folded to a bounded domain with t = tan(theta),
which suits integrands with 1/(1+t^2)-type decay.  Integrable endpoint
singularities of power type are removed with the substitution
t = a + u**(1/(1+p)).  Each substitution takes its Jacobian at the t that
a node rounds to, so that a density with a singular end, evaluated at that
t, agrees with it.  The rounding of t still bounds what can be resolved
next to such an end: points there are NaN, without quadrature, in
``pv_cauchy`` and in ``measures.kernel_integral``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

_EPS = float(np.finfo(float).eps)
#: Relative panel width below which refinement is abandoned.
_WIDTH_FLOOR = 4.0 * _EPS
#: Rounding of t near a singular end e, relative to |e|, in pv_cauchy.
_UNRESOLVED = 64.0 * _EPS
#: Rounding noise of a panel's estimates, and of an owner's absolute mass.
_PANEL_NOISE, _MASS_NOISE = 64.0 * _EPS, 128.0 * _EPS
#: Most passes of integrate_line_relative.
_LINE_ROUNDS = 4


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
    """t = tan(theta), with its Jacobian."""
    t = np.tan(theta)
    return t, 1.0 + t * t


def _half(end: float, mid: float, p: float, sign: float) -> tuple:
    if p >= 0.0:
        return (min(end, mid), max(end, mid), None)
    m = 1.0 / (1.0 + p)

    def power(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t = end + sign * u**m, with its Jacobian m u**(m-1) written in the
        rounded t: m (sign (t - end))**(1 - 1/m).  A t that rounds onto the
        end is moved to the next float inside, where the density is finite
        and the Jacobian is not 0."""
        t = end + sign * u**m
        t[t == end] = np.nextafter(end, sign * math.inf)
        return t, m * (sign * (t - end)) ** (1.0 - 1.0 / m)
    return (0.0, abs(mid - end) ** (1.0 / m), power)


def integrate_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float | np.ndarray = 1e-10,
    seeds: Sequence = ((),),
    max_panels: int = 10**6,
) -> np.ndarray:
    """Integrals of f(x, k) over (a, b), a < b, for every owner k in
    0..n-1 (complex array of length n); endpoints may be +-inf.

    ``seeds`` holds one sequence per owner, so n = len(seeds): interior
    points forced to be that owner's panel boundaries, which helps when
    the integrand has known kinks or sharp windows.  ``tol`` is a scalar
    or one value per owner.
    """
    if math.isinf(a) or math.isinf(b):
        (ta, tb, fold), = domains(a, b)
        mapped = [[math.atan(s) for s in own if np.isfinite(s)] for own in seeds]
        return integrate_interval(substituted(f, fold), ta, tb, tol, mapped, max_panels)

    edges = [[a] + sorted({float(s) for s in own if a < s < b}) + [b] for own in seeds]
    return integrate_pieces(f, [e for own in edges for e in own[:-1]],
                            [e for own in edges for e in own[1:]],
                            np.repeat(np.arange(len(edges)), [len(own) - 1 for own in edges]),
                            len(edges), tol=tol, max_panels=max_panels)


def substituted(f: Callable, sub: Callable | None) -> Callable:
    """The integrand f(t, ...) of a domain in the variable u of sub."""
    if sub is None:
        return f

    def g(u: np.ndarray, *owner) -> np.ndarray:
        t, jac = sub(u)
        return np.asarray(f(t, *owner)) * jac
    return g


def integrate_pieces(f: Callable, lo, hi, owner, n: int, tol: float | np.ndarray = 1e-10,
                     max_panels: int = 10**6) -> np.ndarray:
    """Integrals of f over finite pieces [lo_i, hi_i], summed per owner id
    in 0..n-1 (complex array of length n).  The integrand is called as
    f(x, k) with the owner k of every abscissa x.

    Every owner integrates to ``tol`` (a scalar, or one value per owner),
    shared among its pieces by length, with its own rounding floor and
    panel budget, and sums its panels in their own order, so its result
    does not depend on the other owners.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=int)
    total = np.zeros(n, dtype=complex)
    if not len(lo):
        return total
    tol = np.asarray(tol, dtype=float)
    budget = (tol[owner] if tol.ndim else tol) * (hi - lo) / np.bincount(
        owner, hi - lo, minlength=n)[owner]
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
        noise = _PANEL_NOISE * (abs_vals + abs_refined) + _MASS_NOISE * l1[owner]
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


def integrate_domains(f: Callable, a: float, b: float, n: int = 1, p_left: float = 0.0,
                      p_right: float = 0.0, tol: float = 1e-10) -> np.ndarray:
    """Integrals of f(t, k) over (a, b) for every owner k in 0..n-1 (complex
    array of length n), where f ~ (t-a)**p_left near a and ~ (b-t)**p_right
    near b with p > -1: integrate_pieces on each of the ``domains`` in
    order, to tol / len(domains) each."""
    parts = domains(a, b, p_left, p_right)
    total = np.zeros(n, dtype=complex)
    for lo, hi, sub in parts:
        if lo < hi:  # not a half of an interval one float wide
            total += integrate_pieces(substituted(f, sub), np.full(n, lo), np.full(n, hi),
                                      np.arange(n), n, tol=tol / len(parts))
    return total


def integrate_line_relative(
    f: Callable,
    rel_tol: float = 1e-9,
    seeds: Sequence = ((),),
) -> np.ndarray:
    """Line integrals of nonnegative integrands to a relative tolerance.

    The absolute tolerance an adaptive pass needs depends on the unknown
    magnitude of the result, so passes are repeated with the tolerance
    re-anchored to the previous estimate until it is consistent, at most
    _LINE_ROUNDS times.

    The integrand is called as f(x, k) for the owners k in 0..n-1, and
    ``seeds`` holds one sequence per owner, so n = len(seeds); the result
    is the array of the n integrals.  One magnitude probe serves every
    owner; each owner keeps its own re-anchored tolerance (the per-owner
    ``tol`` of ``integrate_pieces``) and stop rule, and each round
    integrates only the owners not yet consistent, as owners of one
    ``integrate_interval`` pass.  Every owner gets the bits of a call of
    its own.
    """
    n = len(seeds)
    if not n:
        return np.zeros(0)
    # Coarse magnitude probe so the first pass is not hopeless for
    # integrands spanning many orders of magnitude.
    base = np.tan(np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 257))
    probes = [np.concatenate([base, [s + d for s in own for d in (-1e-3, 0.0, 1e-3)]])
              for own in seeds]
    sizes = [len(p) for p in probes]
    fabs = np.abs(f(np.concatenate(probes), np.repeat(np.arange(n), sizes)))
    estimate = np.maximum(np.maximum.reduceat(fabs, np.cumsum([0] + sizes[:-1])), 1e-300)
    value = np.zeros(n)
    active = np.arange(n)
    for _ in range(_LINE_ROUNDS):
        abs_tol = np.maximum(rel_tol * estimate[active], 1e-300)
        got = integrate_interval(lambda x, k, active=active: f(x, active[k]), -math.inf,
                                 math.inf, tol=abs_tol, seeds=[seeds[k] for k in active]).real
        value[active] = got
        estimate[active] = np.maximum(np.abs(got), 1e-300)
        active = active[~(abs_tol <= rel_tol * estimate[active] * 1.5)]
        if not len(active):
            break
    return value


def pv_cauchy(f: Callable, a: float, b: float, x, tol: float = 1e-10,
              p_left: float = 0.0, p_right: float = 0.0):
    """Principal value of integral f(t)/(t-x) dt over (a, b) at a < x < b (a
    point or an array); f ~ (t-a)**p_left near a, (b-t)**p_right near b, p > -1.

    Splitting off f(x) (f(x)(1+x^2)/(1+t^2) with an infinite end) leaves a
    bounded difference quotient plus an elementary principal value.  With
    finite ends and exponents >= 0 point k owns the pieces [a, x_k] and
    [x_k, b] of one adaptive call; else each side takes one call per
    ``domains`` part, Jacobians taken where the rounded t lies.  A point's
    value does not depend on the others.  It is NaN, without quadrature,
    where rounding t near an end e of negative exponent (_UNRESOLVED |e|)
    moves the quotient's integral, ~|f(x)|, by more than tol |x - e|.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    fx = np.asarray(f(xs), dtype=float)
    lost = np.any([_UNRESOLVED * abs(e) * np.abs(fx) > tol * np.abs(xs - e)
                   for e, p in ((a, p_left), (b, p_right)) if p < 0.0], axis=0)
    if lost.any():
        val = np.full(xs.shape, math.nan)
        val[~lost] = pv_cauchy(f, a, b, xs[~lost], tol, p_left, p_right)
        return val if np.ndim(x) else float(val[0])
    n, finite = xs.size, math.isfinite(a) and math.isfinite(b)

    def quotient(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = t - xs[k]
        split = fx[k] if finite else fx[k] * (1.0 + xs[k] ** 2) / (1.0 + t * t)
        out = (np.asarray(f(t)) - split) / np.where(d == 0.0, 1.0, d)
        return np.where(d == 0.0, 0.0, out)

    if finite and p_left >= 0.0 and p_right >= 0.0:
        parts = [(None, np.concatenate([np.full(n, float(a)), xs]),
                  np.concatenate([xs, np.full(n, float(b))]), np.tile(np.arange(n), 2))]
    else:
        sides = ([domains(a, xk, p_left, 0.0) for xk in xs.tolist()],
                 [domains(xk, b, 0.0, p_right) for xk in xs.tolist()])
        parts = [(subs[0], lo, hi, np.arange(n)) for side in sides
                 for lo, hi, subs in (zip(*part) for part in zip(*side))]
    if finite:  # libm's log: numpy's vectorized log differs in the last bit on some inputs
        val = fx * np.asarray([math.log(r) for r in ((b - xs) / (xs - a)).tolist()])
    else:  # [log|t-x| - log(1+t^2)/2 - x atan t] from a to b: -+x pi/2 at t = +-inf
        val = fx * (sum(s * (np.log(np.abs(e - xs)) - 0.5 * math.log1p(e * e))
                        for s, e in ((1.0, b), (-1.0, a)) if math.isfinite(e))
                    - xs * (math.atan(b) - math.atan(a)))
    for sub, lo, hi, owner in parts:
        val = val + integrate_pieces(substituted(quotient, sub), lo, hi, owner, n,
                                     tol=tol / len(parts)).real
    return val if np.ndim(x) else float(val[0])
