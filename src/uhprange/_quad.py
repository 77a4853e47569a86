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

For integrals of many kernels against one fixed weight, ``graded_rule``
builds a composite rule instead: the same 15-point rule on panels of each
domain that halve toward the ends of the interval.  ``clearance`` tells
for which points z the rule integrates a kernel singular only at t = z to
full precision.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

#: Relative panel width below which refinement is abandoned.
_WIDTH_FLOOR = 4.0 * np.finfo(float).eps
#: Rounding of t near a singular end e, relative to |e|, in pv_cauchy.
_UNRESOLVED = 64.0 * np.finfo(float).eps


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


class _TanFold:
    """t = tan(theta), with its Jacobian."""

    def __call__(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.tan(theta)
        return t, 1.0 + t * t

    def preimages(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """arctan(z) and its shifts by -+pi, where tan(theta) = z too: one
        of them is the nearest to any panel in [-pi/2, pi/2] (infinite
        for z = +-i, which has none)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.arctan(np.asarray(z, dtype=complex))
        return theta, theta - math.pi, theta + math.pi


_tan_fold = _TanFold()


class _Power:
    """t = end + sign * u**m, with its Jacobian."""

    def __init__(self, end: float, sign: float, m: float):
        self.end, self.sign, self.m = end, sign, m

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        end, sign, m = self.end, self.sign, self.m
        return end + sign * u**m, m * u ** (m - 1.0)

    def preimages(self, z: np.ndarray) -> tuple[np.ndarray]:
        """The principal u with t(u) = z, the one nearest the domain."""
        return ((self.sign * (np.asarray(z, dtype=complex) - self.end)) ** (1.0 / self.m),)


def _snapped(sub: Callable, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sub(u), with the Jacobian taken at the u that the rounded t stands for."""
    t = sub(u)[0]
    return t, sub(sub.preimages(t)[0].real)[1]


def _half(end: float, mid: float, p: float, sign: float) -> tuple:
    if p >= 0.0:
        return (min(end, mid), max(end, mid), None)
    m = 1.0 / (1.0 + p)
    return (0.0, abs(mid - end) ** (1.0 / m), _Power(end, sign, m))


#: Halvings by which a graded rule refines its panels toward an end: the
#: finest panel spans 2**-_GRADE_DEPTH of the part of the domain it grades.
_GRADE_DEPTH = 10

#: At a power-substituted end, the graded rule's nodes stay this fraction of
#: max(|end|, half length) away from the end in t, some 2**12 roundings of
#: t, so that no node rounds onto the end.
_SUB_NODE_FLOOR = 2.0**-40


def graded_rule(a: float, b: float, p_left: float = 0.0, p_right: float = 0.0) -> tuple:
    """Nodes t, weights w (Jacobian included) and panels of a composite rule
    for integrals over (a, b): the 15-point rule on panels of each of the
    ``domains``, halving toward every end of (a, b) that the domain touches
    (both ends of a tangent fold).  The panels are listed per domain as
    (edges, sub), for ``clearance``.

    At a power-substituted end the grading stops before a node's t would
    come within _SUB_NODE_FLOOR of the end, and each node's Jacobian is
    taken at the u that its rounded t stands for: a density with a
    singular end, evaluated at that t, then agrees with the Jacobian.
    """
    ts, ws, panels = [], [], []
    for lo, hi, sub in domains(a, b, p_left, p_right):
        depth = _GRADE_DEPTH
        if sub is None:
            graded = (lo == a, hi == b)
        elif isinstance(sub, _Power):
            graded = (True, False)
            # The first node of the finest panel, x0 * hi * 2**-depth, must
            # keep its t at least _SUB_NODE_FLOOR * max(|end|, hi**m) away.
            x0 = 0.5 * (1.0 + _NODES[0])
            floor = _SUB_NODE_FLOOR * max(abs(sub.end), hi**sub.m) / hi**sub.m
            depth = min(depth, max(0, math.floor(math.log2(x0) - math.log2(floor) / sub.m)))
        else:
            graded = (True, True)
        edges = _graded_edges(lo, hi, graded, depth)
        c, h = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        t = (c[:, None] + h[:, None] * _NODES).ravel()
        w = (h[:, None] * _WEIGHTS).ravel()
        if sub is not None:
            t, jac = _snapped(sub, t)
            w = w * jac
        ts.append(t)
        ws.append(w)
        panels.append((edges, sub))
    return np.concatenate(ts), np.concatenate(ws), panels


def _graded_edges(lo: float, hi: float, graded: tuple[bool, bool], depth: int) -> np.ndarray:
    """Panel edges of [lo, hi] halving geometrically toward the graded ends,
    down to 2**-depth of the length (of each half when both are graded)."""
    steps = 2.0 ** -np.arange(depth, -1, -1)  # 2**-depth, ..., 1/2, 1
    fracs = np.concatenate([[0.0], steps])
    if graded == (True, True):
        fracs = np.concatenate([0.5 * fracs, 1.0 - 0.5 * fracs[-2::-1]])
    elif graded == (False, True):
        fracs = 1.0 - fracs[::-1]
    return lo + (hi - lo) * fracs


def clearance(panels: list, z) -> np.ndarray:
    """For every point z_k (result in the shape of z): the least Bernstein
    parameter rho of a preimage of z_k under a domain's substitution with
    respect to a panel of that domain, NaN for a NaN point.  A preimage
    zeta lies on the ellipse with foci at the panel's ends and semi-axes
    summing to rho half-widths; the 15-point rule's error on a function
    analytic inside that ellipse falls like rho**-30."""
    z = np.asarray(z)
    out = np.full(z.shape, np.inf)
    for edges, sub in panels:
        lo, hi = edges[:-1], edges[1:]
        for zeta in ((z,) if sub is None else sub.preimages(z)):
            zeta = np.asarray(zeta)[..., None]
            a = (np.abs(zeta - lo) + np.abs(zeta - hi)) / (hi - lo)  # semi-major axis
            out = np.minimum(out, (a + np.sqrt(a * a - 1.0)).min(axis=-1))
    return out


def integrate_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    seeds: Sequence[float] = (),
    max_panels: int = 10**6,
) -> complex:
    """Integrate f over (a, b), a < b; endpoints may be +-inf.

    ``seeds`` are interior points forced to be panel boundaries, which
    helps when the integrand has known kinks or sharp windows.
    """
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
        g = substituted(quotient, sub and (lambda u, s=sub: _snapped(s, u)))
        val = val + integrate_pieces(g, lo, hi, owner, n, tol=tol / len(parts)).real
    return val if np.ndim(x) else float(val[0])
