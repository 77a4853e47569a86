import math
import warnings

import numpy as np
import pytest

from uhprange import QuadratureError
from uhprange import _quad


def test_polynomial_exact():
    val, = _quad.integrate_interval(lambda t, _k: 3 * t**2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-12


def test_full_line_cauchy_weight():
    val, = _quad.integrate_interval(lambda t, _k: 1.0 / (1.0 + t * t), -math.inf, math.inf)
    assert abs(val - math.pi) < 1e-10


def test_half_line():
    val, = _quad.integrate_interval(lambda t, _k: np.exp(-t), 0.0, math.inf)
    assert abs(val - 1.0) < 1e-10


def test_complex_integrand():
    z = 2j
    val, = _quad.integrate_interval(lambda t, _k: 1.0 / (t - z), 0.0, 1.0)
    expect = np.log(1 - z) - np.log(-z)
    assert abs(val - expect) < 1e-10


def test_endpoint_inverse_sqrt():
    val, = _quad.integrate_domains(
        lambda t, _k: 1.0 / np.sqrt(np.abs(t)), 0.0, 1.0, p_left=-0.5)
    assert abs(val - 2.0) < 1e-10


def _arcsine(t):
    return 1.0 / (math.pi * np.sqrt(np.clip((1 - t) * (1 + t), 1e-300, None)))


def test_arcsine_mass():
    val, = _quad.integrate_domains(lambda t, _k: _arcsine(t), -1.0, 1.0,
                                   p_left=-0.5, p_right=-0.5)
    assert abs(val - 1.0) < 1e-10


def test_domains_independent_of_other_owners():
    """n owners in one call equal n one-owner calls bit for bit, on an
    interval with both ends power-substituted."""
    zs = np.asarray([0.3 + 1e-2j, -0.9 + 0.5j, 2.0 + 0.0j, 3j, 0.99 + 1e-3j])

    def f(z):
        return lambda t, k: _arcsine(t) / (t - z[k])

    together = _quad.integrate_domains(f(zs), -1.0, 1.0, len(zs), -0.5, -0.5, tol=1e-11)
    alone = [_quad.integrate_domains(f(zs[k:k + 1]), -1.0, 1.0, 1, -0.5, -0.5, tol=1e-11)[0]
             for k in range(len(zs))]
    assert together.tobytes() == np.asarray(alone).tobytes()


def test_domains_of_an_interval_one_float_wide():
    # one half of the interval is empty and adds nothing, without a warning
    a, b = 0.3, math.nextafter(0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, = _quad.integrate_domains(lambda t, _k: np.ones_like(t), a, b)
    assert abs(val - (b - a)) < 1e-30


def test_pv_log_ratio():
    # p.v. of 1/(t-x) over (0, 1) is log((1-x)/x)
    for x in (0.25, 0.5, 0.9, 0.999):
        val = _quad.pv_cauchy(lambda t: np.ones_like(t), 0.0, 1.0, x)
        assert abs(val - math.log((1 - x) / x)) < 1e-9


def test_pv_smooth_density():
    # p.v. of t/(t-x) over (-1, 1) = 2 + x*log((1-x)/(1+x))
    x = 0.3
    val = _quad.pv_cauchy(lambda t: t, -1.0, 1.0, x)
    assert abs(val - (2.0 + x * math.log((1 - x) / (1 + x)))) < 1e-9


def test_panel_budget_error():
    with pytest.raises(QuadratureError):
        _quad.integrate_interval(lambda t, _k: np.sin(1e6 * t) / np.maximum(t, 1e-300),
                                 0.0, 1.0, tol=1e-14, max_panels=64)


def test_seeded_kink():
    val, = _quad.integrate_interval(lambda t, _k: np.abs(t), -1.0, 2.0, seeds=[[0.0]])
    assert abs(val - 2.5) < 1e-12


def test_pieces_independent_of_other_owners():
    f = lambda t, _owner=None: np.exp(np.sin(3 * t)) / (1 + t * t)
    rng = np.random.default_rng(4)
    lo = rng.uniform(-4, 4, 30)
    hi = lo + rng.uniform(0.01, 3, 30)
    owner = rng.integers(0, 6, 30)
    together = _quad.integrate_pieces(f, lo, hi, owner, 7, tol=1e-11)
    assert together[6] == 0.0
    for k in range(6):
        mine = owner == k
        alone = _quad.integrate_pieces(f, lo[mine], hi[mine], np.zeros(mine.sum(), int), 1,
                                       tol=1e-11)
        assert alone[0] == together[k]
        assert abs(alone[0] - sum(_quad.integrate_interval(f, a, b, tol=1e-13)[0]
                                  for a, b in zip(lo[mine], hi[mine]))) < 1e-10


def test_pv_infinite_ends():
    # f = 1/(1+t^2) is its own split-off part, so the principal value over
    # the line is the bracket alone: -pi x / (1+x^2)
    f = lambda t: 1.0 / (1.0 + t * t)
    xs = np.asarray([-3.0, -0.5, 0.25, 2.0])
    whole = _quad.pv_cauchy(f, -math.inf, math.inf, xs)
    assert np.all(np.abs(whole + math.pi * xs / (1.0 + xs * xs)) <= 1e-15)
    # over (0, inf): the bracket [log|t-x| - log(1+t^2)/2 - x atan t] from
    # 0 to inf is -x pi/2 - log x
    x = 2.0
    half = _quad.pv_cauchy(f, 0.0, math.inf, x)
    assert abs(half + (0.5 * math.pi * x + math.log(x)) / (1.0 + x * x)) < 1e-15


def test_pieces_per_owner_tol_equals_one_owner_calls():
    f = lambda t, k: np.exp(np.sin((3 + k) * t)) / (1 + t * t)
    rng = np.random.default_rng(9)
    lo = rng.uniform(-4, 4, 24)
    hi = lo + rng.uniform(0.01, 3, 24)
    owner = rng.integers(0, 4, 24)
    tol = np.asarray([1e-6, 1e-13, 1e-9, 1e-11])
    together = _quad.integrate_pieces(f, lo, hi, owner, 4, tol=tol)
    for k in range(4):
        mine = owner == k
        alone = _quad.integrate_pieces(lambda t, _k: f(t, k), lo[mine], hi[mine],
                                       np.zeros(mine.sum(), int), 1, tol=tol[k])
        assert alone.tobytes() == together[k:k + 1].tobytes()
    # a scalar tol is the same tol for every owner
    same = _quad.integrate_pieces(f, lo, hi, owner, 4, tol=1e-10)
    assert same.tobytes() == _quad.integrate_pieces(f, lo, hi, owner, 4,
                                                    tol=np.full(4, 1e-10)).tobytes()


def test_line_relative_owners_equal_single_calls():
    """Owners of very different magnitudes and windows, some of which take
    more re-anchoring rounds than others, each get the bits of a call of
    their own."""
    scales = np.asarray([1e-3, 1.0, 1e12, 3.0, 1e-30])
    centers = np.asarray([0.5, 5.0, -2.0, 40.0, 0.0])
    widths = np.asarray([1.0, 0.3, 2.0, 1e-2, 1e-3])
    # the first owner is broad and unseeded; the others have their windows seeded
    seeds = [[c - 6.0 * w, c + 6.0 * w] if k else []
             for k, (c, w) in enumerate(zip(centers, widths))]

    def f(x, k):
        return scales[k] * (1e-6 / (1.0 + x * x) + np.exp(-((x - centers[k]) / widths[k]) ** 2))

    together = _quad.integrate_line_relative(f, rel_tol=1e-9, seeds=seeds)
    for k in range(len(scales)):
        alone, = _quad.integrate_line_relative(lambda x, _k: f(x, np.full(x.shape, k)),
                                               rel_tol=1e-9, seeds=[seeds[k]])
        assert together[k] == alone
        expect = scales[k] * (1e-6 * math.pi + math.sqrt(math.pi) * widths[k])
        assert abs(alone - expect) <= 1e-8 * expect
