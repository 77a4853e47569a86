import math

import numpy as np
import pytest

from uhprange import QuadratureError
from uhprange import _quad


def test_polynomial_exact():
    val = _quad.integrate_interval(lambda t: 3 * t**2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-12


def test_full_line_cauchy_weight():
    val = _quad.integrate_real_line(lambda t: 1.0 / (1.0 + t * t))
    assert abs(val - math.pi) < 1e-10


def test_half_line():
    val = _quad.integrate_interval(lambda t: np.exp(-t), 0.0, math.inf)
    assert abs(val - 1.0) < 1e-10


def test_complex_integrand():
    z = 2j
    val = _quad.integrate_interval(lambda t: 1.0 / (t - z), 0.0, 1.0)
    expect = np.log(1 - z) - np.log(-z)
    assert abs(val - expect) < 1e-10


def test_endpoint_inverse_sqrt():
    val = _quad.integrate_power_endpoint(
        lambda t: 1.0 / np.sqrt(np.abs(t)), 0.0, 1.0, p_left=-0.5)
    assert abs(val - 2.0) < 1e-10


def test_arcsine_mass():
    def dens(t):
        return 1.0 / (math.pi * np.sqrt(np.clip((1 - t) * (1 + t), 1e-300, None)))
    val = _quad.integrate_power_endpoint(dens, -1.0, 1.0, p_left=-0.5, p_right=-0.5)
    assert abs(val - 1.0) < 1e-10


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
        _quad.integrate_interval(lambda t: np.sin(1e6 * t) / np.maximum(t, 1e-300),
                                 0.0, 1.0, tol=1e-14, max_panels=64)


def test_seeded_kink():
    val = _quad.integrate_interval(lambda t: np.abs(t), -1.0, 2.0, seeds=[0.0])
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
        assert abs(alone[0] - sum(_quad.integrate_interval(f, a, b, tol=1e-13)
                                  for a, b in zip(lo[mine], hi[mine]))) < 1e-10
