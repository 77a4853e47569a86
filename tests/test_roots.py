"""The root finder's contract: certified brackets, few evaluations,
batch invariance, and safety against a slope that lies."""

import math
import warnings

import numpy as np
import pytest

from uhprange import (NevanlinnaData, RealMeasure, cauchy_transform, constant_B,
                      phi_from_catalog, phi_from_nevanlinna)
from uhprange import levelset
from uhprange._roots import XTOL, BranchTable, bisect_increasing
from uhprange.clark import _DEFAULT_Y_GRID
from uhprange.levelset import tail_measures
from uhprange.range_analysis import default_grid

_EPS = np.finfo(float).eps


def _assert_contract(f, roots, targets, xtol):
    """f(x - d) < t <= f(x + d) with d = max(xtol, 8 eps |x|) at every root."""
    d = np.maximum(xtol, 8.0 * _EPS * np.abs(roots))
    assert np.all(np.asarray(f(roots - d)) < targets)
    assert np.all(targets <= np.asarray(f(roots + d)))


def _b_grid_targets(phi):
    grid = default_grid(phi)
    c, l = np.asarray(grid.centers)[:, None], 0.5 * np.asarray(grid.lengths)[None, :]
    return np.unique(np.concatenate([(c - l).ravel(), (c + l).ravel()]))


def test_branch_solves_take_few_evaluations(count_evals):
    """zloglin(5) over the ends of the default B grid: at most 8 evaluations
    of f per root, no more slope evaluations than f evaluations, and every
    root in a certified bracket."""
    phi = phi_from_catalog("zloglin", alpha=5.0)
    targets = _b_grid_targets(phi)
    for table in phi.branch_tables():
        f, slope = count_evals(table.f), count_evals(table.slope)
        roots = BranchTable(table.branch, f, slope).solve(targets)
        ok = ~np.isnan(roots)
        assert ok.sum() > 1000
        assert f.points <= 8 * ok.sum() and slope.points <= f.points
        _assert_contract(table.f, roots[ok], targets[ok], XTOL)


def _recording(monkeypatch, count_evals):
    """Replace levelset's root finder by one that counts and records."""
    calls = []

    def recorded(f, lo, hi, target, **kw):
        counted = count_evals(f)
        if kw.get("slope") is not None:
            kw["slope"] = count_evals(kw["slope"])
        roots = bisect_increasing(counted, lo, hi, target, **kw)
        calls.append((f, counted, kw, np.broadcast_to(target, roots.shape), roots))
        return roots

    monkeypatch.setattr(levelset, "bisect_increasing", recorded)
    return calls


def test_tail_sets_take_few_evaluations(monkeypatch, count_evals):
    """cantor(depth=9) over the default y grid: at most 8 evaluations of f
    per root, and every root in a certified bracket."""
    calls = _recording(monkeypatch, count_evals)
    tail_measures(cauchy_transform(RealMeasure.cantor(depth=9)), _DEFAULT_Y_GRID)
    (f, counted, kw, targets, roots), = [c for c in calls if c[4].size]
    assert roots.size > 9000
    assert counted.points <= 8 * roots.size and kw["slope"].points <= counted.points
    _assert_contract(f, roots, targets, kw["xtol"])


@pytest.mark.parametrize("lie", ["scaled", "zero", "nan", "negative"])
def test_lying_slope_keeps_the_contract(lie):
    """A slope scaled by 1e6, zero, NaN or of the wrong sign still gives
    certified roots within max_iter, without a RuntimeWarning."""
    phi = phi_from_catalog("zloglin", alpha=5.0)
    table = phi.branch_tables()[1]
    targets = np.linspace(-20.0, 30.0, 51)
    idx = np.searchsorted(table.ys, targets)
    assert np.all((idx > 0) & (idx < table.ys.size))
    lying = {"scaled": lambda x: 1e6 * table.slope(x), "zero": np.zeros_like,
             "nan": lambda x: np.full(x.shape, np.nan), "negative": lambda x: -table.slope(x)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = bisect_increasing(table.f, table.xs[idx - 1], table.xs[idx], targets,
                                  slope=lying[lie])
    _assert_contract(table.f, roots, targets, XTOL)


def test_tail_sets_batch_invariant():
    """Each level of cantor(depth=7) alone gives the bits of the batch."""
    G = cauchy_transform(RealMeasure.cantor(depth=7))
    ys = np.geomspace(1e2, 1e6, 9)
    alone = np.vstack([tail_measures(G, [y]) for y in ys])
    assert np.array_equal(tail_measures(G, ys), alone)


def test_branch_solve_batch_invariant_on_a_density_map():
    """1 + z + (uniform(0, 1, 0.5) + atom (2, 0.5)): each target alone gives
    the bits of the batch, on every branch."""
    rho = RealMeasure.uniform(0.0, 1.0, 0.5).combined(RealMeasure.point_mass(2.0, 0.5))
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, rho))
    targets = np.concatenate([np.linspace(-20.0, 20.0, 41),
                              np.random.default_rng(3).normal(0.0, 30.0, 40)])
    for table in phi.branch_tables():
        alone = np.concatenate([table.solve(targets[k:k + 1]) for k in range(targets.size)])
        assert np.array_equal(table.solve(targets), alone, equal_nan=True)


def test_constant_b_sqrt_accuracy():
    """sqrt on its default grid: B is attained at (-2^-11, 2^-11), whose
    preimage is (-sqrt(1 + 2^-22), -1) and (1, sqrt(1 + 2^-22)).  Within
    1e-8 of the reference that bisects every root to xtol 0
    (0.000244140612267, itself 7.5e-9 above the closed form), and within
    1e-12 of the closed form."""
    phi = phi_from_catalog("sqrt")
    est = constant_B(phi, default_grid(phi))
    assert est.argmin == (-2.0**-11, 2.0**-11)
    assert abs(est.value - 0.000244140612267) <= 1e-8 * 0.000244140612267
    exact = 2.0 * math.expm1(0.5 * math.log1p(2.0**-22)) / 2.0**-10
    assert abs(est.value - exact) <= 1e-12 * exact
