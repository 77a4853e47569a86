"""The root finder's contract: certified brackets, few evaluations,
batch invariance, and safety against a slope that lies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhprange import (AcPiece, NevanlinnaData, RealMeasure, boole_check, cauchy_transform,
                      clark_atoms, constant_B, phi_from_catalog, phi_from_nevanlinna,
                      phi_identity)
from uhprange import _roots, levelset
from uhprange._roots import (SOLVE_SLICE, XTOL, BranchTable, _next_point, _safeguarded_point,
                             bisect_increasing, solve_tables)
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
    """zloglin(5) over the ends of the default B grid: at most 4.5
    evaluations of the branch table's (f, f') callable per root, the
    table's probes included (midpoint starts took 5.4), and every root in a
    certified bracket."""
    phi = phi_from_catalog("zloglin", alpha=5.0)
    targets = _b_grid_targets(phi)
    for table in phi.branch_tables():
        f = count_evals(table.f)
        roots = BranchTable(table.branch, f).solve(targets)
        ok = ~np.isnan(roots)
        assert ok.sum() > 1000
        assert f.points <= 4.5 * ok.sum()
        _assert_contract(lambda x: table.f(x)[0], roots[ok], targets[ok], XTOL)


@pytest.mark.parametrize("phi", [phi_identity(), phi_from_catalog("sqrt")],
                         ids=["identity", "sqrt"])
def test_targets_at_probe_values_return_the_probe(phi, count_evals):
    """A target equal to a probe's raw value (identity's -2, 0 and 2; sqrt's
    -0.75 = phi(-1.25)) is that probe, with no evaluation."""
    for branch in phi.real_branches:
        f = count_evals(phi.branch_table(branch).f)
        table = BranchTable(branch, f)
        f.points = 0
        roots = table.solve(table.values[1:])
        assert f.points == 0
        assert np.array_equal(roots, table.xs[1:])


def test_a_start_within_tol_gives_the_newton_point():
    """A start within tol of the root, whose first evaluation closes the
    bracket, returns that evaluation's Newton point (with its own slope),
    not the midpoint of the closed bracket."""
    targets = np.asarray([2.0, 3.0, 5.0, 7.0])
    exact = np.log(targets)
    lo, start = exact - 0.25 * XTOL, exact + 0.5 * XTOL
    roots = bisect_increasing(lambda x: (np.exp(x), np.exp(x)), lo, np.full(4, 2.0), targets,
                              start=start)
    assert np.array_equal(roots, start - (np.exp(start) - targets) / np.exp(start))
    assert np.all(np.abs(roots - exact) <= 2.0 * np.spacing(exact))


def _recording(monkeypatch, count_evals):
    """Replace levelset's root finder by one that counts and records."""
    calls = []

    def recorded(f, lo, hi, target, **kw):
        counted = count_evals(f)
        roots = bisect_increasing(counted, lo, hi, target, **kw)
        if counted.per_element:  # element k evaluated at the k-th point
            value = lambda x: f(x, np.arange(np.size(x)))[0]
        else:
            value = lambda x: f(x)[0]
        calls.append((value, counted, kw, np.broadcast_to(target, roots.shape), roots))
        return roots

    monkeypatch.setattr(levelset, "bisect_increasing", recorded)
    return calls


def test_tail_sets_take_few_evaluations(monkeypatch, count_evals):
    """cantor(depth=9) over the default y grid: at most 5 evaluations of
    (f, f') per root, and every root in a certified bracket."""
    calls = _recording(monkeypatch, count_evals)
    tail_measures(cauchy_transform(RealMeasure.cantor(depth=9)), _DEFAULT_Y_GRID)
    (f, counted, kw, targets, roots), = [c for c in calls if c[4].size]
    assert roots.size > 9000
    assert counted.points <= 5 * roots.size
    _assert_contract(f, roots, targets, kw["xtol"])


def test_density_crossings_take_few_evaluations(monkeypatch, count_evals):
    """The crossings inside named density pieces over the default y grid
    take the slope Re G'(x + i0): a point mass beside uniform(0, 1), the
    arcsine law with an interior atom and poisson(-2, 2) between two atoms
    take at most 7 evaluations per root (bisection took 28-30), every root
    in a certified bracket.  A piece given by a callable keeps bisection."""
    calls = _recording(monkeypatch, count_evals)
    for mu in (RealMeasure.point_mass(0.0, 0.5).combined(RealMeasure.uniform(0.0, 1.0, 0.5)),
               RealMeasure.arcsine(-1.0, 1.0).combined(RealMeasure.point_mass(0.25, 0.5)),
               RealMeasure.poisson(-2.0, 2.0).combined(
                   RealMeasure.from_atoms([(-3.0, 0.2), (0.5, 0.3)]))):
        calls.clear()
        tail_measures(cauchy_transform(mu), _DEFAULT_Y_GRID)
        assert len(calls) == 3  # the gaps, then the crossings on +Re G and on -Re G
        crossings = [c for c in calls[1:] if c[4].size]
        assert sum(c[4].size for c in crossings) >= 9
        for f, counted, kw, targets, roots in crossings:
            assert counted.points <= 7 * roots.size
            _assert_contract(f, roots, targets, kw["xtol"])
    callable_piece = AcPiece(0.0, 1.0, lambda t: np.full_like(t, 0.5))
    calls.clear()
    tail_measures(cauchy_transform(RealMeasure(ac_pieces=(callable_piece,)).combined(
        RealMeasure.point_mass(0.0, 0.5))), [1e2])
    f = calls[1][1].f
    assert f(np.asarray([0.5]))[1] is None


def test_composition_crossings_take_few_evaluations(monkeypatch, count_evals):
    """The disk crossings of zloglin(5).iterate(2) for 300 seeded disks take
    the composition's chain-rule slope: at most 3 evaluations per root
    (bisection took 7.5), every root in a certified bracket."""
    calls = _recording(monkeypatch, count_evals)
    rng = np.random.default_rng(1)
    c, r = rng.uniform(-4.0, 4.0, 300), 10.0 ** rng.uniform(-2.0, 0.7, 300)
    levelset.disk_panels(phi_from_catalog("zloglin", alpha=5.0).iterate(2), c - r, c + r)
    crossings = [c for c in calls if c[4].size]
    assert sum(c[4].size for c in crossings) >= 100
    for f, counted, kw, targets, roots in crossings:
        assert counted.points <= 3 * roots.size
        _assert_contract(f, roots, targets, kw["xtol"])


def _boole_measures(count=25, seed=0):
    """Seeded atomic probability measures: 1 to 6 atoms on (-5, 5)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 + i % 6
        pos, w = np.sort(rng.uniform(-5.0, 5.0, n)), rng.uniform(0.05, 1.0, n)
        yield RealMeasure.from_atoms(list(zip(pos.tolist(), (w / w.sum()).tolist())))


def test_boole_checks_take_few_evaluations(monkeypatch, count_evals):
    """25 atomic measures at boole_check's default levels: at most 6
    evaluations per root pooled and 7.5 in any one check, every root in a
    certified bracket, and Boole's identity to 1e-6."""
    calls = _recording(monkeypatch, count_evals)
    evals = roots_total = 0
    for mu in _boole_measures():
        calls.clear()
        assert boole_check(mu) <= 1e-6
        (f, counted, kw, targets, roots), = [c for c in calls if c[4].size]
        assert counted.points <= 7.5 * roots.size
        _assert_contract(f, roots, targets, kw["xtol"])
        evals, roots_total = evals + counted.points, roots_total + roots.size
    assert evals <= 6 * roots_total


def test_secular_start_solves_the_two_pole_model():
    """_secular_start is within 4 ulp of the root of
    -a/(x - gl) + b/(gr - x) = y, found by bisection in extended precision,
    for pole strengths 1e-8 to 1e3 and levels of both signs from 1e-6 to
    1e12, on a gap at 0 (where a root near gl keeps its relative digits)
    and one at 1e6."""
    a, b, y = np.meshgrid(np.geomspace(1e-8, 1e3, 12), np.geomspace(1e-8, 1e3, 12),
                          np.concatenate([-np.geomspace(1e-6, 1e12, 10), [0.0],
                                          np.geomspace(1e-6, 1e12, 10)]))
    a, b, y = a.ravel(), b.ravel(), y.ravel()
    ld = np.longdouble
    ul, uh = np.zeros(a.size, dtype=ld), np.full(a.size, ld(3.0))
    for _ in range(200):  # down to 3 * 2^-200, below 1e-19 of the least root, 1e-20
        u = 0.5 * (ul + uh)
        with np.errstate(divide="ignore"):  # u can reach 3 for a root within 1e-19 of it
            below = -a.astype(ld) / u + b.astype(ld) / (ld(3.0) - u) < y.astype(ld)
        ul, uh = np.where(below, u, ul), np.where(below, uh, u)
    for gl in (0.0, 1e6):
        ref = (ld(gl) + 0.5 * (ul + uh)).astype(float)
        x = levelset._secular_start(gl, gl + 3.0, a, b, y)
        assert np.all(np.abs(x - ref) <= 4.0 * np.spacing(ref))


def _atom_gap_problem():
    """Re G with its slope for 40 seeded atoms, and one crossing per gap
    between neighbours, at levels from -30 to 1e3, each bracketed by the
    gap's ends moved in by 1e-6 of its width."""
    rng = np.random.default_rng(5)
    pos, w = np.sort(rng.uniform(-5.0, 5.0, 40)), rng.uniform(0.05, 1.0, 40)
    G = cauchy_transform(RealMeasure.from_atoms(list(zip(pos.tolist(), w.tolist()))))
    nudge = 1e-6 * np.diff(pos)
    targets = np.resize([-30.0, -1.0, 0.5, 1e3], pos.size - 1)
    return lambda x: G.real_value(x, slope=True), pos[:-1] + nudge, pos[1:] - nudge, targets


@pytest.mark.parametrize("slope", [True, False])
def test_unusable_starts_give_the_midpoint_roots(slope):
    """A start that is NaN, +-inf, a bracket end or outside the bracket
    gives the roots of the midpoint start bit for bit; a start inside
    gives certified roots."""
    fs, lo, hi, targets = _atom_gap_problem()
    f = fs if slope else (lambda x: (fs(x)[0], None))
    base = bisect_increasing(f, lo, hi, targets, xtol=1e-15)
    _assert_contract(lambda x: fs(x)[0], base, targets, 1e-15)
    for start in (np.nan, np.inf, -np.inf, lo, hi, lo - 1.0, hi + 1.0):
        got = bisect_increasing(f, lo, hi, targets, xtol=1e-15, start=start)
        assert np.array_equal(got, base)
    inside = bisect_increasing(f, lo, hi, targets, xtol=1e-15, start=lo + 0.25 * (hi - lo))
    _assert_contract(lambda x: fs(x)[0], inside, targets, 1e-15)


@pytest.mark.parametrize("lie", ["scaled", "zero", "nan", "negative"])
def test_lying_slope_keeps_the_contract(lie):
    """A slope scaled by 1e6, zero, NaN or of the wrong sign still gives
    certified roots within MAX_ITER evaluations, without a RuntimeWarning."""
    phi = phi_from_catalog("zloglin", alpha=5.0)
    table = phi.branch_tables()[1]
    targets = np.linspace(-20.0, 30.0, 51)
    idx = np.searchsorted(table.ys, targets)
    assert np.all((idx > 0) & (idx < table.ys.size))
    value, slope = (lambda x: table.f(x)[0]), (lambda x: table.f(x)[1])
    lying = {"scaled": lambda x: 1e6 * slope(x), "zero": np.zeros_like,
             "nan": lambda x: np.full(x.shape, np.nan), "negative": lambda x: -slope(x)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = bisect_increasing(lambda x: (value(x), lying[lie](x)), table.xs[idx - 1],
                                  table.xs[idx], targets)
    _assert_contract(value, roots, targets, XTOL)


@pytest.mark.parametrize("mu", [
    RealMeasure.cantor(depth=7),
    RealMeasure.cantor(depth=9),
    RealMeasure.point_mass(-1.0, 0.5).combined(RealMeasure.uniform(0.0, 1.0, 0.5)),
    list(_boole_measures(6))[-1]], ids=["cantor7", "cantor9", "atom_uniform", "boole6"])
def test_tail_sets_batch_invariant(mu):
    """Each level alone gives the bits of the batch: cantor(depth=7) (the
    direct node sum) and cantor(depth=9) (the tree code), a point mass
    beside uniform(0, 1) (whose gap end at the density is a log
    singularity, not a pole) and six atoms."""
    G = cauchy_transform(mu)
    ys = np.geomspace(1e-1, 1e6, 15)
    alone = np.vstack([tail_measures(G, [y]) for y in ys])
    assert np.array_equal(tail_measures(G, ys), alone)


def test_branch_solve_batch_invariant_on_a_density_map():
    """1 + z + (uniform(0, 1, 0.5) + atom (2, 0.5)) and zloglin(5): each
    target alone gives the bits of the batch, on every branch, with
    targets equal to probe values among them."""
    rho = RealMeasure.uniform(0.0, 1.0, 0.5).combined(RealMeasure.point_mass(2.0, 0.5))
    targets = np.concatenate([np.linspace(-20.0, 20.0, 41),
                              np.random.default_rng(3).normal(0.0, 30.0, 40)])
    tables = (phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, rho)).branch_tables()
              + phi_from_catalog("zloglin", alpha=5.0).branch_tables())
    for table in tables:
        mixed = np.concatenate([targets, table.values[::9]])
        alone = np.concatenate([table.solve(mixed[k:k + 1]) for k in range(mixed.size)])
        assert np.array_equal(table.solve(mixed), alone, equal_nan=True)


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


def _uniform_atom_map():
    """1 + z + uniform(0, 1, 0.5) + the atom (2, 0.5): the density
    benchmark's map, three real branches."""
    rho = RealMeasure.uniform(0.0, 1.0, 0.5).combined(RealMeasure.point_mass(2.0, 0.5))
    return phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, rho))


_TABLE_MAPS = {
    "zloglin0": phi_from_catalog("zloglin", alpha=0.0),
    "sqrt": phi_from_catalog("sqrt"),
    "translation_pole": phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0))),
    "uniform_atom": _uniform_atom_map(),
    "atoms3_iterate2": phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(
        [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)]))).iterate(2),
}


def _per_table(tables, targets):
    return np.vstack([table.solve(targets) for table in tables])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_TABLE_MAPS)),
       targets=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30),
       probes=st.integers(0, 3))
def test_one_loop_over_every_branch_is_the_per_table_solve(name, targets, probes):
    """solve_tables over all of a map's tables, one root loop, gives each
    table's own solve bit for bit, with some of every table's probe values
    among the targets (roots with no evaluation)."""
    tables = _TABLE_MAPS[name].branch_tables()
    targets = np.concatenate([targets] + [t.values[probes::23] for t in tables])
    assert np.array_equal(solve_tables(tables, targets).view(np.int64),
                          _per_table(tables, targets).view(np.int64))


def test_one_loop_gathers_slices_across_tables(monkeypatch):
    """A batch longer than SOLVE_SLICE over translation+pole's two tables is
    gathered SOLVE_SLICE brackets at a time across them: three
    bisect_increasing calls, the second spanning both tables, and the roots
    of the per-table solves bit for bit."""
    tables = _TABLE_MAPS["translation_pole"].branch_tables()
    targets = np.linspace(-40.0, 40.0, SOLVE_SLICE + 40)
    sizes = []

    def counted(f, lo, *args, **kwargs):
        sizes.append(np.size(lo))
        return bisect_increasing(f, lo, *args, **kwargs)
    monkeypatch.setattr(_roots, "bisect_increasing", counted)
    roots = solve_tables(tables, targets)
    assert sizes[:2] == [SOLVE_SLICE, SOLVE_SLICE] and len(sizes) == 3
    assert np.array_equal(roots.view(np.int64), _per_table(tables, targets).view(np.int64))


def test_clark_atoms_takes_one_root_loop(monkeypatch):
    """clark_atoms on the three branches of the uniform+atom map solves
    them in one bisect_increasing call (one per branch before)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bisect_increasing(*args, **kwargs)
    monkeypatch.setattr(_roots, "bisect_increasing", counted)
    phi = _uniform_atom_map()
    atoms = clark_atoms(phi, 0.5)
    assert len(phi.real_branches) == 3 and len(atoms) == 3
    assert len(calls) == 1


def _solver_states(n, seed):
    """n states of the safeguarded step as _solve_slice makes them: x the
    end of a bracket (lo, hi) wider than tol on the side where the
    residual r = f(x) - target has its sign, p the other end.  Newton's
    point with the secant's slope d lies a fraction of the way from x to p:
    inside, beyond p, within tol/2 of x (1e-16 of the way), or NaN; on
    integer ends with d = 1 it is exactly p.  Other slopes lie: zero,
    negative, 1e6 or 1e-9 times the secant's, NaN or +-inf.  ``before`` is
    inf, ample or less than the step."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-12.0, 8.0, n)
    lo = rng.uniform(-1.0, 1.0, n) * scale
    hi = lo + scale * 10.0 ** rng.uniform(-11.0, 1.0, n)
    on_p = rng.random(n) < 0.05
    lo[on_p] = np.floor(lo[on_p]) - 3.0
    hi[on_p] = lo[on_p] + 8.0
    below = rng.random(n) < 0.5
    x, p = np.where(below, lo, hi), np.where(below, hi, lo)
    frac = np.select([rng.random(n) < 0.15, rng.random(n) < 0.2, rng.random(n) < 0.1],
                     [rng.uniform(1.0, 3.0, n), np.full(n, 1e-16), np.full(n, np.nan)],
                     rng.uniform(0.0, 1.0, n))
    d = 10.0 ** rng.uniform(-3.0, 3.0, n)
    r = d * frac * (x - p)  # negative below the target
    r[below & np.isnan(r)] = -np.inf
    kind = rng.integers(0, 7, n)
    d = np.select([kind == 1, kind == 2, kind == 3, kind == 4, kind == 5, kind == 6],
                  [np.zeros(n), -d, 1e6 * d, np.full(n, np.nan),
                   np.where(rng.random(n) < 0.5, np.inf, -np.inf), 1e-9 * d], d)
    d[on_p], r[on_p] = 1.0, (x - p)[on_p]
    tol = np.maximum(XTOL, 8.0 * _EPS * np.abs(x))
    before = np.select([rng.random(n) < 0.3, rng.random(n) < 0.3],
                       [np.full(n, np.inf), 1e-3 * (hi - lo)], 4.0 * (hi - lo))
    keep = hi - lo > tol
    return tuple(v[keep] for v in (x, r, d, lo, hi, below, tol, before))


def test_fast_step_is_the_safeguarded_step():
    """_next_point, whose common case (a valid Newton point, or its tol/2
    closing step) skips _safeguarded_point, returns its bits on the
    states of 200000 draws whose bracket is not closed, each kind present."""
    x, r, d, lo, hi, below, tol, before = state = _solver_states(200000, 7)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        newton = x - r / d
        fast = _next_point(x, r, d, newton, lo, hi, below, tol, before)
        slow = _safeguarded_point(*state)
    assert np.array_equal(fast.view(np.int64), slow.view(np.int64))
    p = np.where(below, hi, lo)
    valid = (lo <= newton) & (newton <= hi) & (newton != p)
    short = valid & (np.abs(newton - x) < 0.5 * tol)
    mid = slow == 0.5 * (lo + hi)
    near = ~valid & (np.abs(newton - x) < 0.5 * tol)  # the one-pole point comes first
    assert min(valid.sum(), (~valid).sum(), short.sum(), (valid & mid).sum(), near.sum(),
               (newton == p).sum(), np.isnan(newton).sum(), np.isinf(d).sum()) > 100
