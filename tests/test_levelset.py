import math

import numpy as np
import pytest

from uhprange import (DiskQuery, NevanlinnaData, PreconditionError, RealMeasure,
                      WindowError, cauchy_transform, g_tau, mc_oracle_measure,
                      phi_from_catalog, phi_from_nevanlinna, phi_identity,
                      phi_translation, preimage_disk_measure,
                      preimage_interval_measure, tail_set_measure)
from uhprange._roots import SOLVE_SLICE
from uhprange.levelset import disk_measures, disk_panels, disk_preimages, tail_measures
from uhprange.measures import AcPiece

GOLDEN = (1 + math.sqrt(5)) / 2


def delta_map():
    return phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, RealMeasure.point_mass(0.0)))


def test_identity_interval():
    s, total = preimage_interval_measure(phi_identity(), (0.0, 1.0))
    assert abs(total - 1.0) < 1e-12
    assert len(s) == 1


def test_point_mass_map_interval_exact():
    # x - 1/x = y has roots (y +- sqrt(y^2+4))/2; preimage of (0,1) has length 1
    s, total = preimage_interval_measure(delta_map(), (0.0, 1.0))
    assert abs(total - 1.0) < 1e-10
    (l1, r1), (l2, r2) = s.intervals
    assert abs(r2 - GOLDEN) < 1e-10 and abs(l2 - 1.0) < 1e-10
    assert abs(l1 + 1.0) < 1e-10 and abs(r1 + (GOLDEN - 1.0)) < 1e-10


def test_sqrt_interval_small():
    eps = 0.01
    _, total = preimage_interval_measure(phi_from_catalog("sqrt"), (-eps, eps))
    assert abs(total - 2.0 * (math.sqrt(1 + eps * eps) - 1.0)) < 1e-10


def test_identity_disk_equals_interval():
    assert abs(preimage_disk_measure(phi_identity(), DiskQuery(0.0, 1.0)) - 1.0) < 1e-10


def test_sqrt_disk_closed_form():
    eps = 0.01
    m = preimage_disk_measure(phi_from_catalog("sqrt"), DiskQuery(-eps, eps))
    expect = 2.0 * (math.sqrt(1 + eps * eps) - 1.0) + 2.0 * (1.0 - math.sqrt(1 - eps * eps))
    assert abs(m - expect) < 1e-8


def test_zloglin_disk_positive_floor():
    phi = phi_from_catalog("zloglin", alpha=0.0)
    for a in (-2.0, 0.25, 1.75):
        m = preimage_disk_measure(phi, DiskQuery(a, a + 0.5))
        assert m >= 0.5 * 0.25  # ratio stays clear of zero


def test_additivity():
    for phi in (phi_from_catalog("zloglin", alpha=0.0), delta_map()):
        _, m1 = preimage_interval_measure(phi, (0.0, 0.7))
        _, m2 = preimage_interval_measure(phi, (0.7, 1.3))
        _, m3 = preimage_interval_measure(phi, (0.0, 1.3))
        assert abs(m1 + m2 - m3) < 1e-9


def test_monotone_and_interval_below_disk():
    phi = phi_from_catalog("sqrt")
    _, small = preimage_interval_measure(phi, (0.2, 0.6))
    _, big = preimage_interval_measure(phi, (0.1, 0.9))
    assert small <= big
    for (a, b) in [(-0.01, 0.01), (0.2, 0.6), (-3.0, 2.0)]:
        _, mi = preimage_interval_measure(phi, (a, b))
        md = preimage_disk_measure(phi, DiskQuery(a, b))
        assert mi <= md + 1e-12


def test_tail_point_mass():
    G = cauchy_transform(RealMeasure.point_mass(0.0))
    assert abs(tail_set_measure(G, 2.0, "upper") - 0.5) < 1e-10
    assert abs(tail_set_measure(G, 2.0, "lower") - 0.5) < 1e-10


def test_tail_two_atoms_unit():
    # crossings at +-1/sqrt(2) from the quadratic; total is exactly 1/y
    G = cauchy_transform(RealMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    assert abs(tail_set_measure(G, 1.0, "upper") - 1.0) < 1e-8
    assert abs(tail_set_measure(G, 1.0, "lower") - 1.0) < 1e-8


def test_tail_uniform_closed_form():
    G = cauchy_transform(RealMeasure.uniform(0.0, 1.0))
    y = 10.0
    got = tail_set_measure(G, y, "upper")
    expect = 1.0 / (math.exp(y) - 1.0) + 1.0 / (math.exp(y) + 1.0)
    assert abs(got - expect) < 1e-10
    assert y * got < 1e-3


def test_tail_measures_count_overlapping_pieces_once(overlap_pair):
    """The tail sets of a measure whose density pieces overlap are those of
    the same density in disjoint pieces.  Each piece was scanned on its
    own, and the upper tails at y = 0.05, 0.2 and 1 read 20.454, 5.324 and
    0.3286, where dense sampling of Re G gives 19.992, 4.971 and 0.2949."""
    ys = [0.05, 0.2, 1.0]
    over, disjoint = (tail_measures(cauchy_transform(mu), ys) for mu in overlap_pair(0.5))
    assert np.allclose(over, disjoint, rtol=1e-12, atol=0.0)
    assert np.allclose(over[:, 0], [19.992, 4.971, 0.2950], atol=1e-3)


def test_boole_random_atoms_and_cantor():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        pos = np.sort(rng.uniform(-4, 4, n))
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        G = cauchy_transform(RealMeasure.from_atoms(list(zip(pos, w))))
        for y in (0.5, 1.0, 2.0, 10.0):
            assert abs(y * tail_set_measure(G, y, "upper") - 1.0) < 1e-6
            assert abs(y * tail_set_measure(G, y, "lower") - 1.0) < 1e-6
    Gc = cauchy_transform(RealMeasure.cantor(depth=10))
    for y in (0.5, 2.0):
        assert abs(y * tail_set_measure(Gc, y, "upper") - 1.0) < 1e-3


def test_measure_preservation_random_atoms():
    rng = np.random.default_rng(4)
    rho = RealMeasure.from_atoms([(-1.0, 0.8), (0.5, 0.3), (2.0, 0.5)])
    phi = phi_from_nevanlinna(NevanlinnaData(0.7, 1.0, rho))
    for _ in range(50):
        a = rng.uniform(-6, 6)
        b = a + rng.uniform(0.05, 2.0)
        _, m = preimage_interval_measure(phi, (a, b))
        assert abs(m - (b - a)) < 1e-8


def test_disk_identity_for_resolvent():
    phi = phi_from_catalog("zloglin", alpha=0.0)
    for tau, y in [(0.0, 1.0), (0.4, 25.0)]:
        lhs = tail_set_measure(g_tau(phi, tau), y, "lower")
        rhs = preimage_disk_measure(phi, DiskQuery(tau, tau + 1.0 / y))
        assert abs(lhs - rhs) < 1e-8


def test_disk_identity_cross_path():
    # translation map: the spectral measure is a point mass, so the tail of
    # its transform and the disk preimage are comparable through independent code
    alpha, tau, y = 1.5, 3.0, 8.0
    G = cauchy_transform(RealMeasure.point_mass(tau - alpha))
    lhs = tail_set_measure(G, y, "lower")
    rhs = preimage_disk_measure(phi_translation(alpha), DiskQuery(tau, tau + 1.0 / y))
    assert abs(lhs - rhs) < 1e-8
    assert abs(lhs - 1.0 / y) < 1e-9


def test_tail_side_validation():
    G = cauchy_transform(RealMeasure.point_mass(0.0))
    with pytest.raises(PreconditionError):
        tail_set_measure(G, -1.0, "upper")
    with pytest.raises(PreconditionError):
        tail_set_measure(G, 1.0, "sideways")


def test_tail_infinite_density_rejected():
    mu = RealMeasure(ac_pieces=(AcPiece(-math.inf, 0.0, lambda t: 1.0 / (1.0 + t * t)),))
    with pytest.raises(PreconditionError):
        tail_measures(cauchy_transform(mu), [1.0, 10.0])


def test_mc_identity():
    est, err = mc_oracle_measure(phi_identity(), (0.0, 1.0), n=10**6, seed=0,
                                 window=(-2.0, 3.0))
    assert err < 0.003
    assert abs(est - 1.0) <= 3 * err


def test_mc_point_mass_map():
    est, err = mc_oracle_measure(delta_map(), (0.0, 1.0), n=10**6, seed=3)
    assert abs(est - 1.0) <= 3 * err


def test_mc_disk_agrees_with_deterministic():
    phi = phi_from_catalog("sqrt")
    q = DiskQuery(-0.01, 0.01)
    det = preimage_disk_measure(phi, q)
    est, err = mc_oracle_measure(phi, q, n=10**6, seed=5)
    assert abs(est - det) <= 3 * err


def test_mc_tail_atoms():
    G = cauchy_transform(RealMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    est, err = mc_oracle_measure(G, ("tail", 2.0, "upper"), n=10**6, seed=9)
    det = tail_set_measure(G, 2.0, "upper")
    assert abs(est - det) <= 3 * err


def test_mc_tail_cantor():
    """The oracle on a 1024-node singular-continuous transform, summed in
    bounded chunks, agrees with the deterministic tail measure."""
    G = cauchy_transform(RealMeasure.cantor(depth=10))
    for side in ("upper", "lower"):
        est, err = mc_oracle_measure(G, ("tail", 2.0, side), n=10**5, seed=11)
        assert abs(est - tail_set_measure(G, 2.0, side)) <= 3 * err


def test_mc_oracle_needs_a_sample():
    for n in (0, -3):
        with pytest.raises(PreconditionError, match="n >= 1"):
            mc_oracle_measure(phi_identity(), (0.0, 1.0), n=n)


def test_mc_window_too_small():
    with pytest.raises(WindowError):
        mc_oracle_measure(phi_identity(), (0.0, 1.0), n=10**5, seed=0,
                          window=(0.5, 2.0))


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_DELTA_MAP = delta_map()


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-5, 5), width=st.floats(0.05, 3), split=st.floats(0.1, 0.9))
def test_preimage_additivity_property(a, width, split):
    b = a + width
    m = a + split * width
    _, m1 = preimage_interval_measure(_DELTA_MAP, (a, m))
    _, m2 = preimage_interval_measure(_DELTA_MAP, (m, b))
    _, m3 = preimage_interval_measure(_DELTA_MAP, (a, b))
    assert abs(m1 + m2 - m3) < 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-4, 4), width=st.floats(0.05, 2), pad=st.floats(0.01, 2))
def test_preimage_monotonicity_property(a, width, pad):
    phi = _DELTA_MAP
    _, inner = preimage_interval_measure(phi, (a, a + width))
    _, outer = preimage_interval_measure(phi, (a - pad, a + width + pad))
    assert inner <= outer + 1e-12


_SOLVE_MAPS = {"zloglin0": phi_from_catalog("zloglin", alpha=0.0),
               "translation_pole": phi_from_nevanlinna(
                   NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0))),
               "sqrt": phi_from_catalog("sqrt")}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_SOLVE_MAPS)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_branch_solve_batch_invariant(name, fractions):
    for tbl in _SOLVE_MAPS[name].branch_tables():
        lo, hi = tbl.value_range
        lo, hi = max(lo, -50.0), min(hi, 50.0)
        targets = lo + (hi - lo) * np.asarray(fractions)
        single = [tbl.solve(np.asarray([t]))[0] for t in targets]
        # bit for bit; a target on the table's low end is nan either way
        assert np.array_equal(tbl.solve(targets), single, equal_nan=True)


def test_branch_solve_slices_batch_invariant():
    """A batch longer than one bisection slice equals its two halves solved
    apart, bit for bit."""
    tbl = _SOLVE_MAPS["translation_pole"].branch_tables()[1]
    targets = np.linspace(-40.0, 40.0, SOLVE_SLICE + 40)
    half = targets.size // 2
    assert np.array_equal(tbl.solve(targets),
                          np.concatenate([tbl.solve(targets[:half]), tbl.solve(targets[half:])]))


_DISK_MAPS = {"zloglin0": _SOLVE_MAPS["zloglin0"], "sqrt": _SOLVE_MAPS["sqrt"],
              "zlog": phi_from_catalog("zlog")}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_DISK_MAPS)),
       disks=st.lists(st.tuples(st.floats(-6, 6), st.floats(2.0**-10, 4)),
                      min_size=1, max_size=12))
def test_disk_preimages_batch_invariant(name, disks):
    phi = _DISK_MAPS[name]
    a = np.asarray([c - 0.5 * l for c, l in disks])
    b = np.asarray([c + 0.5 * l for c, l in disks])
    rows, unresolved = disk_panels(phi, a, b)
    sets, unresolved_sets = disk_preimages(phi, a, b)
    measures = disk_measures(phi, a, b)[0]
    assert np.array_equal(unresolved, unresolved_sets)
    for k in range(len(a)):
        one_rows, one_unresolved = disk_panels(phi, a[k:k + 1], b[k:k + 1])
        (one_set,), _ = disk_preimages(phi, a[k:k + 1], b[k:k + 1])
        # bit for bit: panel rows (in order), unresolved width and measure
        assert np.array_equal(rows[rows[:, 0] == k, 1:], one_rows[:, 1:])
        assert unresolved[k] == one_unresolved[0]
        assert sets[k] == one_set
        assert sets[k].total_length == preimage_disk_measure(phi, DiskQuery(a[k], b[k]))
        # the row sums of disk_measures and the merged sets agree bit for bit
        assert measures[k] == sets[k].total_length


def _sqrt_disk_measures(c, r):
    """|phi^-1(D)| for phi = sqrt(z-1) sqrt(z+1) and the disks D = (c, r):
    the width 2 (1 - sqrt(1 + c^2 - r^2)) on (-1, 1), where phi(x + i0) =
    i sqrt(1 - x^2), clipped to [0, 2], plus the preimages of the diameter
    (a, b) under +-sqrt(x^2 - 1) on x > 1 and x < -1."""
    a, b = c - r, c + r
    inner = np.clip(2.0 * (1.0 - np.sqrt(np.maximum(1.0 + c * c - r * r, 0.0))), 0.0, 2.0)
    right = np.where(b > 0.0, np.sqrt(1.0 + b * b) - np.sqrt(1.0 + np.maximum(a, 0.0) ** 2), 0.0)
    left = np.where(a < 0.0, np.sqrt(1.0 + a * a) - np.sqrt(1.0 + np.maximum(-b, 0.0) ** 2), 0.0)
    return inner + right + left


def test_sqrt_disk_measures_are_exact():
    """On 400 disks the panel ends are roots, so disk_measures meets the
    closed form to 1e-12 (the bisection sweep missed by up to 8.75e-9,
    within its unresolved width of 1.7e-8)."""
    rng = np.random.default_rng(0)
    c, r = rng.uniform(-1.5, 1.5, 400), rng.uniform(0.01, 1.5, 400)
    got = disk_measures(phi_from_catalog("sqrt"), c - r, c + r)[0]
    assert np.max(np.abs(got - _sqrt_disk_measures(c, r))) < 1e-12


_END_MAPS = {
    "sqrt": lambda: phi_from_catalog("sqrt"),
    "sqrtpole": lambda: phi_from_catalog("sqrtpole", alpha=-1.0),
    "zlog": lambda: phi_from_catalog("zlog"),
    "uniform_atom": lambda: phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.uniform(
        0.0, 1.0, mass=0.5).combined(RealMeasure.point_mass(2.0, 0.5)))),
    # a density given by a callable: no slope, so the crossings bisect
    "callable": lambda: phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, RealMeasure(ac_pieces=(
        AcPiece(-1.0, 1.0, lambda t: 0.5 * np.sqrt(np.clip(1.0 - t * t, 0.0, None))),)))),
}


@pytest.mark.parametrize("name", sorted(_END_MAPS))
def test_panel_ends_inside_a_segment_are_crossings(name):
    """Every panel end strictly inside a non-real segment is a root of
    |phi - c| = r to the root tolerance: |phi - c| - r changes sign
    between the points tol to either side."""
    phi, tol = _END_MAPS[name](), 1e-8
    rng = np.random.default_rng(1)
    c, r = rng.uniform(-4.0, 4.0, 300), 10.0 ** rng.uniform(-2.0, 0.7, 300)
    rows, _ = disk_panels(phi, c - r, c + r, tol=tol)
    k, ends = np.repeat(rows[:, 0].astype(int), 2), rows[:, 1:].ravel()
    inside = np.zeros(ends.shape, dtype=bool)
    for lo, hi in phi.nonreal_segments:
        inside |= (lo < ends) & (ends < hi)
    assert inside.sum() >= 30
    k, ends = k[inside], ends[inside]
    side = [np.abs(phi.boundary(ends + t) - c[k]) - r[k] for t in (-tol, tol)]
    assert np.all(side[0] * side[1] <= 0.0)


def test_disk_rows_do_not_depend_on_the_first_call():
    """A map's rows are the same, bit for bit, whether its segment table
    was first built for a batch of disks or for one disk."""
    rng = np.random.default_rng(2)
    c, r = rng.uniform(-3.0, 3.0, 60), 10.0 ** rng.uniform(-3.0, 0.5, 60)
    for make in (lambda: phi_from_catalog("sqrtpole", alpha=-1.0),
                 lambda: phi_from_catalog("zlog")):
        batch_first, one_first = make(), make()
        rows, unresolved = disk_panels(batch_first, c - r, c + r)
        for k in range(c.size):
            one_rows, one_unresolved = disk_panels(one_first, c[k:k + 1] - r[k], c[k:k + 1] + r[k])
            assert np.array_equal(rows[rows[:, 0] == k, 1:], one_rows[:, 1:])
            assert unresolved[k] == one_unresolved[0]


def test_a_disk_grazing_between_two_nodes_is_resolved_or_unresolved():
    """zloglin(0) runs along Im w = pi on (-1, 1).  A circle of radius
    sqrt(pi^2 + d^2) about Re phi(x*), x* between two table nodes, dips
    below that line between them, with both nodes outside: the dip, of
    width |phi^-1((c - d, c + d))|, is measured or reported unresolved.
    A circle that stays above the line has no panel."""
    phi = phi_from_catalog("zloglin", alpha=0.0)
    table = phi.segment_tables()[0]
    re = lambda x: x + np.log((1.0 - x) / (1.0 + x))  # decreasing on (-1, 1)
    for j in (table.x.size // 3, table.x.size // 2, 2 * table.x.size // 3):
        x0, x1 = table.x[j], table.x[j + 1]
        c = float(re(x0 + 0.37 * (x1 - x0)))
        d = 0.25 * min(abs(re(x0) - c), abs(re(x1) - c))
        for dip in (d, -d):
            r = math.sqrt(math.pi ** 2 + dip * abs(dip))
            rows, unresolved = disk_panels(phi, [c - r], [c + r])
            got = float(np.sum(rows[:, 2] - rows[:, 1]))
            if dip < 0:
                assert got == 0.0
                continue
            lo, hi = np.asarray([x0]), np.asarray([x1])
            for _ in range(200):  # the exact dip: where re crosses c + d and c - d
                mid = 0.5 * (lo + hi)
                lo, hi = np.where(re(mid) > c + d, mid, lo), np.where(re(mid) > c + d, hi, mid)
            left, lo, hi = lo[0], np.asarray([x0]), np.asarray([x1])
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = np.where(re(mid) > c - d, mid, lo), np.where(re(mid) > c - d, hi, mid)
            exact = lo[0] - left
            assert exact > 0.0 and abs(got - exact) <= unresolved[0] + 1e-12


_UNIFORM_HALF = RealMeasure.uniform(0.0, 1.0, mass=0.5)
_TAIL_MEASURES = {
    "atoms": RealMeasure.from_atoms([(-1.0, 0.2), (0.3, 0.5), (2.0, 0.3)]),
    "atom_uniform": RealMeasure.point_mass(0.0, 0.5).combined(_UNIFORM_HALF),
    "uniform_interior_atom": RealMeasure.uniform(-1.0, 1.0, mass=0.5).combined(
        RealMeasure.point_mass(0.25, 0.5)),
    "poisson": RealMeasure(ac_pieces=(
        AcPiece(-1.0, 1.0, lambda t: 1.0 / (math.pi * (1.0 + t * t))),)),
    "cantor6": RealMeasure.cantor(depth=6),
    # 512 nodes: the 511 gap crossings of every (y, side) fill several
    # atom-sum chunks, so batch and single calls cut their chunks differently
    "cantor9": RealMeasure.cantor(depth=9),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_TAIL_MEASURES)),
       exponents=st.lists(st.floats(-1.0, 6.0), min_size=1, max_size=3))
def test_tail_measures_batch_invariant(name, exponents):
    G = cauchy_transform(_TAIL_MEASURES[name])
    ys = 10.0 ** np.asarray(exponents)
    batch = tail_measures(G, ys)
    assert batch.shape == (len(ys), 2)
    for y, row in zip(ys, batch):
        # bit for bit: each row is the one-level query, each entry the one-side query
        assert np.array_equal(row, tail_measures(G, [y])[0])
        assert [tail_set_measure(G, y, side) for side in ("upper", "lower")] == row.tolist()
