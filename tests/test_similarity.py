import math
import time
from itertools import islice

import numpy as np
import pytest

from uhprange import (NevanlinnaData, PreconditionError, QueryGrid, RealMeasure,
                      UnsupportedStructureError, backward_orbit, constant_B, constant_C, contraction_check,
                      phi_from_catalog, phi_from_nevanlinna, phi_identity,
                      phi_translation, similarity_certificate,
                      similarity_lower_bound)
from uhprange._roots import BranchTable
from uhprange.levelset import row_measure
from uhprange.range_analysis import (SIMILARITY_ROOTS, _grid_intervals, _grid_min,
                                     _orbit_product_log_bound, default_grid)


def test_zloglin5_certified():
    phi = phi_from_catalog("zloglin", alpha=5.0)
    cert = similarity_certificate(phi)
    assert cert.status == "certified"
    assert cert.direction == "up"
    assert cert.c1 < -1.0 < 1.0 < cert.d1
    assert cert.eta > 0
    assert math.isfinite(cert.product_bound) and cert.product_bound >= 1.0
    assert cert.orbit_gap_ok


def test_zloglin5_orbit_gaps_and_product():
    phi = phi_from_catalog("zloglin", alpha=5.0)
    cert = similarity_certificate(phi)
    orbit = backward_orbit(phi, 10.0, 8, cert)
    seq = [10.0] + orbit
    gaps = [a - b for a, b in zip(seq, seq[1:])]
    # at most one step (the branch jump) may fall below eta
    assert sum(1 for g in gaps if g < cert.eta - 1e-9) <= 1
    assert all(x < cert.c1 or x > cert.d1 for x in orbit)
    product = float(np.prod([phi.derivative(t) for t in orbit]))
    assert product <= cert.product_bound


def _exact_orbit_log(k, eta, m, half):
    """log prod_{n>=0} (1 + k/(delta + n*eta)^2) at delta = (m + half)*eta,
    from prod_{j>=1} (1 + a^2/j^2) = sinh(pi a)/(pi a) and
    prod_{j>=0} (1 + a^2/(j + 1/2)^2) = cosh(pi a), a = sqrt(k)/eta,
    with the first factors divided off."""
    a = math.sqrt(k) / eta
    x = math.pi * a
    if half:
        return math.log(math.cosh(x)) - math.fsum(
            math.log1p(a * a / (j + 0.5) ** 2) for j in range(m))
    return math.log(math.sinh(x) / x) - math.fsum(
        math.log1p(a * a / j ** 2) for j in range(1, m))


def test_orbit_product_bound_against_closed_form():
    rng = np.random.default_rng(7)
    cases = [(0.08, 0.01, (2, False), (300, False))]  # 2e-10 below exact with the old closure
    for _ in range(60):
        k = float(np.exp(rng.uniform(math.log(0.01), math.log(2.0))))
        eta = float(np.exp(rng.uniform(math.log(0.01), math.log(4.0))))
        ends = [(int(rng.integers(1, 301)), bool(rng.integers(2))) for _ in range(2)]
        cases.append((k, eta, *ends))
    for k, eta, (md, hd), (mc, hc) in cases:
        exact = _exact_orbit_log(k, eta, md, hd) + _exact_orbit_log(k, eta, mc, hc)
        bound = _orbit_product_log_bound(k, eta, (md + 0.5 * hd) * eta, (mc + 0.5 * hc) * eta)
        assert exact - 4 * np.finfo(float).eps * (1 + abs(exact)) <= bound <= exact + 1e-11, \
            (k, eta, md, hd, mc, hc, bound - exact)


def test_sqrt_hypothesis_failed():
    cert = similarity_certificate(phi_from_catalog("sqrt"))
    assert cert.status == "hypothesis_failed"


def test_sqrtpole_cases():
    cert = similarity_certificate(phi_from_catalog("sqrtpole", alpha=-1.0))
    assert cert.status == "certified"
    assert cert.direction == "down"
    # one-sided limits flanking the support: alpha + 1/2 from the left,
    # pole blow-down from the right
    assert abs(cert.details["limit_left_of_support"] + 0.5) < 1e-4
    assert cert.details["limit_right_of_support"] == -math.inf
    # small positive alpha: hypothesis holds (pole limit is -inf) but no
    # escape step exists, matching the repelling-fixed-point obstruction
    cert2 = similarity_certificate(phi_from_catalog("sqrtpole", alpha=0.5))
    assert cert2.status == "alpha_too_small"


def test_zloglin0_alpha_too_small():
    assert similarity_certificate(
        phi_from_catalog("zloglin", alpha=0.0)).status == "alpha_too_small"


def test_zlog_unbounded_support_rejected():
    with pytest.raises(PreconditionError):
        similarity_certificate(phi_from_catalog("zlog"))


def test_translation_edge_case():
    phi = phi_translation(2.0)
    cert = similarity_certificate(phi)
    assert cert.status == "certified"
    assert abs(cert.eta - 2.0) < 1e-12
    assert cert.product_bound == 1.0
    orbit = backward_orbit(phi, 0.0, 3, cert)
    assert np.allclose(orbit, [-2.0, -4.0, -6.0], atol=1e-9)


def test_identity_not_constructible():
    cert = similarity_certificate(phi_identity())
    assert cert.status == "alpha_too_small"


def test_lower_bound_identity():
    lb = similarity_lower_bound(phi_identity(), N=6,
                                grid=QueryGrid((0.0, 1.0), (1.0, 0.125)))
    assert lb.max_depth == 6
    assert all(abs(v - 1.0) < 1e-9 for v in lb.values)


def test_lower_bound_zloglin5():
    lb = similarity_lower_bound(phi_from_catalog("zloglin", alpha=5.0), N=4)
    assert lb.max_depth == 4
    assert lb.minimum >= 1e-3


_POWER_GRID = QueryGrid(tuple(np.linspace(-4.0, 4.0, 33).tolist()), (1.0, 0.25, 1.0 / 16.0))


@pytest.mark.parametrize("atoms", [[(0.0, 1.0)], [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)]],
                         ids=["translation_pole", "three_atoms"])
def test_lower_bound_letac_powers(atoms):
    """A purely atomic rho preserves Lebesgue measure (Letac), so every
    power's interval ratio is 1, also where a preimage ends at a pole."""
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(atoms)))
    lb = similarity_lower_bound(phi, N=4, grid=_POWER_GRID)
    assert lb.max_depth == 4
    assert all(abs(v - 1.0) < 1e-7 for v in lb.values), lb.values


def test_lower_bound_sqrtpole_powers():
    lb = similarity_lower_bound(phi_from_catalog("sqrtpole", alpha=-1.0), N=4)
    assert lb.max_depth == 4
    assert min(lb.values) > 0.1, lb.values


_THREE_ATOMS = [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)]
_POWER_MAPS = {
    "zloglin5": lambda: phi_from_catalog("zloglin", alpha=5.0),
    "translation_pole": lambda: phi_from_nevanlinna(
        NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0))),
    "three_atoms": lambda: phi_from_nevanlinna(
        NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(_THREE_ATOMS))),
}
_REF_GRID = QueryGrid(tuple(np.linspace(-8.0, 8.0, 17).tolist()), (1.0, 0.25, 1.0 / 16.0))


def _composed_table_ratio(phi, n, grid):
    """The interval-ratio infimum of phi_n from tables of the composition
    itself, one per branch of phi.iterate(n), summing clamped widths: a
    reference independent of the pulled-back preimages."""
    it = phi.iterate(n)
    a = np.asarray(grid.centers)[None, :] - 0.5 * np.asarray(grid.lengths)[:, None]
    b = np.asarray(grid.centers)[None, :] + 0.5 * np.asarray(grid.lengths)[:, None]
    total = np.zeros(a.shape)
    for branch in it.real_branches:
        tbl = BranchTable(branch, it._boundary_pair)
        total += np.maximum(tbl.solve_clamped(b) - tbl.solve_clamped(a), 0.0)
    return float(np.min(total / np.asarray(grid.lengths)[:, None]))


def test_lower_bound_powers_match_composed_tables():
    """The pulled powers agree with the composed map's own branch tables
    (on the 3-atom map this needs the pole value carried through a step);
    power 1 is constant_B."""
    for name, N in (("zloglin5", 5), ("three_atoms", 3)):
        phi = _POWER_MAPS[name]()
        lb = similarity_lower_bound(phi, N=N, grid=_REF_GRID)
        assert lb.values[0] == constant_B(phi, _REF_GRID).value
        for n, value in enumerate(lb.values[1:], start=2):
            ref = _composed_table_ratio(phi, n, _REF_GRID)
            assert abs(value - ref) <= 1e-8 * ref, (name, n, value, ref)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(_POWER_MAPS))
def test_iterate_preimages_are_the_power_loop(name, n):
    """constant_B and constant_C of phi.iterate(n) pull preimages back
    through the base map, as similarity_lower_bound does: the same bits, and
    no table of the composition is built."""
    phi = _POWER_MAPS[name]()
    it = phi.iterate(n)
    assert constant_B(it, _REF_GRID).value == similarity_lower_bound(
        phi, n, _REF_GRID).values[n - 1]
    constant_C(it, _REF_GRID)
    assert it._tables == {}


def test_lower_bound_sqrt_decays():
    grid = QueryGrid((0.0,), (1.0, 2.0**-4, 2.0**-10))
    lb = similarity_lower_bound(phi_from_catalog("sqrt"), N=2, grid=grid)
    assert lb.values[0] < 1e-3
    assert lb.values[1] <= lb.values[0] + 1e-9


def test_contraction_identity_translation():
    assert abs(contraction_check(phi_identity(), m=5, seed=0) - 1.0) < 1e-8
    assert abs(contraction_check(phi_translation(4.0), m=5, seed=0) - 1.0) < 1e-7


def test_contraction_zloglin():
    assert contraction_check(phi_from_catalog("zloglin", alpha=0.0),
                             m=20, seed=0) <= 1.0 + 1e-6


@pytest.mark.parametrize("name,grid", [("zloglin5", None), ("three_atoms", _REF_GRID)])
def test_lower_bound_branch_roots_stay_float64(name, grid):
    """Every evaluation of the branch tables behind the power floors
    returns a float64 pair: the roots stay in real arithmetic, where the
    complex path took about twice as long for zloglin(5)'s pair."""
    phi = _POWER_MAPS[name]()
    dtypes = []
    for tbl in phi.branch_tables():
        def f(x, f=tbl.f):
            pair = f(x)
            dtypes.extend(v.dtype for v in pair)
            return pair
        tbl.f = f
    assert similarity_lower_bound(phi, N=4, grid=grid).max_depth == 4
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_lower_bound_stops_at_the_root_budget():
    """A power whose pullback would solve more than SIMILARITY_ROOTS roots
    is not pulled: 300 atoms have 301 branches, so power 3 on one grid
    interval would solve 5.5e7 roots (the table grows as 301^n), and the
    powers stop at 2 and name it.  Without the budget the call went on to
    hold that table, and power 4's 301 times larger.  A run that fits
    is untouched: zloglin(5)'s four powers are the pulled rows' floors bit
    for bit, with no stop reason."""
    atoms = [(float(p), 1.0 / 300.0) for p in np.linspace(-3.0, 3.0, 300)]
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(atoms)))
    lb = similarity_lower_bound(phi, N=4, grid=QueryGrid((0.0,), (1.0,)))
    assert lb.max_depth == len(lb.values) == 2
    assert lb.stop_reason == (f"power 3 would solve 54541802 branch roots, "
                              f"over the budget of {SIMILARITY_ROOTS}")
    assert all(abs(v - 1.0) < 1e-7 for v in lb.values)  # Letac
    phi = _POWER_MAPS["zloglin5"]()
    lb = similarity_lower_bound(phi, N=4)
    grid = default_grid(phi)
    a, b = _grid_intervals(grid)
    ref = [_grid_min(row_measure(rows, a.shape) / np.asarray(grid.lengths)[:, None], grid).value
           for rows in islice(phi.pullbacks(a, b), 4)]
    assert lb.values == tuple(ref) and lb.max_depth == 4 and lb.stop_reason is None


def test_iterate_stops_at_the_root_budget():
    """Every pullback power has one root budget: 300 atoms have 301
    branches, power 1 of their ends is 90,601 rows, and the next table
    would hold 27,271,202 roots.  phi.iterate(3) raises naming it instead
    of solving it, phi.iterate(2) still builds, and its pullback of the
    base's branch ends raises the same way."""
    atoms = [(float(p), 1.0 / 300.0) for p in np.linspace(-3.0, 3.0, 300)]
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(atoms)))
    message = f"power 2 would solve 27271202 branch roots, over the budget of {SIMILARITY_ROOTS}"
    start = time.perf_counter()
    with pytest.raises(UnsupportedStructureError, match=message):
        phi.iterate(3)
    assert time.perf_counter() - start < 5.0
    twice = phi.iterate(2)
    assert len(twice.real_branches) == 90601
    ends = np.asarray([(b.left, b.right) for b in phi.real_branches]).T
    with pytest.raises(UnsupportedStructureError, match=message):
        twice.pullback(*ends)
