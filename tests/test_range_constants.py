import math

import numpy as np
import pytest

from uhprange import _quad
from uhprange import (DiskQuery, NevanlinnaData, PreconditionError, QueryGrid,
                      RealMeasure, TestFunctionUc, boole_check, clark_singular_mass,
                      closed_range_report, constant_A_upper, constant_B, constant_C,
                      constant_D, contraction_check, letac_check, phi_from_catalog,
                      phi_from_nevanlinna, phi_identity, phi_translation,
                      preimage_disk_measure, rayleigh_quotient)
from uhprange.measures import AcPiece
from uhprange.range_analysis import _D_Y_GRID, C_MAX, _rayleigh_evidence


def small_grid(centers, lengths=(1.0, 0.25, 2.0**-6, 2.0**-10)):
    return QueryGrid(tuple(centers), tuple(lengths))


def test_uc_profile_on_diameter():
    u = TestFunctionUc(-1.0, 1.0, 2.0)
    for x in (-0.5, 0.0, 0.7):
        val = u.abs2_boundary(x) * (1 + x * x)
        assert abs(val - math.exp(4 * math.pi)) < 1e-8 * math.exp(4 * math.pi)
    for x in (50.0, -80.0):
        assert abs(u.abs2_boundary(x) * (1 + x * x) - 1.0) < 0.1


def test_uc_thales_half_angle():
    u = TestFunctionUc(-1.0, 1.0, 1.5)
    theta = np.linspace(0.1, math.pi - 0.1, 9)
    rim = np.cos(theta) + 1j * np.sin(theta)  # boundary circle of the disk over (-1,1)
    ang = u.angle_subtended(rim)
    assert np.allclose(ang, math.pi / 2, atol=1e-12)


def test_uc_bounds_sampled():
    u = TestFunctionUc(-0.5, 1.5, 1.0)
    rng = np.random.default_rng(0)
    z = rng.uniform(-4, 4, 400) + 1j * rng.uniform(1e-3, 4.0, 400)
    vals = np.abs(u(z))
    inside = np.abs(z - u.a / 2 - u.b / 2 - 0j) < (u.b - u.a) / 2
    cap = np.where(inside, math.exp(math.pi * u.c), math.exp(math.pi * u.c / 2))
    assert np.all(vals <= cap / np.abs(z + 1j) + 1e-12)


def test_rayleigh_identity_and_translation():
    u = TestFunctionUc(-0.5, 0.5, 2.0)
    assert abs(rayleigh_quotient(phi_identity(), u) - 1.0) < 1e-9
    assert abs(rayleigh_quotient(phi_translation(3.0), u) - 1.0) < 1e-8


def test_rayleigh_quotient_takes_only_concentrating_test_functions():
    """Every caller passes a TestFunctionUc, whose norm is a closed form;
    any other test function is refused."""
    for u in (lambda z: 1.0 / (z + 1j), (-0.5, 0.5, 2.0)):
        with pytest.raises(PreconditionError, match="TestFunctionUc"):
            rayleigh_quotient(phi_identity(), u)


def test_uc_rejects_what_it_cannot_compute():
    for a, b in [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(PreconditionError, match="finite"):
            TestFunctionUc(a, b, 1.0)
    for c in (math.nextafter(C_MAX, math.inf), 112.9, math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(PreconditionError, match="C_MAX"):
            TestFunctionUc(-0.5, 0.5, c)
    with pytest.raises(PreconditionError, match="C_MAX"):
        constant_A_upper(phi_identity(), (-0.5, 0.5), with_rayleigh=True, c_values=(200.0,))
    # the largest accepted c gives a finite quotient, without a warning
    assert abs(rayleigh_quotient(phi_identity(), TestFunctionUc(-0.5, 0.5, C_MAX)) - 1.0) < 1e-9
    for phi in (phi_from_catalog("sqrt"), phi_from_catalog("zlog"),
                phi_from_catalog("zloglin", alpha=0.0)):
        for a, b in [(-0.5, 0.5), (-40.5, -39.5)]:
            assert 0.0 < rayleigh_quotient(phi, TestFunctionUc(a, b, C_MAX)) <= 1.0


def test_rayleigh_sqrt_concentrated():
    q = rayleigh_quotient(phi_from_catalog("sqrt"), TestFunctionUc(-0.1, 0.1, 10.0))
    assert q <= 0.05


def test_a_upper_identity():
    res = constant_A_upper(phi_identity(), (0.0, 1.0))
    assert abs(res.value - 1.0) < 1e-9


def test_a_upper_sqrt_small_interval():
    res = constant_A_upper(phi_from_catalog("sqrt"), (-0.01, 0.01), with_rayleigh=True)
    assert res.value <= 1e-2
    assert res.rayleigh_quotients[16.0] < 0.05


def test_a_upper_zloglin_recorded_positive():
    res = constant_A_upper(phi_from_catalog("zloglin", alpha=0.0), (2.0, 2.5))
    assert res.value > 0.1


@pytest.mark.filterwarnings("error")
def test_a_upper_counts_overlapping_pieces_once(overlap_pair):
    """A map whose density pieces overlap has the A bound of the same
    density in disjoint pieces, without a RuntimeWarning.  The overlap was
    scanned twice, once inside each piece's segment, and the bound read
    1.4717 against 1.0339."""
    over, disjoint = (constant_A_upper(phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, mu)),
                                       (0.56, 2.56)).value for mu in overlap_pair(0.02))
    assert over == pytest.approx(disjoint, rel=1e-12)
    assert abs(over - 1.0339) < 1e-4


def test_constant_b_identity():
    est = constant_B(phi_identity(), small_grid([-1.0, 0.0, 2.5]))
    assert abs(est.value - 1.0) < 1e-9


def test_constant_bc_sqrt():
    grid = small_grid([0.0, 0.5, -0.25])
    b = constant_B(phi_from_catalog("sqrt"), grid)
    c = constant_C(phi_from_catalog("sqrt"), grid)
    assert c.value <= 0.01
    assert b.value <= c.value + 1e-9
    # refinement trend: per-length minima do not increase
    assert b.per_length_min[-1] <= b.per_length_min[0] + 1e-12


def test_constant_b_zlog_vanishes():
    grid = small_grid([-30.0, -20.0, -10.0, 0.0, 5.0])
    est = constant_B(phi_from_catalog("zlog"), grid)
    assert est.value < 1e-6


def test_b_below_c_per_query():
    phi = phi_from_catalog("sqrt")
    for (a, b) in [(-0.2, 0.3), (0.0, 1.0 / 16.0)]:
        from uhprange import preimage_interval_measure
        _, mi = preimage_interval_measure(phi, (a, b))
        md = preimage_disk_measure(phi, DiskQuery(a, b))
        assert mi <= md + 1e-12


def test_constant_d_identity_and_sqrt():
    est = constant_D(phi_identity(), tau_grid=np.linspace(-3, 3, 7))
    assert abs(est.value - 1.0) < 1e-9
    est_s = constant_D(phi_from_catalog("sqrt"), tau_grid=[-0.5, 0.0, 0.5])
    assert est_s.value <= 1e-3


def test_constant_d_zloglin_two_root_oracle():
    # independent oracle: two outer-branch roots by plain bisection, masses
    # (x^2-1)/(x^2+1), summed
    phi = phi_from_catalog("zloglin", alpha=0.0)

    def phi_val(x):
        return x + math.log((x - 1) / (x + 1)) if x > 1 else \
            x + math.log((x - 1) / (x + 1))

    def root(lo, hi, tau):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi_val(mid) < tau:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def oracle(tau):
        x_r = root(1.0 + 1e-13, 1e6, tau)
        x_l = root(-1e6, -1.0 - 1e-13, tau)
        return sum((x * x - 1.0) / (x * x + 1.0) for x in (x_l, x_r))

    taus = [-1.0, 0.0, 0.7]
    est = constant_D(phi, tau_grid=taus)
    expected = min(oracle(t) for t in taus)
    assert abs(est.value - expected) < 1e-6


def test_grid_refinement_never_increases():
    phi = phi_from_catalog("zloglin", alpha=0.0)
    coarse = QueryGrid((0.0, 1.0), (1.0, 0.25))
    fine = coarse.union(QueryGrid((0.5, -1.5, 0.0), (2.0**-6,)))
    assert constant_B(phi, fine).value <= constant_B(phi, coarse).value + 1e-12
    assert constant_C(phi, fine).value <= constant_C(phi, coarse).value + 1e-12


def test_halving_consistency_at_argmin():
    phi = phi_from_catalog("sqrt")
    est = constant_C(phi, small_grid([0.0]))
    a, b = est.argmin
    m = 0.5 * (a + b)
    parent = preimage_disk_measure(phi, DiskQuery(a, b)) / (b - a)
    left = preimage_disk_measure(phi, DiskQuery(a, m)) / (m - a)
    right = preimage_disk_measure(phi, DiskQuery(m, b)) / (b - m)
    assert min(left, right) <= parent + 1e-10


def test_boole_check_values():
    assert boole_check(RealMeasure.point_mass(0.0)) < 1e-10
    assert boole_check(RealMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])) < 1e-8
    assert boole_check(RealMeasure.cantor(depth=10)) < 1e-3


def test_boole_check_rejects_ac():
    with pytest.raises(PreconditionError):
        boole_check(RealMeasure.uniform(0.0, 1.0))


def test_letac_check_cases():
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0)))
    assert letac_check(phi, [(0.0, 1.0)]) < 1e-10
    assert letac_check(phi_translation(2.0), [(0.0, 1.0), (-3.0, 5.0)]) < 1e-10
    with pytest.raises(PreconditionError):
        letac_check(phi_from_catalog("sqrt"), [(0.0, 1.0)])


def test_report_routes_match_single_constants():
    grid = small_grid([-2.0, -0.3, 0.0, 0.7, 1.5], (1.0, 0.25, 2.0**-6))
    taus = (-1.5, 0.0, 0.4, 2.0)
    for phi in (phi_from_catalog("zloglin", alpha=0.0), phi_from_catalog("sqrt")):
        rep = closed_range_report(phi, grid=grid, tau_grid=taus, with_rayleigh=False)
        single = constant_A_upper(phi, rep.A_argmin).value
        assert abs(rep.A_upper - single) <= 1e-14 * abs(single)
        assert rep.B_est == constant_B(phi, grid).value
        assert rep.C_est == constant_C(phi, grid).value
        d = constant_D(phi, tau_grid=taus)
        assert rep.D_est == d.value
        # the batched tau sweep equals one tau at a time, bit for bit
        for tau, value in zip(taus, d.detail["values"]):
            atom_total, sc, _ = clark_singular_mass(phi, tau, y_grid=_D_Y_GRID)
            assert value == atom_total + sc


def test_report_rayleigh_evidence_matches_single_query():
    for phi in (phi_from_catalog("zloglin", alpha=0.0), phi_from_catalog("sqrt")):
        rep = closed_range_report(phi)
        single = constant_A_upper(phi, rep.A_argmin, with_rayleigh=True)
        assert rep.rayleigh_evidence == single.rayleigh_quotients
        assert list(rep.rayleigh_evidence) == [1.0, 4.0, 16.0]


def _translation_pole():
    return phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0)))


#: The acceptance maps with the A-argmin intervals of their reports on
#: grids of 11 centers and 5 lengths (the benchmark's report size).
_EVIDENCE_CASES = {
    "identity": (phi_identity, (-11.125, -10.875)),
    "translation_pole": (_translation_pole, (-7.93125, -7.86875)),
    "zloglin0": (lambda: phi_from_catalog("zloglin", alpha=0.0), (-0.03125, 0.03125)),
    "sqrt": (lambda: phi_from_catalog("sqrt"), (-0.03125, 0.03125)),
    "zlog": (lambda: phi_from_catalog("zlog"), (-40.5, -39.5)),
}


@pytest.mark.parametrize("name", list(_EVIDENCE_CASES))
def test_rayleigh_evidence_equals_single_quotients(name):
    make, (a, b) = _EVIDENCE_CASES[name]
    phi = make()
    single = {c: rayleigh_quotient(phi, TestFunctionUc(a, b, c)) for c in (1.0, 4.0, 16.0)}
    assert _rayleigh_evidence(phi, (a, b)) == single


def test_rayleigh_evidence_takes_few_rounds(monkeypatch):
    """The three quotients of a report's evidence share their adaptive
    rounds: the four maps of the benchmark's timed reports take at most 140
    rounds (236 with one pass per quotient) for the same panels."""
    work = {"rounds": 0, "panels": 0}
    gauss = _quad._gauss_batch

    def counted(f, lo, hi, owner):
        work["rounds"] += 1
        work["panels"] += len(lo)
        return gauss(f, lo, hi, owner)

    monkeypatch.setattr(_quad, "_gauss_batch", counted)
    cases = [_EVIDENCE_CASES[name] for name in ("identity", "zloglin0", "sqrt", "zlog")]
    for make, interval in cases:
        _rayleigh_evidence(make(), interval)
    batched = dict(work)
    work.update(rounds=0, panels=0)
    for make, (a, b) in cases:
        for c in (1.0, 4.0, 16.0):
            rayleigh_quotient(make(), TestFunctionUc(a, b, c))
    assert batched["rounds"] <= 140 < work["rounds"]
    assert batched["panels"] == work["panels"]


@pytest.mark.parametrize("name", ["sqrt", "zloglin0"])
def test_contraction_check_is_max_of_single_quotients(name):
    phi = _EVIDENCE_CASES[name][0]()
    rng = np.random.default_rng(88)
    single = []
    for _ in range(20):
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.2, 3.0))
        single.append(rayleigh_quotient(phi, TestFunctionUc(a, b, float(rng.uniform(0.25, 3.0)))))
    assert contraction_check(phi, m=20, seed=88) == max(single)


def test_malformed_grids_rejected():
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0)))
    for centers, lengths in [((0.0, 1.0), (1.0, 0.0)), ((0.0,), (-0.5,)),
                             ((math.nan,), (1.0,)), ((0.0, math.inf), (1.0,)),
                             ((0.0,), (math.inf,)), ((0.0,), (math.nan,))]:
        with pytest.raises(PreconditionError):
            constant_B(phi, QueryGrid(centers, lengths))
    for taus in [(0.0, math.nan), (math.inf,), (-math.inf, 1.0), ()]:
        with pytest.raises(PreconditionError):
            constant_D(phi, tau_grid=taus)
        with pytest.raises(PreconditionError):
            closed_range_report(phi, grid=small_grid([0.0], (1.0,)), tau_grid=taus,
                                with_rayleigh=False)


def test_d_zlog_deep_taus_converge():
    """zlog's roots at these taus sit near 8.8e-8, 3.1e-7 and 7e-6, and
    their tail sets at y = 1e6 are 1e-13 to 1e-11 wide.  Every tau
    converges, and the D values match those of a reference that bisects
    every root to xtol 0."""
    phi = phi_from_catalog("zlog")
    taus = (-16.25, -15.0, -11.875, 0.5)
    est = constant_D(phi, tau_grid=taus)
    assert est.detail["nonconverged"] == ()
    reference = (8.764246683203004e-08, 3.0590213334949497e-07, 6.962207777632486e-06,
                 0.43382828703782245)
    for value, ref in zip(est.detail["values"], reference):
        assert abs(value - ref) <= 1e-9 * ref
    for tau in taus:
        assert clark_singular_mass(phi, tau, y_grid=_D_Y_GRID)[2].converged


def test_d_reports_nonconverged_tail_limits():
    """rho = 0.1 sqrt(t (1 - t)) dt on (0, 1) gives phi(0) = 0.05 pi and no
    atom at that tau; the density of mu_tau blows up like 1/sqrt(t) at 0
    from one side only, so only the upper tail is non-empty and the two
    tails disagree at every y (as they do under bisection to xtol 0)."""
    rho = RealMeasure(ac_pieces=(AcPiece(0.0, 1.0, lambda t: 0.1 * np.sqrt(t * (1.0 - t)),
                                         0.5, 0.5),))
    phi = phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, rho))
    taus = (0.05 * math.pi, 1.0)
    est = constant_D(phi, tau_grid=taus)
    assert est.detail["nonconverged"] == (taus[0],)
    tails = {tau: clark_singular_mass(phi, tau, y_grid=_D_Y_GRID)[2] for tau in taus}
    for tau in taus:
        assert tails[tau].converged == (tau not in est.detail["nonconverged"])
    assert min(tails[taus[0]].upper) > 1e-5 and max(tails[taus[0]].lower) == 0.0
    rep = closed_range_report(phi, grid=small_grid([3.0], (1.0,)), tau_grid=taus,
                              with_rayleigh=False)
    assert rep.d_nonconverged == 1


def test_report_identity_long_interval():
    rep = closed_range_report(phi_identity(), grid=QueryGrid((0.0,), (20.0,)),
                              tau_grid=(0.0,), with_rayleigh=False)
    assert abs(rep.A_upper - 1.0) < 1e-12
    assert rep.verdict == "closed_range"


def test_report_translation_pole_rayleigh():
    # the Rayleigh quadrature samples the pole of phi at the atom x = 0
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.point_mass(0.0)))
    rep = closed_range_report(phi, grid=small_grid([-1.0, 0.5, 2.0], (1.0, 0.25)),
                              tau_grid=(0.0, 1.5), with_rayleigh=True)
    assert rep.verdict == "closed_range"
    assert len(rep.rayleigh_evidence) == 3
    assert all(abs(q - 1.0) < 1e-8 for q in rep.rayleigh_evidence.values())
