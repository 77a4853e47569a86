import math

import numpy as np
import pytest

from uhprange import (DiskQuery, NevanlinnaData, PreconditionError, QueryGrid,
                      RealMeasure, TestFunctionUc, boole_check, clark_singular_mass,
                      closed_range_report, constant_A_upper, constant_B, constant_C,
                      constant_D, letac_check, phi_from_catalog, phi_from_nevanlinna,
                      phi_identity, phi_translation, preimage_disk_measure,
                      rayleigh_quotient)
from uhprange.range_analysis import _D_Y_GRID


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


def test_d_reports_nonconverged_tail_limits():
    phi = phi_from_catalog("zlog")
    taus = (-16.25, -15.0, -11.875, 0.5)
    est = constant_D(phi, tau_grid=taus)
    assert est.detail["nonconverged"] == (-16.25, -15.0, -11.875)
    for tau in taus:
        _, _, tails = clark_singular_mass(phi, tau, y_grid=_D_Y_GRID)
        assert tails.converged == (tau not in est.detail["nonconverged"])
    rep = closed_range_report(phi, grid=small_grid([0.0, 3.0], (1.0,)), tau_grid=taus,
                              with_rayleigh=False)
    assert rep.d_nonconverged == 3


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
