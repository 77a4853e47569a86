import math

import numpy as np
import pytest

from uhprange import (AcPiece, NevanlinnaData, PreconditionError, RealMeasure,
                      cauchy_transform, clark_atoms, clark_density, clark_measure,
                      clark_measures, g_tau, phi_from_catalog, phi_from_nevanlinna,
                      phi_identity, phi_translation, singular_mass_tsereteli)


def arcsine_measure():
    dens = AcPiece(-1.0, 1.0,
                   lambda t: 1.0 / (math.pi * np.sqrt(np.clip(1 - t * t, 1e-300, None))),
                   left_exponent=-0.5, right_exponent=-0.5)
    return RealMeasure(ac_pieces=(dens,))


def test_point_mass_transform_is_reciprocal():
    G = cauchy_transform(RealMeasure.point_mass(0.0))
    for x in (-2.0, -0.5, 1.0, 3.0):
        assert abs(G.real_value(x) + 1.0 / x) < 1e-14
    assert abs(G.eval(1j) - 1.0 / (0 - 1j)) < 1e-14


def test_transform_increasing_between_atoms():
    G = cauchy_transform(RealMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    xs = np.linspace(0.05, 0.95, 50)
    vals = G.real_value(xs)
    assert np.all(np.diff(vals) > 0)


def test_arcsine_normalization():
    G = cauchy_transform(arcsine_measure())
    for y in (1e2, 1e4):
        assert abs(G.eval(1j * y) * (1j * y) + 1.0) < 5.0 / y


def test_transform_positive_imaginary_part():
    mu = RealMeasure.from_atoms([(0.0, 0.3)]).combined(RealMeasure.uniform(1, 2, mass=0.7))
    G = cauchy_transform(mu)
    rng = np.random.default_rng(5)
    z = rng.uniform(-4, 4, 200) + 1j * rng.uniform(0.05, 3.0, 200)
    assert np.all(G.eval(z).imag > 0)


def test_g_tau_identity_map():
    G = g_tau(phi_identity(), 0.0)
    z = 0.4 + 1.1j
    assert abs(G.eval(z) + 1.0 / z) < 1e-14


def test_g_tau_sqrt_closed_form():
    G = g_tau(phi_from_catalog("sqrt"), 0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
        expect = -1.0 / (np.sqrt(z - 1) * np.sqrt(z + 1))
        assert abs(G.eval(z) - expect) < 1e-12


def test_g_tau_translation_is_point_mass_transform():
    alpha = 1.5
    tau = 4.0
    G = g_tau(phi_translation(alpha), tau)
    H = cauchy_transform(RealMeasure.point_mass(tau - alpha))
    z = -0.7 + 0.9j
    assert abs(G.eval(z) - H.eval(z)) < 1e-13


def test_g_tau_resolvent_identity():
    phi = phi_from_catalog("zloglin", alpha=2.0)
    G = g_tau(phi, 1.0)
    z = 0.3 + 0.8j
    assert abs(G.eval(z) * (1.0 - phi.eval(z)) - 1.0) < 1e-12


def test_clark_atom_translation():
    cm = clark_measure(phi_translation(2.0), 5.0)
    assert len(cm.atoms) == 1
    pos, mass = cm.atoms[0]
    assert abs(pos - 3.0) < 1e-11 and abs(mass - 1.0) < 1e-12
    assert cm.ac_mass == 0.0


def test_clark_atom_zlog_family():
    phi = phi_from_catalog("zlog")
    for t in (0.1, 1.0, 10.0):
        atoms = clark_atoms(phi, t + math.log(t))
        assert len(atoms) == 1
        pos, mass = atoms[0]
        assert abs(pos - t) < 1e-9
        assert abs(mass - t / (1.0 + t)) < 1e-9


def test_clark_sqrt_tau0_densities():
    phi = phi_from_catalog("sqrt")
    assert clark_atoms(phi, 0.0) == []
    for x in (0.0, 0.5, -0.5, 0.9, -0.9):
        expect = 1.0 / (math.pi * math.sqrt(1.0 - x * x))
        assert abs(clark_density(phi, 0.0, x) - expect) < 1e-12


def test_clark_normalization():
    cases = [(phi_from_catalog("sqrt"), 0.0), (phi_from_catalog("sqrt"), 0.7),
             (phi_from_catalog("zlog"), 1.0),
             (phi_from_catalog("zloglin", alpha=0.0), 0.0),
             (phi_from_catalog("zloglin", alpha=0.0), 1.3),
             (phi_from_catalog("sqrtpole", alpha=-1.0), -0.75),
             (phi_from_catalog("sqrtpole", alpha=-1.0), 2.0),
             (phi_translation(1.0), -2.0)]
    for phi, tau in cases:
        cm = clark_measure(phi, tau)
        assert abs(cm.total_mass - 1.0) < 1e-6, (phi.name, tau, cm.total_mass)
        assert all(0 < m <= 1.0 + 1e-12 for (_, m) in cm.atoms)


def test_clark_round_trip():
    rng = np.random.default_rng(11)
    for phi, tau in [(phi_from_catalog("sqrt"), 0.3),
                     (phi_from_catalog("zloglin", alpha=0.0), 0.7)]:
        cm = clark_measure(phi, tau)
        G_direct = g_tau(phi, tau)
        G_rebuilt = cauchy_transform(cm.measure)
        z = rng.uniform(-3, 3, 100) + 1j * rng.uniform(0.25, 3.0, 100)
        gap = np.abs(G_rebuilt.eval(z) - G_direct.eval(z))
        assert float(gap.max()) < 1e-5, (phi.name, float(gap.max()))


def _clark_fields(cm):
    """Every computed field of a ClarkMeasure, as text that tells floats
    apart bit for bit (repr round-trips, and shows -0.0 and nan)."""
    return repr((cm.tau, cm.atoms, cm.ac_segments, cm.ac_mass, cm.sc_mass_estimate,
                 cm.diagnostics, [(xs.tobytes(), ds.tobytes()) for xs, ds in cm.density_tables],
                 [(p.left, p.right, p.left_exponent, p.label) for p in cm.measure.ac_pieces]))


@pytest.mark.parametrize("make_phi", [
    lambda: phi_from_catalog("zloglin", alpha=0.0),
    lambda: phi_from_catalog("sqrt"),
    lambda: phi_from_catalog("sqrtpole", alpha=-1.0),
    lambda: phi_from_catalog("zlog"),
    lambda: phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(
        [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)]))),
    lambda: phi_translation(2.0),
], ids=["zloglin0", "sqrt", "sqrtpole_m1", "zlog", "atoms3", "translation"])
def test_clark_measures_batch_invariant(make_phi):
    # shuffled, with duplicates, spanning atoms, densities and segment ends
    taus = [2.75, -1.0, 0.0, 5.1, -2.4, 0.0, 1.3, -1.0, 0.7]
    batch = clark_measures(make_phi(), taus)
    phi = make_phi()
    assert [cm.tau for cm in batch] == taus
    for tau, cm in zip(taus, batch):
        assert _clark_fields(cm) == _clark_fields(clark_measure(phi, tau)), tau


def test_clark_measures_rejects_nonfinite_tau():
    phi = phi_from_catalog("sqrt")
    assert clark_measures(phi, []) == []
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="tau must be finite"):
            clark_measures(phi, [0.0, bad])
        with pytest.raises(PreconditionError, match="tau must be finite"):
            clark_measure(phi, bad)


def test_tsereteli_point_mass():
    est = singular_mass_tsereteli(cauchy_transform(RealMeasure.point_mass(0.0)))
    assert abs(est.estimate - 1.0) < 1e-8
    assert est.converged


def test_tsereteli_uniform_vanishes():
    est = singular_mass_tsereteli(cauchy_transform(RealMeasure.uniform(0, 1)),
                                  y_grid=(1e2, 1e3, 1e4, 1e5))
    assert est.estimate < 1e-3


def test_tsereteli_mixed_half():
    mu = RealMeasure.from_atoms([(0.0, 0.5)]).combined(
        RealMeasure.uniform(0.0, 1.0, mass=0.5))
    est = singular_mass_tsereteli(cauchy_transform(mu), y_grid=(1e2, 1e3, 1e4, 1e5))
    assert abs(est.estimate - 0.5) < 0.01
    assert est.converged
    # raw values at the largest grid level stay within two percent
    assert abs(est.upper[-1] - 0.5) < 0.01 and abs(est.lower[-1] - 0.5) < 0.01


def test_tsereteli_grid_validation():
    G = cauchy_transform(RealMeasure.point_mass(0.0))
    with pytest.raises(PreconditionError):
        singular_mass_tsereteli(G, y_grid=(1e2, 2e2, 3e2))


def test_nonfinite_y_grid_is_rejected():
    """A y grid with a non-finite level is named as the wrong input, by
    Tsereteli's estimate (it gave NaN with a RuntimeWarning), by the
    spectral measures and by D (they blamed the disks' diameters)."""
    from uhprange import constant_D
    grid = [1.0, 10.0, math.inf]
    G = cauchy_transform(RealMeasure.point_mass(0.0))
    phi = phi_translation(1.0)
    for call in (lambda: singular_mass_tsereteli(G, y_grid=grid),
                 lambda: clark_measure(phi, 0.0, y_grid=grid),
                 lambda: constant_D(phi, y_grid=grid)):
        with pytest.raises(PreconditionError, match="y grid must be finite"):
            call()


def test_clark_requires_contraction():
    phi = phi_from_nevanlinna(NevanlinnaData(0.0, 0.5, RealMeasure.zero()))
    with pytest.raises(PreconditionError):
        clark_measure(phi, 0.0)


def test_boundary_re_inside_infinite_piece():
    # p.v. of dt / ((1+t^2)(t-x)) over (-inf, -1): by partial fractions,
    # (log|x+1| - log(2)/2 - x pi/4) / (1+x^2)
    halfline = AcPiece(-math.inf, -1.0, lambda t: 1.0 / (1.0 + t * t))
    G = cauchy_transform(RealMeasure(ac_pieces=(halfline,)))
    for x in (-2.0, -100.0):
        exact = (math.log(abs(x + 1.0)) - 0.5 * math.log(2.0) - 0.25 * math.pi * x) / (1 + x * x)
        assert abs(G.boundary_re(x) - exact) < 1e-13
    assert np.isfinite(G.boundary_re(0.5))
