import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhprange import IntervalSet, PreconditionError, RealMeasure


def half_half():
    return RealMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])


def test_total_mass_atoms():
    assert half_half().total_mass() == 1.0


def test_total_mass_uniform():
    assert abs(RealMeasure.uniform(0.0, 1.0).total_mass() - 1.0) < 1e-12


def test_total_mass_cantor():
    assert abs(RealMeasure.cantor(depth=12).total_mass() - 1.0) < 1e-15


def test_singular_mass_decomposition():
    mu = RealMeasure.from_atoms([(0.0, 0.5)]).combined(
        RealMeasure.uniform(0.0, 1.0, mass=0.5))
    assert mu.singular_mass() == 0.5
    assert RealMeasure.uniform(0.0, 1.0).singular_mass() == 0.0
    both = RealMeasure.cantor().combined(RealMeasure.uniform(2.0, 3.0))
    assert both.singular_mass() == 1.0


def test_cdf_atoms():
    assert half_half().cdf(0.5) == 0.5
    assert half_half().cdf(1.0) == 1.0  # right-continuous at the atom
    assert half_half().cdf(-0.1) == 0.0


def test_cdf_uniform():
    assert abs(RealMeasure.uniform(0.0, 1.0).cdf(0.25) - 0.25) < 1e-11


def test_cdf_cantor_golden():
    # value at the first gap edge, from the ternary recursion
    mu = RealMeasure.cantor(depth=12)
    assert abs(mu.cdf(1.0 / 3.0) - 0.5) < 1e-12
    assert abs(mu.cdf(0.5) - 0.5) < 1e-15


def test_integrate_atom_resolvent():
    mu = RealMeasure.point_mass(0.0)
    assert abs(mu.integrate(lambda t: 1.0 / (t - 1j)) - 1j) < 1e-14


def test_integrate_uniform_mean():
    assert abs(RealMeasure.uniform(0.0, 1.0).integrate(lambda t: t) - 0.5) < 1e-11


def test_integrate_two_atoms_resolvent():
    # 1/2 * 1/(0-2i) + 1/2 * 1/(1-2i), by hand
    val = half_half().integrate(lambda t: 1.0 / (t - 2j))
    assert abs(val - (0.1 + 0.45j)) < 1e-14


def test_cdf_reaches_total_mass():
    mu = RealMeasure.from_atoms([(-1.0, 0.25)]).combined(
        RealMeasure.uniform(0.0, 2.0, mass=0.5)).combined(
        RealMeasure.cantor(3.0, 4.0, mass=0.25, depth=10))
    hull = mu.support_hull()
    assert abs(mu.cdf(hull[1] + 1.0) - mu.total_mass()) < 1e-10
    xs = np.linspace(hull[0] - 1, hull[1] + 1, 101)
    vals = [mu.cdf(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_integrate_one_is_total_mass():
    mu = RealMeasure.from_atoms([(0.5, 0.3)]).combined(
        RealMeasure.uniform(-1.0, 0.0, mass=0.4)).combined(
        RealMeasure.cantor(1.0, 2.0, mass=0.3, depth=12))
    val = mu.integrate(lambda t: np.ones_like(t))
    assert abs(val - mu.total_mass()) < 1e-10


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_integrate_linearity(a, b):
    mu = RealMeasure.from_atoms([(0.0, 0.5), (2.0, 0.1)]).combined(
        RealMeasure.uniform(0.0, 1.0, mass=0.4))
    f = lambda t: np.sin(t)
    g = lambda t: 1.0 / (1.0 + t * t)
    lhs = mu.integrate(lambda t: a * f(t) + b * g(t))
    rhs = a * mu.integrate(f) + b * mu.integrate(g)
    assert abs(lhs - rhs) < 1e-9


def test_validation_errors():
    with pytest.raises(PreconditionError):
        RealMeasure.from_atoms([(0.0, 1.0), (0.0, 0.5)])  # duplicate position
    with pytest.raises(PreconditionError):
        RealMeasure.from_atoms([(0.0, -1.0)])  # negative mass
    with pytest.raises(PreconditionError):
        RealMeasure.cantor(middle=1.5)


def test_sc_piece_structure():
    piece = RealMeasure.cantor(depth=8).sc_pieces[0]
    gaps = piece.gaps(3)
    assert len(gaps) == 7  # 2^3 - 1 removed intervals
    pos, w = piece.atomize(8)
    assert len(pos) == 256 and abs(w.sum() - 1.0) < 1e-15
    # CDF is flat across the central gap
    assert piece.cdf(0.4) == piece.cdf(0.6)


def test_interval_set_build():
    s = IntervalSet.build([(0.0, 1.0), (0.5, 2.0), (3.0, 3.0), (4.0, 5.0)])
    assert s.intervals == ((0.0, 2.0), (4.0, 5.0))
    assert abs(s.total_length - 3.0) < 1e-15


# -- batch invariance of measure transforms ----------------------------------------

import math  # noqa: E402

from uhprange import (AcPiece, NevanlinnaData, cauchy_transform,  # noqa: E402
                      phi_from_nevanlinna)
from uhprange import _quad  # noqa: E402


def _poisson(t):
    return 1.0 / (1.0 + t * t)


def _arcsine(t):
    return 1.0 / (math.pi * np.sqrt(np.clip((1.0 - t) * (1.0 + t), 1e-300, None)))


_MEASURES = {
    "atoms": RealMeasure.from_atoms([(-1.5, 0.3), (0.25, 0.5), (2.0, 0.2)]),
    "uniform_atom": RealMeasure.uniform(-1.0, 0.5, mass=0.7).combined(
        RealMeasure.point_mass(1.5, 0.3)),
    "arcsine": RealMeasure(ac_pieces=(AcPiece(-1.0, 1.0, _arcsine, -0.5, -0.5),)),
    "poisson": RealMeasure(ac_pieces=(AcPiece(-1.0, 2.0, _poisson),)),
    "halfline": RealMeasure(ac_pieces=(AcPiece(-math.inf, -1.0, _poisson),)),
    "cantor_atom": RealMeasure.cantor(0.0, 1.0, 0.5, depth=6).combined(
        RealMeasure.point_mass(-2.0, 0.5)),
}
_PHIS = {name: phi_from_nevanlinna(NevanlinnaData(0.5, 1.0, mu))
         for name, mu in _MEASURES.items()}
_TRANSFORMS = {name: cauchy_transform(mu) for name, mu in _MEASURES.items()}


def _same(batched, singles) -> bool:
    """Equal bit for bit (signed zeros and NaNs included)."""
    batched = np.asarray(batched)
    return batched.tobytes() == np.asarray(singles, dtype=batched.dtype).tobytes()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # Re G at a density's end
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_MEASURES)),
       xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=10),
       ys=st.lists(st.floats(1e-3, 5.0), min_size=10, max_size=10))
def test_transforms_batch_invariant(name, xs, ys):
    """Array calls equal one-point calls bit for bit."""
    xs = np.asarray(xs)
    zs = xs + 1j * np.asarray(ys[:len(xs)])
    phi, G, mu = _PHIS[name], _TRANSFORMS[name], _MEASURES[name]
    for f in (phi.eval, phi.derivative, G.eval):
        assert _same(f(zs), [f(z) for z in zs])
    on = np.asarray([phi.branch_of(x) is not None for x in xs])
    if on.any():
        assert _same(phi.boundary_real(xs[on]), [phi.boundary_real(x) for x in xs[on]])
    off = np.ones(len(xs), dtype=bool)
    finite = np.ones(len(xs), dtype=bool)
    for piece in mu.ac_pieces:
        off &= (xs < piece.left) | (xs > piece.right)
        if math.isinf(piece.left) or math.isinf(piece.right):
            finite &= (xs < piece.left) | (xs > piece.right)
    if off.any():
        assert _same(G.real_value(xs[off]), [G.real_value(x) for x in xs[off]])
    keep = finite & ~np.isin(xs, G.point_masses()[0])
    if keep.any():
        assert _same(G.boundary_re(xs[keep]), [G.boundary_re(x) for x in xs[keep]])


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.floats(-0.999, 1.999), min_size=1, max_size=12))
def test_pv_cauchy_batch_invariant(xs):
    xs = np.asarray(xs)
    assert _same(_quad.pv_cauchy(_poisson, -1.0, 2.0, xs),
                 [_quad.pv_cauchy(_poisson, -1.0, 2.0, x) for x in xs])
