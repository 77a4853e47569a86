import math
import time
import warnings

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
    with pytest.raises(PreconditionError):
        RealMeasure.uniform(0.0, 1.0, mass=-0.5)  # negative density mass
    with pytest.raises(PreconditionError):
        RealMeasure.uniform(0.0, 1.0, mass=math.nan)


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
    "named_arcsine": RealMeasure.arcsine(-1.0, 1.0),
    "named_poisson": RealMeasure.poisson(-1.0, 2.0),
    "named_halfline": RealMeasure.poisson(-math.inf, -1.0),
}
_PHIS = {name: phi_from_nevanlinna(NevanlinnaData(0.5, 1.0, mu))
         for name, mu in _MEASURES.items()}
_TRANSFORMS = {name: cauchy_transform(mu) for name, mu in _MEASURES.items()}


def _same(batched, singles) -> bool:
    """Equal bit for bit (signed zeros and NaNs included)."""
    batched = np.asarray(batched)
    return batched.tobytes() == np.asarray(singles, dtype=batched.dtype).tobytes()


def _ends(mu: RealMeasure) -> list[float]:
    ends = [p for (p, _) in mu.atoms]
    ends += [e for q in mu.ac_pieces + mu.sc_pieces for e in (q.left, q.right)]
    return sorted(e for e in ends if math.isfinite(e))


@st.composite
def _batches(draw):
    """A measure and a batch of real points and imaginary parts, in which
    points at 2**-k from a piece end lie on both sides of the distance
    (measures._NEAR_END) below which a piece given by its density alone
    is NaN next to a singular end.  Imaginary parts go down to 1e-9, but
    to 1e-3 only above the inside of such a piece: below that the adaptive
    path there can exhaust its panel budget.  Named pieces take their
    closed forms down to 1e-9 everywhere."""
    name = draw(st.sampled_from(sorted(_MEASURES)))
    mu = _MEASURES[name]
    ends = _ends(mu)

    def offsets(ks):
        return st.builds(lambda e, s, k: e + s * 2.0**-k, st.sampled_from(ends),
                         st.sampled_from([-1.0, 1.0]), ks)
    xs = (draw(st.lists(offsets(st.integers(1, 9)), min_size=1, max_size=3))
          + draw(st.lists(offsets(st.integers(14, 40)), min_size=1, max_size=3))
          + draw(st.lists(st.floats(-4.0, 4.0), max_size=4)))
    xs = draw(st.permutations(xs))
    ys = [draw(st.floats(-3.0 if any(q.left < x < q.right and q.closed_form is None
                                     for q in mu.ac_pieces) else -9.0,
                         0.7).map(lambda e: 10.0**e))
          for x in xs]
    return name, np.asarray(xs), np.asarray(ys)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # Re G at a density's end
@settings(max_examples=60, deadline=None)
@given(batch=_batches())
def test_transforms_batch_invariant(batch):
    """Array calls equal one-point calls bit for bit."""
    name, xs, ys = batch
    zs = xs + 1j * ys
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


@settings(max_examples=20, deadline=None)
@given(xs=st.lists(st.floats(-0.999999, 0.999999), min_size=1, max_size=12))
def test_pv_cauchy_substituted_batch_invariant(xs):
    """The same with singular ends (NaN points included) and an infinite one."""
    for f, a, b, p, xs in ((_arcsine, -1.0, 1.0, -0.5, np.asarray(xs)),
                           (_poisson, -math.inf, 2.0, 0.0, 2.0 - np.exp(10 * np.asarray(xs)))):
        assert _same(_quad.pv_cauchy(f, a, b, xs, 1e-10, p, p),
                     [_quad.pv_cauchy(f, a, b, x, 1e-10, p, p) for x in xs])


# -- density pieces given by a callable, far from and next to their ends ------------

from uhprange.herglotz import _kernel, _kernel_derivative  # noqa: E402
from uhprange.measures import _NEAR_END, cauchy_kernel, kernel_integral  # noqa: E402

_EPS = np.finfo(float).eps


def _uniform_exact(kernel, z):
    """Closed forms on uniform(0, 1, mass=0.5), with L = log((1-z)/(0-z))."""
    h, L = 0.5, np.log((1.0 - z) / (0.0 - z))
    if kernel is cauchy_kernel:
        return h * L
    if kernel is _kernel:  # h [z (b-a) + (1+z^2) L]
        return h * (z + (1.0 + z * z) * L)
    return h * (1.0 + 2.0 * z * L + (1.0 + z * z) * (1.0 / (0.0 - z) - 1.0 / (1.0 - z)))


def _poisson_exact(a, b):
    """Closed forms on the density 1/(1+t^2) over (a, b), b finite: by
    partial fractions, int dt/((1+t^2)(t-z)) = F(b) - F(a) with
    F(t) = [log(t-z) - log(1+t^2)/2 - z atan(t)] / (1+z^2)."""
    def exact(kernel, z):
        def F(t):
            return np.log(t - z) - 0.5 * math.log(1.0 + t * t) - z * math.atan(t)
        if math.isinf(a):  # log(t-z) - log|t| -> -i pi above the axis, +i pi on it
            Fa = np.where(z.imag > 0, -1j * math.pi, 1j * math.pi) + z * (0.5 * math.pi)
        else:
            Fa = F(a)
        cauchy = (F(b) - Fa) / (1.0 + z * z)
        if kernel is cauchy_kernel:
            return cauchy
        if kernel is _kernel:  # (1+tz)/(t-z) = z + (1+z^2)/(t-z)
            mass = math.atan(b) - (-0.5 * math.pi if math.isinf(a) else math.atan(a))
            return z * mass + (1.0 + z * z) * cauchy
        return (0.0 if math.isinf(a) else 1.0 / (a - z)) - 1.0 / (b - z)
    return exact


def _arcsine_exact(kernel, z):
    """Closed forms on arcsine(-1, 1): G = -1 / (sqrt(z-1) sqrt(z+1)) and
    G' = -G z / ((z-1)(z+1)), combined as in _uniform_exact."""
    g = -1.0 / (np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
    if kernel is cauchy_kernel:
        return g
    if kernel is _kernel:
        return z + (1.0 + z * z) * g
    return 1.0 + 2.0 * z * g - (1.0 + z * z) * g * z / ((z - 1.0) * (z + 1.0))


_FAR_CASES = {
    "uniform": (AcPiece(0.0, 1.0, lambda t: np.full_like(np.asarray(t, float), 0.5)),
                _uniform_exact, (cauchy_kernel, _kernel, _kernel_derivative)),
    "arcsine": (_MEASURES["arcsine"].ac_pieces[0], _arcsine_exact, (cauchy_kernel,)),
    "poisson": (_MEASURES["poisson"].ac_pieces[0], _poisson_exact(-1.0, 2.0),
                (cauchy_kernel, _kernel, _kernel_derivative)),
    "halfline": (_MEASURES["halfline"].ac_pieces[0], _poisson_exact(-math.inf, -1.0),
                 (cauchy_kernel, _kernel, _kernel_derivative)),
}


def _far_points(piece):
    """Points at distances 1e-3 to 1e3 from each finite end of the piece,
    outward along the axis, slanted and straight up, and above its
    inside, with their distances."""
    ds = np.geomspace(1e-3, 1e3, 61)
    zs = []
    for end, out in ((piece.left, -1.0), (piece.right, 1.0)):
        if math.isfinite(end):
            for angle in (0.0, 0.25, 0.5):
                zs.append(end + ds * complex(out * math.cos(angle * math.pi),
                                             math.sin(angle * math.pi)))
    if math.isfinite(piece.left) and math.isfinite(piece.right):
        zs.append(piece.left + 0.3 * (piece.right - piece.left) + 1j * ds)
    return np.concatenate(zs), np.tile(ds, len(zs))


#: Per kernel of _FAR_CASES (Cauchy, representation, derivative): the
#: largest absolute error at far points of the fixed graded Gauss rule that
#: once served them, which the adaptive path is held to within a factor 2.
_FAR_ERRORS = {"uniform": (5.8e-15, 5.6e-11, 6.8e-11),
               "poisson": (3.6e-15, 3.6e-13, 1.8e-11),
               "halfline": (7.1e-14, 1.5e-13, 2.4e-10)}


@pytest.mark.parametrize("name", sorted(_FAR_CASES))
def test_far_rule_accuracy(name):
    """At far points of a piece given by its density alone, the adaptive
    path matches closed forms, out to distance 1e3; real points are also
    given as a real array."""
    piece, exact, kernels = _FAR_CASES[name]
    mu = RealMeasure(ac_pieces=(piece,))
    zs, dist = _far_points(piece)
    real = zs.imag == 0
    cases = [(kernel, zs, dist) for kernel in kernels] + [(cauchy_kernel, zs[real].real, dist[real])]
    for kernel, z, d in cases:
        ref = exact(kernel, z.astype(complex))
        value = kernel_integral(mu, kernel, z)
        assert value.dtype == z.dtype
        err = np.abs(value - ref)
        if name == "arcsine":
            # What is left is the rounding of the nodes next to an end,
            # about eps / d at most.
            assert np.all(err <= (4 * _EPS + 0.1 * _EPS / d) * np.abs(ref)), kernel.__name__
        else:
            bound = 2.0 * _FAR_ERRORS[name][kernels.index(kernel)]
            assert np.all(err <= bound + 4 * _EPS * np.abs(ref)), kernel.__name__


def test_callable_singular_end():
    """A piece with the arcsine density given alone, at 2**-k, k = 1..52,
    outside, straight above and above-inside each end: kernel integrals,
    boundary values of its map and real values of its transform are within
    1e-12 of the closed forms, or NaN nearer an end e than _NEAR_END |e|.
    Such points were wrong by up to 1e137 when the substitution took its
    Jacobian at the node rather than at the t it rounds to."""
    start = time.perf_counter()
    mu, G, phi = _MEASURES["arcsine"], _TRANSFORMS["arcsine"], _PHIS["arcsine"]
    d = 2.0 ** -np.arange(1, 53)
    x = np.concatenate([-1.0 - d, 1.0 + d])
    z = np.concatenate([x, -1.0 + 1j * d, 1.0 + 1j * d, -1.0 + d + 1j * d, 1.0 - d + 1j * d])

    def check(value, ref, points):
        dist = np.abs(points - np.sign(points.real))
        lost = np.isnan(value)
        assert np.all(dist[lost] < _NEAR_END)
        assert np.all(np.abs(value[~lost] - ref[~lost]) <= 1e-12 * np.abs(ref[~lost]))

    for kernel in (cauchy_kernel, _kernel, _kernel_derivative):
        check(kernel_integral(mu, kernel, z), _arcsine_exact(kernel, z), z)
    check(phi.boundary_real(x), 0.5 + x + _arcsine_exact(_kernel, x + 0j).real, x)
    check(G.real_value(x), _arcsine_exact(cauchy_kernel, x + 0j).real, x)
    # Shifted to (0, 2), the end at 0 rounds no t, and every point resolves.
    shifted = RealMeasure(ac_pieces=(AcPiece(0.0, 2.0, lambda t: 1.0 / (math.pi * np.sqrt(t * (2.0 - t))),
                                             -0.5, -0.5),))
    z = np.concatenate([-d, 1j * d, d + 1j * d])
    value, ref = kernel_integral(shifted, cauchy_kernel, z), _arcsine_exact(cauchy_kernel, z - 1.0)
    assert np.all(np.abs(value - ref) <= 1e-12 * np.abs(ref))
    # On a piece 1e-7 wide, nodes round onto the ends; its mass exhausted
    # the panel budget while their Jacobian was 0 there.
    a, b = 1.0, 1.0 + 1e-7
    narrow = AcPiece(a, b, lambda t: 1.0 / (math.pi * np.sqrt((t - a) * (b - t))), -0.5, -0.5)
    assert abs(narrow.mass - 1.0) <= 1e-11
    assert time.perf_counter() - start < 2.0


def test_piece_mass_integrated_once(monkeypatch):
    """A piece's mass is integrated once, however many measures hold it."""
    calls = []
    integrate_domains = _quad.integrate_domains
    monkeypatch.setattr(_quad, "integrate_domains",
                        lambda *a, **k: calls.append(a[1:3]) or integrate_domains(*a, **k))
    piece = AcPiece(-1.0, 2.0, _poisson)
    mu = RealMeasure(ac_pieces=(piece,))
    both = mu.combined(RealMeasure.point_mass(3.0, 0.5))
    assert both.total_mass() == piece.mass + 0.5
    assert calls == [(-1.0, 2.0)]


# -- closed forms of the named density pieces ---------------------------------------

from uhprange import phi_from_catalog  # noqa: E402

_NAMED = {
    "uniform": (RealMeasure.uniform(0.0, 1.0, mass=0.5), _uniform_exact),
    "arcsine": (RealMeasure.arcsine(-1.0, 1.0), _arcsine_exact),
    "poisson": (RealMeasure.poisson(-1.0, 2.0), _poisson_exact(-1.0, 2.0)),
    "halfline": (RealMeasure.poisson(-math.inf, -1.0), _poisson_exact(-math.inf, -1.0)),
}


def _oracle_scale(name, kernel, z):
    """The sizes of the terms that the oracle of a _NAMED piece adds up.
    Its rounding error is a few eps times this, which exceeds eps |value|
    where the oracle cancels: the logarithms of the uniform and poisson
    oracles far away, and the poisson one divided by 1 + z^2 near +-i."""
    az, q = np.abs(z), np.abs(1.0 + z * z)
    if name in ("poisson", "halfline"):
        a, b = (-1.0, 2.0) if name == "poisson" else (-math.inf, -1.0)
        if kernel is _kernel_derivative:
            return (0.0 if math.isinf(a) else 1.0 / np.abs(a - z)) + 1.0 / np.abs(b - z)

        def size(t):
            return 1.0 + np.abs(np.log(t - z)) + 0.5 * math.log1p(t * t) + az * abs(math.atan(t))
        num = size(b) + (math.pi * (1.0 + 0.5 * az) if math.isinf(a) else size(a))
        if kernel is cauchy_kernel:
            return (num + np.abs(_NAMED[name][1](cauchy_kernel, z)) * (1.0 + az * az)) / q
        return az * _NAMED[name][0].total_mass() + num
    if name == "uniform":  # a logarithm of a rounded ratio is off by eps (1 + |L|)
        mass, g = 0.5, 0.5 * (1.0 + np.abs(np.log((1.0 - z) / (0.0 - z))))
        dg = 0.5 * (1.0 / az + 1.0 / np.abs(1.0 - z))
    else:
        mass, g = 1.0, np.abs(_arcsine_exact(cauchy_kernel, z))
        dg = g * az / np.abs((z - 1.0) * (z + 1.0))
    if kernel is cauchy_kernel:
        return g
    if kernel is _kernel:
        return az * mass + q * g
    return mass + 2.0 * az * g + q * dg


def _named_points(name, piece):
    """Points at distances 2**-40 to 1e8 from each finite end of the piece,
    outward along the axis, slanted and straight up, and above its inside;
    for poisson pieces also points 1e-10 to 0.5 from +-i."""
    ds = np.geomspace(2.0**-40, 1e8, 81)
    zs = []
    for end, out in ((piece.left, -1.0), (piece.right, 1.0)):
        if math.isfinite(end):
            for angle in (0.0, 0.25, 0.5):
                zs.append(end + ds * complex(out * math.cos(angle * math.pi),
                                             math.sin(angle * math.pi)))
    if math.isfinite(piece.left) and math.isfinite(piece.right):
        zs.append(piece.left + 0.3 * (piece.right - piece.left) + 1j * ds)
    if name in ("poisson", "halfline"):
        near = np.geomspace(1e-10, 0.5, 41)
        for angle in np.arange(8) * 0.25 * math.pi:
            zs += [1j + near * np.exp(1j * angle), -1j + near * np.exp(1j * angle)]
    return np.concatenate(zs)


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_closed_form_pieces_match_oracles(name):
    """The three kernels on a named piece agree with the oracles to 1e-13,
    or to a few eps times the oracle's own terms where it cancels; real
    points are also given as a real array."""
    mu, exact = _NAMED[name]
    zs = _named_points(name, mu.ac_pieces[0])
    real = zs[zs.imag == 0].real
    cases = [(kernel, zs) for kernel in (cauchy_kernel, _kernel, _kernel_derivative)]
    for kernel, z in cases + [(cauchy_kernel, real)]:
        value = kernel_integral(mu, kernel, z)
        assert value.dtype == z.dtype
        ref = exact(kernel, z.astype(complex))
        tol = np.maximum(1e-13 * np.abs(ref), 8 * _EPS * _oracle_scale(name, kernel, z.astype(complex)))
        assert np.all(np.abs(value - ref) <= tol), kernel.__name__
    # Where the oracles cancel, G is also checked to 1e-13 against forms
    # that do not: near +-i the mean of the oracle on a circle of radius 0.3
    # (Cauchy's formula, 64 nodes), far from uniform(0, 1) the series
    # -sum_k 0.5 / ((k+1) z^(k+1)) of its moments.
    if name in ("poisson", "halfline"):
        z = zs[np.minimum(np.abs(zs - 1j), np.abs(zs + 1j)) <= 0.1]
        ref = exact(cauchy_kernel, z[:, None] + 0.3 * np.exp(2j * math.pi * np.arange(64) / 64)).mean(1)
    elif name == "uniform":
        z = zs[np.abs(zs) >= 10.0]
        ref = -sum(0.5 / ((k + 1) * z ** (k + 1)) for k in range(24))
    else:
        return
    assert np.all(np.abs(kernel_integral(mu, cauchy_kernel, z) - ref) <= 1e-13 * np.abs(ref))


def test_poisson_series_point_without_warnings():
    """At 5e-324 + i, where 1 + z^2 is subnormal, G is the series value and
    no quotient overflows on the way."""
    mu = RealMeasure.poisson(-1.0, 2.0)
    z = np.asarray([5e-324 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = cauchy_transform(mu).eval(z[0])
    assert value == mu.ac_pieces[0].closed_form._g_series(z, np.asarray([1j]))[0]


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_named_masses_and_cdfs(name):
    """Closed masses and cdfs equal the integrals of the same density."""
    piece = _NAMED[name][0].ac_pieces[0]
    twin = RealMeasure(ac_pieces=(AcPiece(piece.left, piece.right, piece.density,
                                          piece.left_exponent, piece.right_exponent),))
    assert abs(piece.mass - twin.total_mass()) <= 1e-12 * piece.mass
    lo, hi = (max(piece.left, -50.0), min(piece.right, 50.0))
    for x in np.concatenate([lo + (hi - lo) * np.linspace(0.0, 1.0, 9), [piece.right + 1.0]]):
        assert abs(_NAMED[name][0].cdf(x) - twin.cdf(x)) <= 1e-10 * piece.mass


def test_named_poisson_maps_equal_the_catalog():
    """A representation map with poisson(-1, 1) is zloglin(alpha), and one
    with poisson(-inf, 0) is zlog: values, derivatives and boundary values,
    on the branches and inside the support, also 1e-8 to 1e-4 from +-1."""
    d = np.geomspace(1e-8, 1e-4, 9)
    x = np.concatenate([-np.geomspace(1e-6, 1e6, 24), np.geomspace(1e-6, 1e6, 24),
                        -1.0 - d, -1.0 + d, 1.0 - d, 1.0 + d])
    z = np.concatenate([(x[:, None] + 1j * np.geomspace(1e-9, 1e3, 13)[None, :]).ravel()]
                       + [e + d * np.exp(1j * a) for e in (-1.0, 1.0)
                          for a in (0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)])
    pairs = [(NevanlinnaData(alpha, 1.0, RealMeasure.poisson(-1.0, 1.0)),
              phi_from_catalog("zloglin", alpha=alpha)) for alpha in (0.0, 5.0)]
    pairs.append((NevanlinnaData(0.0, 1.0, RealMeasure.poisson(-math.inf, 0.0)),
                  phi_from_catalog("zlog")))
    for data, catalog in pairs:
        phi = phi_from_nevanlinna(data)
        for f, g, points in ((phi.eval, catalog.eval, z), (phi.derivative, catalog.derivative, z),
                             (phi.boundary, catalog.boundary, x)):
            ref = g(points)
            assert np.all(np.abs(f(points) - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_named_pieces_close_to_their_support():
    """Points next to the support that the adaptive path could not do:
    the poisson half-line just above -1.5 and -1 - 2**-k (QuadratureError
    after 2-3 s and over 1 GB each), arcsine(-1, 1) beside its ends at
    1e-8 to 3.2e-3 (wrong by up to 2.5e137) and above 1 - 2**-k (0.5-2 s a
    point).  All of them now take oracle values in well under a second."""
    start = time.perf_counter()
    halfline, poisson = _NAMED["halfline"]
    phi = phi_from_nevanlinna(NevanlinnaData(0.5, 1.0, halfline))
    z = np.concatenate([[-1.5], -1.0 - 2.0 ** -np.arange(1, 9)]) + 1e-9j
    assert np.all(np.abs(phi.derivative(z) - 1.0 - poisson(_kernel_derivative, z))
                  <= 1e-13 * np.abs(phi.derivative(z)))
    ref = 0.5 + z + poisson(_kernel, z)
    assert np.all(np.abs(phi.eval(z) - ref) <= 1e-13 * np.abs(ref))
    arcsine, exact = _NAMED["arcsine"]
    G, phi = cauchy_transform(arcsine), phi_from_nevanlinna(NevanlinnaData(0.5, 1.0, arcsine))
    d = np.geomspace(1e-8, 3.2e-3, 25)
    x = np.concatenate([-1.0 - d, 1.0 + d])
    ref = exact(cauchy_kernel, x.astype(complex)).real
    assert np.all(np.abs(G.real_value(x) - ref) <= 1e-13 * np.abs(ref))
    z = 1.0 - 2.0 ** -np.arange(1, 9) + 1e-9j
    for f, kernel, shift in ((G.eval, cauchy_kernel, 0.0), (phi.eval, _kernel, 0.5 + z),
                             (phi.derivative, _kernel_derivative, 1.0)):
        ref = shift + exact(kernel, z)
        assert np.all(np.abs(f(z) - ref) <= 1e-13 * np.abs(ref)), kernel.__name__
    assert time.perf_counter() - start < 1.0


# -- boundary values inside a density piece -----------------------------------------

from uhprange import ConvergenceError, DomainError  # noqa: E402


@pytest.mark.parametrize("name", ["uniform", "poisson", "halfline", "named_uniform",
                                  "named_arcsine", "named_poisson", "named_halfline"])
def test_plemelj_boundary_matches_closed_form(name):
    """phi(x + i0) = alpha + (beta + |rho|) x + (1+x^2) p.v. G(x)
    + i pi (1+x^2) rho'(x) at 2**-k inside every finite end of the piece,
    k = 1..40, against the closed forms taken from above the axis."""
    if name.startswith("named_"):
        mu, exact = _NAMED[name[len("named_"):]]
        piece = mu.ac_pieces[0]
    else:
        piece, exact, _ = _FAR_CASES[name]
    phi = phi_from_nevanlinna(NevanlinnaData(0.5, 1.0, RealMeasure(ac_pieces=(piece,))))
    steps = 2.0 ** -np.arange(1, 41)
    xs = np.concatenate([end + inward * steps for end, inward in
                         ((piece.left, 1.0), (piece.right, -1.0)) if math.isfinite(end)])
    z = xs + 1e-200j
    ref = 0.5 + z + exact(_kernel, z)
    assert np.all(np.abs(phi.boundary(xs) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_boundary_on_a_density_end():
    """On an end where the density does not vanish, Re G(x + i0) is +inf
    at the left end and -inf at the right one, and so is Re phi(x + i0).
    On an end that two pieces share it is NaN, and the boundary value of a
    map raises and names the point."""
    uniform = _FAR_CASES["uniform"][0]
    mu = RealMeasure(ac_pieces=(uniform,))
    G, phi = cauchy_transform(mu), phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, mu))
    assert list(G.boundary_re(np.asarray([0.0, 1.0]))) == [math.inf, -math.inf]
    assert list(_TRANSFORMS["arcsine"].boundary_re(np.asarray([-1.0, 1.0]))) == [math.inf, -math.inf]
    assert phi.boundary(0.0) == math.inf and phi.boundary(1.0) == -math.inf
    with pytest.raises(DomainError, match="diverges"):
        phi.boundary_value(0.0)
    shared = RealMeasure(ac_pieces=(uniform, RealMeasure.uniform(1.0, 2.0).ac_pieces[0]))
    assert math.isnan(cauchy_transform(shared).boundary_re(1.0))
    with pytest.raises(ConvergenceError, match="x=1.0"):
        phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, shared)).boundary(np.asarray([0.5, 1.0]))


def test_arcsine_principal_values(monkeypatch):
    """Re G of the arcsine law is 0 inside (-1, 1).  Nearer an end than the
    rounding of t resolves, the principal value is NaN, found without
    quadrature, and the boundary value of a map raises and names the point."""
    G, phi = _TRANSFORMS["arcsine"], _PHIS["arcsine"]
    resolved = np.concatenate([[0.3], 1.0 - 2.0 ** -np.arange(1, 10)])
    assert np.all(np.abs(G.boundary_re(np.concatenate([resolved, -resolved]))) <= 1e-10)
    integrate, calls = _quad.integrate_pieces, []
    monkeypatch.setattr(_quad, "integrate_pieces",
                        lambda *args, **kw: calls.append(args) or integrate(*args, **kw))
    for k in range(10, 53):
        for x in (1.0 - 2.0**-k, -1.0 + 2.0**-k):
            calls.clear()
            value = G.boundary_re(x)
            assert (math.isnan(value) and not calls) or abs(value) <= 1e-10
    x = 1.0 - 2.0**-30
    with pytest.raises(ConvergenceError, match=repr(x)):
        phi.boundary(np.asarray([0.0, x]))
