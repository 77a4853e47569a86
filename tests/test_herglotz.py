import math
import warnings

import numpy as np
import pytest

from uhprange import (AcPiece, DomainError, NevanlinnaData,
                      PreconditionError, RealMeasure, phi_from_catalog,
                      phi_from_nevanlinna, phi_identity, phi_translation)


def delta_map(alpha=0.0):
    """alpha + z - 1/z, from a unit point mass at the origin."""
    return phi_from_nevanlinna(
        NevanlinnaData(alpha, 1.0, RealMeasure.point_mass(0.0, 1.0)))


def test_identity_eval():
    assert phi_identity().eval(1j) == 1j


def test_point_mass_map():
    # (1 + 0*z)/(0 - z) = -1/z, so phi(i) = i + i = 2i
    assert abs(delta_map().eval(1j) - 2j) < 1e-14


def test_translation():
    assert phi_translation(3.0).eval(5 + 2j) == 8 + 2j


def test_eval_domain_error():
    with pytest.raises(DomainError):
        phi_identity().eval(1 - 1j)
    with pytest.raises(DomainError):
        phi_from_catalog("sqrt").eval(2.0 + 0j)


def test_catalog_sqrt_values():
    phi = phi_from_catalog("sqrt")
    assert abs(phi.eval(1j) - 1j * math.sqrt(2)) < 1e-14
    assert abs(phi.eval(2j) - 1j * math.sqrt(5)) < 1e-14
    assert abs(phi.boundary_value(2.0) - math.sqrt(3)) < 1e-14
    assert abs(phi.boundary_value(0.5) - 1j * math.sqrt(0.75)) < 1e-14
    assert abs(phi.boundary_value(-2.0) + math.sqrt(3)) < 1e-14


def test_catalog_zlog_values():
    phi = phi_from_catalog("zlog")
    assert phi.boundary_value(1.0) == 1.0
    assert abs(phi.derivative(1.0) - 2.0) < 1e-14
    with pytest.raises(DomainError):
        phi.boundary_value(0.0)


def test_catalog_zloglin_real_branches():
    phi = phi_from_catalog("zloglin", alpha=0.0)
    xs = np.concatenate([np.linspace(-8, -1.01, 40), np.linspace(1.01, 8, 40)])
    w = phi.boundary(xs)
    assert np.all(w.imag == 0.0)
    inside = phi.boundary(np.linspace(-0.99, 0.99, 21))
    assert np.allclose(inside.imag, math.pi)


def test_catalog_unknown():
    with pytest.raises(PreconditionError):
        phi_from_catalog("nope")
    with pytest.raises(PreconditionError):
        phi_from_catalog("sqrt", alpha=1.0)


def test_derivative_values():
    assert phi_identity().derivative(0.7) == 1.0
    assert abs(delta_map().derivative(2.0) - 1.25) < 1e-14


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(0)
    maps = [phi_from_catalog("sqrt"), phi_from_catalog("zloglin", alpha=1.0),
            delta_map(0.5)]
    for phi in maps:
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            h = 1e-6
            fd = (phi.eval(z + h) - phi.eval(z - h)) / (2 * h)
            assert abs(phi.derivative(z) - fd) / abs(fd) < 1e-6


def test_derivative_domain_error():
    with pytest.raises(DomainError):
        phi_from_catalog("sqrt").derivative(0.5)  # not on a real branch


def test_herglotz_positivity():
    rng = np.random.default_rng(7)
    z = rng.uniform(-10, 10, 1000) + 1j * rng.uniform(1e-3, 10, 1000)
    for name, params in [("sqrt", {}), ("zlog", {}), ("zloglin", {"alpha": 2.0}),
                         ("sqrtpole", {"alpha": -1.0})]:
        phi = phi_from_catalog(name, **params)
        assert np.all(phi._eval_complex(z).imag > 0), name
    rho = RealMeasure.from_atoms([(-1.0, 0.4), (2.0, 0.7)])
    phi = phi_from_nevanlinna(NevanlinnaData(0.3, 1.0, rho))
    assert np.all(phi._eval_complex(z).imag > 0)


def test_boundary_monotone_on_branches():
    for phi in (phi_from_catalog("sqrt"), phi_from_catalog("zlog"),
                phi_from_catalog("sqrtpole", alpha=0.5), delta_map()):
        for br in phi.real_branches:
            lo = br.left if np.isfinite(br.left) else min(br.right, 0.0) - 50.0
            hi = br.right if np.isfinite(br.right) else max(br.left, 0.0) + 50.0
            xs = np.linspace(lo, hi, 201)[1:-1]
            ys = phi.boundary_real(xs)
            assert np.all(np.diff(ys) > 0)
            mid = xs[len(xs) // 2]
            assert phi.derivative(float(mid)) > 0


def test_nevanlinna_asymptotic_slope():
    rho = RealMeasure.from_atoms([(0.5, 2.0)]).combined(
        RealMeasure.uniform(-1.0, 0.0, mass=1.0))
    data = NevanlinnaData(-4.0, 1.0, rho)
    phi = phi_from_nevanlinna(data)
    for y in (1e3, 1e6):
        ratio = phi.eval(1j * y) / (1j * y)
        scale = (abs(data.alpha) + rho.total_mass() * 3.0) / y
        assert abs(ratio - 1.0) < 10 * scale + 1e-9


def test_poisson_boundary_imaginary_part():
    dens = AcPiece(-1.0, 1.0, lambda t: 1.0 / (math.pi * (1.0 + t * t)))
    phi = phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, RealMeasure(ac_pieces=(dens,))))
    w = phi.boundary_value(0.0)
    # the imaginary part is pi*(1+x^2)*density(x) = 1 at x=0
    assert abs(w.imag - 1.0) < 1e-13


def test_boundary_value_at_atom_raises():
    with pytest.raises(DomainError):
        delta_map().boundary_value(0.0)
    # the vectorized boundary is the pole's value there
    assert delta_map().boundary(np.asarray([0.0]))[0] == complex(math.inf, 0.0)


def test_iterate_identity_and_translation():
    assert phi_identity().iterate(5).eval(0.3 + 0.4j) == 0.3 + 0.4j
    phi = phi_translation(0.7)
    z = 1.1 + 0.2j
    assert abs(phi.iterate(3).eval(z) - (z + 2.1)) < 1e-12


def test_iterate_is_composition():
    phi = phi_from_catalog("zloglin", alpha=5.0)
    z = 0.2 + 1.3j
    assert phi.iterate(2).eval(z) == phi.eval(phi.eval(z))


def test_iterate_semigroup():
    phi = phi_from_catalog("zloglin", alpha=5.0)
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 20) + 1j * rng.uniform(0.3, 2.0, 20)
    lhs = phi.iterate(5)._eval_complex(z)
    rhs = phi.iterate(2)._eval_complex(phi.iterate(3)._eval_complex(z))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_iterate_branch_pullback():
    phi = phi_from_catalog("zloglin", alpha=5.0)
    phi3 = phi.iterate(3)
    assert len(phi3.real_branches) == 8  # both branches cover the whole line
    for br in phi3.real_branches:
        lo = br.left if np.isfinite(br.left) else br.right - 10
        hi = br.right if np.isfinite(br.right) else br.left + 10
        xs = np.linspace(lo, hi, 33)[1:-1]
        ys = phi3.boundary_real(xs)
        assert np.all(np.diff(ys) > 0)


def test_iterate_carries_a_pole_value():
    """The base map's inf at an atom passes through the next step unchanged
    (phi(x) ~ x at infinity), so the composition's branch tables build and
    its Clark atoms keep Letac's total mass 1."""
    from uhprange import clark_atoms
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(
        [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)])))
    phi3 = phi.iterate(3)
    assert phi3.boundary(np.asarray([0.0]))[0] == complex(math.inf, 0.0)
    atoms = clark_atoms(phi3, 0.3)
    assert len(atoms) == 64  # four full-range branches, 4**3 roots
    assert abs(sum(m for _, m in atoms) - 1.0) < 1e-12


def test_branch_table_keeps_its_range_from_an_end_off_by_ulps():
    """A branch of the 3-atom map's third power, (0.47941081895419624,
    0.5461268797421517), built from its left end one ulp lower and from
    both neighbours of that end: a probe within rounding of the end would
    evaluate beyond the pole (about +4e14) and flatten the running maximum
    of the table, so no probe is nearer a finite end than 4 eps |end|.
    Each table keeps the branch's full value range, and the Clark atom at
    0.3 is found."""
    from uhprange import Branch
    from uhprange._roots import BranchTable
    phi3 = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure.from_atoms(
        [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.3)]))).iterate(3)
    shifted, right = 0.4794108189541962, 0.5461268797421517
    roots = []
    for left in (np.nextafter(shifted, 0.0), shifted, np.nextafter(shifted, 1.0)):
        tbl = BranchTable(Branch(float(left), right), phi3._boundary_pair)
        lo, hi = tbl.value_range
        assert lo < -1e13 and hi > 1e14
        roots.append(tbl.solve(np.asarray([0.3]))[0])
    assert np.all(np.isfinite(roots)) and max(roots) - min(roots) <= 1e-15


def test_sqrt_density_piece_is_built_once():
    """sqrt and sqrtpole share one density piece, whose mass sqrt(2) - 1
    is integrated once per process."""
    piece = phi_from_catalog("sqrt").rho.ac_pieces[0]
    assert phi_from_catalog("sqrtpole", alpha=-1.0).rho.ac_pieces[0] is piece
    assert phi_from_catalog("sqrt").rho.ac_pieces[0] is piece
    assert abs(piece.mass - (math.sqrt(2.0) - 1.0)) <= 1e-14


def test_beta_not_one_rejected_by_analysis():
    from uhprange import clark_measure
    phi = phi_from_nevanlinna(NevanlinnaData(0.0, 2.0, RealMeasure.zero()))
    with pytest.raises(PreconditionError):
        clark_measure(phi, 0.0)


def test_untabulable_branch_is_package_error():
    from uhprange import Branch, UhprangeError
    from uhprange._roots import BranchTable
    with pytest.raises(UhprangeError, match="could not be tabulated"):
        BranchTable(Branch(0.0, 1.0), lambda x: (np.full(np.shape(x), np.nan), None))


def test_branch_table_drops_nan_probes():
    """A NaN probe is dropped before the running maximum, so the finite
    tail of the table survives; tables without NaN are the running maximum
    of the probes with the non-finite entries dropped afterwards, as
    before."""
    from uhprange import Branch
    from uhprange._roots import BranchTable, probe_points
    branch = Branch(0.0, 1.0)
    xs = probe_points(branch)

    def f(x):
        y = np.log(x / (1.0 - x))
        y[np.isin(x, xs[:5])] = np.nan
        return y
    tbl = BranchTable(branch, lambda x: (f(x), None))
    assert np.array_equal(tbl.xs, xs[5:]) and np.array_equal(tbl.ys, np.log(xs[5:] / (1 - xs[5:])))
    maps = [phi_from_catalog(name, **({"alpha": 0.5} if name in ("zloglin", "sqrtpole") else {}))
            for name in ("sqrt", "zlog", "zloglin", "sqrtpole")]
    maps.append(delta_map(0.5))
    for phi in maps:
        for b in phi.real_branches:
            ys = np.maximum.accumulate(phi.boundary_real(probe_points(b)))
            tbl = phi.branch_table(b)
            keep = np.isfinite(ys)
            assert np.array_equal(tbl.xs, probe_points(b)[keep]) and np.array_equal(tbl.ys, ys[keep])


def test_far_positions_are_refused_by_the_map():
    """A representation map refuses an atom or a finite piece end at
    |x| >= 1e8, where its branch and segment tables cannot reach, with a
    PreconditionError that names the bound; an infinite end is no
    position, and 9e7 is built.  similarity_certificate on an atom at 2e8
    failed with a bare ValueError from value_limit, constant_B with "branch
    (2e8, inf) could not be tabulated"."""
    far = [RealMeasure.point_mass(2e8, 0.5), RealMeasure.point_mass(-1e8, 0.5),
           RealMeasure.uniform(0.0, 3e8, 0.5), RealMeasure.poisson(-math.inf, -2e8),
           RealMeasure.cantor(1e8, 1e8 + 1.0, 0.5, depth=4)]
    for rho in far:
        with pytest.raises(PreconditionError, match=r"scan limit: \|x\| < 1e\+08"):
            phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, rho))
    for rho in (RealMeasure.point_mass(9e7, 0.5), RealMeasure.poisson(-math.inf, -1e7)):
        assert phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, rho)).real_branches


def test_sc_measure_blocks_branch_enumeration():
    from uhprange import UnsupportedStructureError, preimage_interval_measure
    rho = RealMeasure.cantor(depth=8)
    phi = phi_from_nevanlinna(NevanlinnaData(0.0, 1.0, rho))
    assert abs(phi.eval(2j).imag) > 0  # evaluation still works
    with pytest.raises(UnsupportedStructureError):
        preimage_interval_measure(phi, (0.0, 1.0))


def test_boundary_value_on_a_quadrature_node_warns_nothing():
    # The point is a node of the first Gauss panel of the density's left
    # half, where the representation kernel divides by zero.
    from uhprange import _quad
    uniform = AcPiece(0.0, 1.0, lambda t: np.full_like(np.asarray(t, float), 0.5))
    phi = phi_from_nevanlinna(NevanlinnaData(1.0, 1.0, RealMeasure(ac_pieces=(uniform,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi.boundary_real([0.25 + 0.25 * _quad._NODES[3]])


_CATALOG_MAPS = [("sqrt", {}), ("zlog", {}), ("zloglin", {"alpha": 0.0}),
                 ("zloglin", {"alpha": 5.0}), ("sqrtpole", {"alpha": -1.0}),
                 ("sqrtpole", {"alpha": 0.5})]


@pytest.mark.parametrize("name,params", _CATALOG_MAPS)
def test_catalog_map_is_its_representation_data(name, params):
    """A catalog map is the representation map of its own data, phi.data,
    evaluated by closed forms: the same structure, values at Im z from
    1e-6 to 1e3 and boundary values on and off the non-real segments (1e-3
    or more from a piece end or an atom) to 1e-12 relative (measured: at
    most 3.4e-13 on the sqrt maps, 1.2e-15 on the poisson ones), and
    derivatives at Im z >= 0.1 to 1e-12.  Nearer the cut the callable sqrt
    piece's adaptive derivative is less accurate (1.3e-11 at Im z = 1e-3,
    1.3e-7 at 1e-6), and at |z| ~ 1e3 its absolute error, about 1e-12,
    is that relative to phi' ~ 1."""
    phi = phi_from_catalog(name, **params)
    rep = phi_from_nevanlinna(phi.data)
    for attr in ("real_branches", "nonreal_segments", "support_hull", "alpha",
                 "branches_complete", "beta"):
        assert getattr(rep, attr) == getattr(phi, attr), attr
    ends = np.asarray([e for seg in phi.nonreal_segments for e in seg if np.isfinite(e)]
                      + [p for p, _ in phi.rho.atoms])
    x = np.concatenate([-np.geomspace(1e-3, 1e3, 25), np.geomspace(1e-3, 1e3, 25),
                        np.linspace(-0.95, 0.95, 11)])
    x = x[np.all(np.abs(x[:, None] - ends[None, :]) > 1e-3, axis=1)]

    def close(f, g, points, tol=1e-12):
        ref = g(points)
        return np.all(np.abs(f(points) - ref) <= tol * np.maximum(1.0, np.abs(ref)))
    assert close(rep.eval, phi.eval, (x[:, None] + 1j * np.geomspace(1e-6, 1e3, 10)).ravel())
    assert close(rep.boundary, phi.boundary, x)
    near = x[np.abs(x) <= 1e2]
    assert close(rep.derivative, phi.derivative,
                 (near[:, None] + 1j * np.geomspace(0.1, 1e2, 9)).ravel())


@pytest.mark.parametrize("name,params", _CATALOG_MAPS)
def test_catalog_report_takes_no_kernel_integral(monkeypatch, name, params):
    """A catalog map's report runs on its closed forms alone: a lost
    override would reach the representation's kernel integrals and show
    only as a slowdown."""
    from uhprange import QueryGrid, closed_range_report, herglotz

    def refuse(*args, **kwargs):
        raise AssertionError("a catalog map reached kernel_integral")
    monkeypatch.setattr(herglotz, "kernel_integral", refuse)
    phi = phi_from_catalog(name, **params)
    rep = closed_range_report(phi, grid=QueryGrid((-1.0, 0.0, 0.5, 2.0), (1.0, 0.25)),
                              tau_grid=(-1.0, 0.0, 0.5))
    assert np.isfinite(list(rep.estimates().values())).all()


@pytest.mark.parametrize("name,params", [("sqrt", {}), ("sqrtpole", {"alpha": 0.0}),
                                         ("sqrtpole", {"alpha": -1.0})])
def test_catalog_slope_at_the_branch_points_is_nan(name, params):
    """At the branch points +-1 of sqrt(z-1) sqrt(z+1) the slope is NaN, as
    a representation map's is on a piece end, and no RuntimeWarning is
    raised (the suite turns one into an error): the closed form divided by
    zero there and gave +-inf+nanj.  The values and the derivative
    elsewhere keep their closed forms."""
    phi = phi_from_catalog(name, **params)
    x = np.asarray([-1.0, 1.0])
    value, slope = phi._boundary_pair(x)
    assert np.isnan(slope).all()
    assert np.isnan(phi_from_nevanlinna(phi.data)._boundary_pair(x)[1]).all()
    assert np.array_equal(value, phi._boundary_pair(x, slope=False)[0])
    z = np.asarray([0.5j, 2.0, -3.0 + 1e-9j])
    pole = 1.0 / (1.0 - z) ** 2 if name == "sqrtpole" else 0.0
    assert np.array_equal(phi._derivative_complex(z),
                          z / (np.sqrt(z - 1.0) * np.sqrt(z + 1.0)) + pole)


def _branch_samples(branch):
    """Points across a real branch: from 2^-1 to 2^-45 of its scale in
    from every finite end, its middle, and out to +-1e8 toward an infinite
    end, the strictly interior ones."""
    l, r = branch.left, branch.right
    x = [np.asarray([0.5 * (max(l, -1e8) + min(r, 1e8))]),
         np.geomspace(1.0, 1e8, 9), -np.geomspace(1.0, 1e8, 9)]
    for e, s in ((l, 1.0), (r, -1.0)):
        if np.isfinite(e):
            x.append(e + s * min(max(1.0, abs(e)), r - l) * 2.0 ** -np.arange(1.0, 46.0, 4.0))
    x = np.concatenate(x)
    return np.unique(x[(x > l) & (x < r)])


def _representation_map(name):
    """The map of a row of the CLI's representation config matrix."""
    from test_cli import _REPRESENTATION_ROWS
    from uhprange.cli import build_phi
    return build_phi({"phi": {"nevanlinna": _REPRESENTATION_ROWS[name][0]}})


# every catalog map, and every row of the CLI matrix whose map is built (the
# rows at 2e8 and -1e8 are refused), all of which have real branches
_PAIR_MAPS = ([(f"{name}{params}", lambda n=name, p=params: phi_from_catalog(n, **p))
               for name, params in _CATALOG_MAPS]
              + [(name, lambda n=name: _representation_map(n))
                 for name in ("atom_9e7", "atoms3", "beta2", "cantor", "empty", "halfline",
                              "halfline_atom", "overlap", "readme", "readme_no_cantor",
                              "translation_pole")])


@pytest.mark.parametrize("name,make", _PAIR_MAPS, ids=[n for n, _ in _PAIR_MAPS])
def test_boundary_pair_on_the_real_branches_is_float64(name, make):
    """On the real branches a catalog or representation map's boundary pair
    is float64, and its bits are the real parts of the complex pair that
    the same points give together with one point inside a non-real
    segment; boundary() stays complex128."""
    phi = make()
    assert phi.real_branches
    x = np.concatenate([_branch_samples(b) for b in phi.real_branches])
    value, slope = phi._boundary_pair(x)
    assert value.dtype == np.float64 and slope.dtype == np.float64
    assert np.isfinite(value).all() and (slope > 0).all()
    assert np.array_equal(phi._boundary_pair(x, slope=False)[0].view(np.int64),
                          value.view(np.int64))
    w = phi.boundary(x)
    assert w.dtype == np.complex128 and np.array_equal(w.real, value) and not w.imag.any()
    for l, r in phi.nonreal_segments:
        inside = 0.5 * (l + r) if np.isfinite(l + r) else (l + 1.0 if np.isfinite(l) else r - 1.0)
        ref, ref_slope = phi._boundary_pair(np.append(x, inside))
        assert ref.dtype == np.complex128 and ref[-1].imag > 0
        assert np.array_equal(ref.real[:-1].copy().view(np.int64), value.view(np.int64))
        assert np.array_equal(np.real(ref_slope)[:-1].copy().view(np.int64), slope.view(np.int64))
