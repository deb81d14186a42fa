import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere_mt import (FOUR_PI, HarmonicSpectrum, MobiusMap, ResolutionError,
                       ScalarField, analyze, average, bubble_mass, bubble_pair,
                       build_grid, constant_field, dirichlet_energy,
                       evaluate, green_two_pole, green_two_pole_value,
                       integrate, laplacian, max_bubble_t, max_degree,
                       mobius_factor, mobius_pullback, planar_bubble,
                       synthesize)
from sphere_mt import conformal
from sphere_mt.conformal import NORTH, SOUTH, _meridian_spline, mobius_point_map

from _oracles import evaluate_at_points, pair_energy, single_bubble_energy

LN2 = np.log(2.0)


def exp2(field):
    return np.exp(2.0 * field.values)


# ------------------------------------------------------------ MobiusMap

def test_mobius_map_validation():
    with pytest.raises(ValueError):
        MobiusMap(np.array([0.0, 0.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        MobiusMap(NORTH, 0.5)
    with pytest.raises(ValueError):
        MobiusMap(NORTH, np.nan)
    assert MobiusMap(NORTH, 1.0).is_identity


# -------------------------------------------------------- mobius_factor

def test_factor_identity_is_zero(grid_default):
    w = mobius_factor(MobiusMap(NORTH, 1.0), grid_default)
    assert np.max(np.abs(w.values)) == 0.0


def test_factor_matches_stereographic_form(grid_default):
    # independent route: exp(w) = t (1 + z^2) / (1 + t^2 z^2), z = tan(theta/2)
    t = 2.0
    w = mobius_factor(MobiusMap(NORTH, t), grid_default)
    z2 = np.tan(grid_default.theta / 2.0) ** 2
    expect = np.log(t * (1.0 + z2) / (1.0 + t * t * z2))
    assert np.max(np.abs(w.values - expect[:, None])) <= 1e-12
    # value at the pole is ln t (z -> 0 limit of the same formula)
    assert np.log(t * (1.0 + 0.0) / (1.0 + 0.0)) == pytest.approx(0.693147, abs=1e-6)


def test_factor_area_preservation(grid_default):
    for t in (1.0, 2.0, 4.0, 8.0):
        w = mobius_factor(MobiusMap(NORTH, t), grid_default)
        area = integrate(ScalarField(grid_default, exp2(w)))
        assert area == pytest.approx(FOUR_PI, rel=1e-8)
    # off-axis pole
    pole = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    w = mobius_factor(MobiusMap(pole, 3.0), grid_default)
    area = integrate(ScalarField(grid_default, exp2(w)))
    assert area == pytest.approx(FOUR_PI, rel=1e-8)


def test_factor_curvature_equation(grid_default):
    L = max_degree(grid_default)
    for t in (2.0, 4.0, 8.0):
        w = mobius_factor(MobiusMap(NORTH, t), grid_default)
        lap = synthesize(laplacian(analyze(w, L)), grid_default)
        resid = lap.values + exp2(w) - 1.0
        assert np.max(np.abs(resid)) <= 1e-5


def test_factor_energy_matches_radial_oracle(grid_default):
    for t in (2.0, 5.0):
        w = mobius_factor(MobiusMap(NORTH, t), grid_default)
        E = dirichlet_energy(analyze(w, max_degree(grid_default)))
        assert E == pytest.approx(single_bubble_energy(t), rel=1e-10)


@pytest.mark.parametrize("shape", [(64, 128), (65, 130)])
def test_axis_factor_is_the_full_grid_formula(shape):
    # an axis pole takes c = p . x on one meridian and broadcasts it; the
    # values must be bitwise those of the full-grid formula, also on the
    # odd grid's equator row, where c = +-0
    grid = build_grid(*shape)
    for pole in (NORTH, SOUTH):
        c = grid.xyz @ pole
        for t in (1.0, 1.5, 4.0):
            expect = np.log(2.0 * t) - np.log((1.0 + c) + t * t * (1.0 - c))
            w = mobius_factor(MobiusMap(pole, t), grid)
            assert w.values.tobytes() == expect.tobytes()


def test_factor_resolution_bound(grid_default):
    assert max_bubble_t(grid_default) == pytest.approx(8.0)
    with pytest.raises(ResolutionError):
        mobius_factor(MobiusMap(NORTH, 8.5), grid_default)


# ------------------------------------------------------ mobius_pullback

def test_pullback_of_zero_is_factor(grid_default):
    # an axis pole and a tilted one, which takes the scattered path
    for pole in (NORTH, np.array([1.0, 2.0, 2.0]) / 3.0):
        m = MobiusMap(pole, 3.0)
        tu = mobius_pullback(constant_field(grid_default, 0.0), m)
        w = mobius_factor(m, grid_default)
        assert np.max(np.abs(tu.values - w.values)) <= 1e-12
        assert abs(evaluate(tu).onofri_J) <= 1e-6


def synthesize_random(grid, L, scale, seed):
    rng = np.random.default_rng(seed)
    c = scale * rng.standard_normal((L + 1) ** 2)
    return synthesize(HarmonicSpectrum(L=L, coeff=c), grid)


def test_pullback_identity(grid_default):
    f = synthesize_random(grid_default, L=8, scale=0.3, seed=2)
    tu = mobius_pullback(f, MobiusMap(NORTH, 1.0))
    assert np.array_equal(tu.values, f.values)


def test_pullback_preserves_exponential_mass(grid_default):
    # the quintic-spline composition keeps the mass to 1e-8; composition
    # compresses features by ~t^2 near the antipode, so the grid must
    # still resolve exp(2 Tu); L=6 at t=2 leaves ample margin
    f = synthesize_random(grid_default, L=6, scale=0.15, seed=4)
    mass0 = integrate(ScalarField(grid_default, exp2(f)))
    tu = mobius_pullback(f, MobiusMap(NORTH, 2.0))
    mass1 = integrate(ScalarField(grid_default, exp2(tu)))
    assert mass1 == pytest.approx(mass0, rel=1e-8)


def test_pullback_mass_error_is_pure_quadrature():
    # the same composed field integrated on a refined grid recovers the
    # original mass to machine precision (the identity is exact)
    rng = np.random.default_rng(4)
    L = 8
    coeff = 0.3 * rng.standard_normal((L + 1) ** 2)
    spec = HarmonicSpectrum(L=L, coeff=coeff)
    g0 = build_grid(64, 128)
    mass0 = integrate(ScalarField(g0, exp2(synthesize(spec, g0))))
    m = MobiusMap(NORTH, 2.0)
    fine = build_grid(128, 256)
    target = mobius_point_map(m, fine.xyz)
    thp = np.arccos(np.clip(target[:, :, 2], -1.0, 1.0))
    php = np.mod(np.arctan2(target[:, :, 1], target[:, :, 0]), 2.0 * np.pi)
    composed = evaluate_at_points(coeff, thp, php).reshape((128, 256))
    tu = composed + mobius_factor(m, fine).values
    mass1 = integrate(ScalarField(fine, np.exp(2.0 * tu)))
    assert mass1 == pytest.approx(mass0, rel=1e-12)


def test_pullback_group_law(grid_default):
    f = synthesize_random(grid_default, L=6, scale=0.2, seed=6)
    m1 = MobiusMap(NORTH, 1.5)
    m2 = MobiusMap(NORTH, 2.0)
    m12 = MobiusMap(NORTH, 3.0)
    once = mobius_pullback(mobius_pullback(f, m1), m2)
    direct = mobius_pullback(f, m12)
    assert np.max(np.abs(once.values - direct.values)) <= 1e-6


def test_pullback_of_zero_sits_on_equality_case(grid_default):
    for t in (1.0, 2.0, 3.0, 5.0):
        tu = mobius_pullback(constant_field(grid_default, 0.0),
                             MobiusMap(NORTH, t))
        rep = evaluate(tu)
        assert abs(rep.onofri_J) <= 1e-6


def scattered_pullback(u, m):
    """u o phi_m + w_m from an independent fit: fitpack's interpolating
    quintic RectBivariateSpline of the values extended by 6 rows across
    each pole (u(-th, ph) = u(th, ph+pi)) and 6 columns across each end
    of the period, evaluated point by point at every node's target."""
    from scipy.interpolate import RectBivariateSpline

    grid = u.grid
    pad = 6
    rolled = np.roll(u.values, grid.n_phi // 2, axis=1)
    theta_ext = np.concatenate([-grid.theta[:pad][::-1], grid.theta,
                                2.0 * np.pi - grid.theta[-pad:][::-1]])
    rows = np.vstack([rolled[:pad][::-1], u.values, rolled[-pad:][::-1]])
    phi_ext = np.concatenate([grid.phi[-pad:] - 2.0 * np.pi, grid.phi,
                              grid.phi[:pad] + 2.0 * np.pi])
    ext = np.concatenate([rows[:, -pad:], rows, rows[:, :pad]], axis=1)
    spline = RectBivariateSpline(theta_ext, phi_ext, ext, kx=5, ky=5)

    target = mobius_point_map(m, grid.xyz)
    thp = np.arccos(np.clip(target[:, :, 2], -1.0, 1.0))
    php = np.mod(np.arctan2(target[:, :, 1], target[:, :, 0]), 2.0 * np.pi)
    composed = spline.ev(thp.ravel(), php.ravel())
    return composed.reshape(u.values.shape) + mobius_factor(m, grid).values


def test_axis_pullback_matches_scattered_evaluation(grid_default):
    # an axis pole is evaluated by a spline in theta alone; it must agree
    # with the point-by-point evaluation of the fitpack tensor spline, at
    # even and odd n_theta and at the benchmark's largest grid
    for grid in (grid_default, build_grid(65, 130), build_grid(256, 512)):
        f = synthesize_random(grid, L=8, scale=0.3, seed=grid.n_theta)
        for pole in (NORTH, SOUTH):
            for t in (1.5, 2.0, 4.0):
                m = MobiusMap(pole, t)
                tu = mobius_pullback(f, m)
                assert np.max(np.abs(tu.values - scattered_pullback(f, m))) <= 1e-12


def test_off_axis_pullback_matches_scattered_evaluation(grid_default):
    # an off-axis pole extends the meridian fit in phi to a tensor spline;
    # it must agree with fitpack's independent 2-D fit, at even and odd
    # n_theta, on random poles and one pole 1e-3 off the axis
    rng = np.random.default_rng(24)
    near_axis = np.array([1e-3, 0.0, 1.0]) / np.hypot(1e-3, 1.0)
    for grid in (grid_default, build_grid(65, 130)):
        f = synthesize_random(grid, L=8, scale=0.3, seed=grid.n_theta)
        poles = [p / np.linalg.norm(p) for p in rng.standard_normal((3, 3))]
        for pole in poles + [near_axis]:
            for t in (1.5, 3.0):
                m = MobiusMap(pole, t)
                tu = mobius_pullback(f, m)
                assert np.max(np.abs(tu.values - scattered_pullback(f, m))) <= 1e-12


@pytest.mark.parametrize("shape", [(64, 128), (65, 130)])
def test_zonal_axis_pullback_fits_one_column(shape, monkeypatch):
    # a zonal field is fitted on its first column alone and broadcast;
    # that equals the fit of all its identical columns bitwise
    grid = build_grid(*shape)
    fits = []

    def spy(g, vals):
        fits.append(vals.shape[1])
        return _meridian_spline(g, vals)

    monkeypatch.setattr(conformal, "_meridian_spline", spy)
    for u in (constant_field(grid, 0.0), bubble_pair(2.0, grid).field):
        for pole in (NORTH, SOUTH):
            for t in (1.5, 2.0, grid.n_theta / 8):
                m = MobiusMap(pole, t)
                z = np.clip(mobius_point_map(m, grid.xyz[:, 0])[:, 2], -1.0, 1.0)
                full = (_meridian_spline(grid, u.values)(np.arccos(z))
                        + mobius_factor(m, grid).values)
                assert np.array_equal(mobius_pullback(u, m).values, full)
    assert fits == [1] * 12
    # a field that varies in phi still takes the fit of every column
    fits.clear()
    f = synthesize_random(grid, L=8, scale=0.3, seed=grid.n_theta)
    mobius_pullback(f, MobiusMap(NORTH, 2.0))
    assert fits == [grid.n_phi]


# ------------------------------------------- pullback splines (numpy)
#
# scipy's make_interp_spline and NdBSpline are the oracles here: the
# library fits and evaluates its splines with numpy alone

def sites(grid):
    """The meridian fit's pole-extended theta sites and the tensor fit's
    period-extended phi sites."""
    return (conformal._theta_interpolant(grid), conformal._phi_interpolant(grid))


def extended_sites(grid):
    pt, pp = min(6, grid.n_theta), min(6, grid.n_phi)
    theta = np.concatenate([-grid.theta[:pt][::-1], grid.theta,
                            2.0 * np.pi - grid.theta[-pt:][::-1]])
    phi = np.concatenate([grid.phi[-pp:] - 2.0 * np.pi, grid.phi,
                          grid.phi[:pp] + 2.0 * np.pi])
    return theta, phi


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("shape", [(8, 16), (65, 130), (256, 512)])
def test_spline_fit_matches_make_interp_spline(shape):
    # knots bitwise, coefficients to 1e-13 relative, on random columns
    # and on the pole-extended columns of a smooth field
    from scipy.interpolate import make_interp_spline

    grid = build_grid(*shape)
    rng = np.random.default_rng(shape[0])
    for fit, x in zip(sites(grid), extended_sites(grid)):
        y = rng.standard_normal((x.size, 7))
        oracle = make_interp_spline(x, y, k=5)
        assert fit.knots.tobytes() == oracle.t.tobytes()
        assert rel_err(fit.solve(y), oracle.c) <= 1e-13
    f = synthesize_random(grid, L=min(8, max_degree(grid)), scale=0.3, seed=1)
    ours = _meridian_spline(grid, f.values).c
    pt = min(6, grid.n_theta)
    rolled = np.roll(f.values, grid.n_phi // 2, axis=1)
    stacked = np.vstack([rolled[:pt][::-1], f.values, rolled[-pt:][::-1]])
    oracle = make_interp_spline(extended_sites(grid)[0], stacked, k=5)
    assert rel_err(ours, oracle.c) <= 1e-13


@pytest.mark.parametrize("shape", [(8, 16), (65, 130), (256, 512)])
def test_spline_fit_of_a_column_does_not_depend_on_the_others(shape):
    # one column (Python floats) and many (numpy rows) run the same
    # arithmetic, so each column's coefficients are bitwise the same
    grid = build_grid(*shape)
    rng = np.random.default_rng(7)
    for fit in sites(grid):
        m = len(fit.knots) - 6
        y = rng.standard_normal((m, 5))
        many = fit.solve(y)
        same = fit.solve(np.repeat(y[:, :1], 4, axis=1))
        for j in range(5):
            one = fit.solve(y[:, j:j + 1])
            assert one.shape == (m, 1)
            assert one.tobytes() == np.ascontiguousarray(many[:, j:j + 1]).tobytes()
        assert all(same[:, j].tobytes() == fit.solve(y[:, :1])[:, 0].tobytes()
                   for j in range(4))
        assert not np.shares_memory(many, y)


def test_spline_fit_on_the_tall_rule(grid_tall):
    # the 24576-node meridian: a one-column fit in O(n_theta) memory that
    # matches scipy; every row of L and U keeps at most six entries
    from scipy.interpolate import make_interp_spline

    fit = conformal._theta_interpolant(grid_tall)
    x = extended_sites(grid_tall)[0]
    y = np.random.default_rng(3).standard_normal((x.size, 1))
    oracle = make_interp_spline(x, y, k=5)
    assert fit.knots.tobytes() == oracle.t.tobytes()
    assert rel_err(fit.solve(y), oracle.c) <= 1e-13
    assert max(len(mults) for _, mults in fit.lower) <= 5
    assert max(len(ups) for _, ups in fit.upper) <= 5
    assert len(fit.lower) == len(fit.upper) == x.size


@pytest.mark.parametrize("shape", [(16, 32), (65, 130), (256, 512)])
def test_tensor_evaluator_matches_ndbspline(shape):
    # the same coefficients evaluated by NdBSpline: at random points, at
    # every knot pair of a subsample, and at both ends of each axis
    from scipy.interpolate import NdBSpline

    grid = build_grid(*shape)
    fit_t, fit_p = sites(grid)
    rng = np.random.default_rng(shape[0])
    coeff = rng.standard_normal((len(fit_p.knots) - 6, len(fit_t.knots) - 6))
    oracle = NdBSpline((fit_t.knots, fit_p.knots), coeff.T, 5)
    x_t, x_p = extended_sites(grid)
    knots_t = fit_t.knots[::max(1, fit_t.knots.size // 40)]
    knots_p = fit_p.knots[::max(1, fit_p.knots.size // 40)]
    ends_t = np.array([x_t[0], x_t[-1], 0.0, np.pi])
    ends_p = np.array([x_p[0], x_p[-1], 0.0, 2.0 * np.pi])
    for theta, phi in (
            (rng.uniform(x_t[0], x_t[-1], 5000), rng.uniform(x_p[0], x_p[-1], 5000)),
            np.meshgrid(knots_t, knots_p, indexing="ij"),
            np.meshgrid(ends_t, ends_p, indexing="ij")):
        ours = conformal._tensor_values(grid, coeff, theta, phi)
        assert ours.shape == np.shape(theta)
        expect = oracle(np.stack((theta, phi), axis=-1))
        assert rel_err(ours, expect) <= 1e-14


@pytest.mark.parametrize("shape", [(64, 128), (65, 130)])
def test_target_angles_are_the_point_map_bitwise(shape):
    # theta' and phi' taken component by component keep the bits of the
    # stacked point map they replace
    grid = build_grid(*shape)
    rng = np.random.default_rng(29)
    poles = [p / np.linalg.norm(p) for p in rng.standard_normal((4, 3))]
    for pole in poles + [np.array([0.6, 0.0, 0.8]), SOUTH]:
        for t in (1.5, 3.0, 8.0):
            m = MobiusMap(pole, t)
            target = mobius_point_map(m, grid.xyz)
            theta = np.arccos(np.clip(target[:, :, 2], -1.0, 1.0))
            phi = np.mod(np.arctan2(target[:, :, 1], target[:, :, 0]), 2.0 * np.pi)
            ours = conformal._target_angles(m, grid)
            assert ours[0].tobytes() == theta.tobytes()
            assert ours[1].tobytes() == phi.tobytes()


def test_pullback_requires_even_n_phi():
    # the half-turn across the poles is a column roll on both paths; u = 0
    # is zonal, so on the axis pole it checks the one-column fit too
    grid = build_grid(16, 33)
    for f in (constant_field(grid, 0.0),
              ScalarField(grid, grid.xyz[:, :, 0])):
        for pole in (NORTH, np.array([1.0, 2.0, 2.0]) / 3.0):
            with pytest.raises(ResolutionError, match="requires even n_phi"):
                mobius_pullback(f, MobiusMap(pole, 2.0))


@st.composite
def poles(draw):
    z = draw(st.floats(-1.0, 1.0))
    a = draw(st.floats(0.0, 2.0 * np.pi))
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(a), r * np.sin(a), z])


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(poles(), st.floats(1.0, 3.0), st.integers(0, 2 ** 32 - 1))
@example(NORTH, 3.0, 0)
@example(SOUTH, 3.0, 1)
def test_property_pullback_preserves_exponential_mass(pole, t, seed):
    # both exact axis poles (spline in theta alone) and any other pole
    # (scattered path); bounded L=4 coefficients keep exp(2 Tu) resolved
    # at t = 3 (worst 8.6e-10 over 150 random poles)
    grid = build_grid(64, 128)
    L = 4
    c = np.random.default_rng(seed).uniform(-0.5, 0.5, (L + 1) ** 2)
    f = synthesize(HarmonicSpectrum(L=L, coeff=c), grid)
    mass0 = integrate(ScalarField(grid, exp2(f)))
    tu = mobius_pullback(f, MobiusMap(pole, t))
    mass1 = integrate(ScalarField(grid, exp2(tu)))
    assert mass1 == pytest.approx(mass0, rel=1e-8)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(poles(), st.floats(1.0, 3.0))
@example(NORTH, 3.0)
@example(SOUTH, 3.0)
def test_property_onofri_equality_on_mobius_factors(pole, t):
    # Onofri's J >= 0 is attained by every Moebius factor (worst 1.4e-15
    # over 200 random poles); the axis poles give zonal factors, so both
    # the zonal and the general analysis run
    J = evaluate(mobius_factor(MobiusMap(pole, t), build_grid(64, 128))).onofri_J
    assert abs(J) <= 1e-12


def test_point_map_stays_on_sphere(grid_default):
    m = MobiusMap(np.array([0.6, 0.0, 0.8]), 4.0)
    target = mobius_point_map(m, grid_default.xyz)
    norms = np.linalg.norm(target, axis=2)
    assert np.max(np.abs(norms - 1.0)) <= 1e-13


# ----------------------------------------------------------- bubble_pair

def test_bubble_pair_identity_is_constant(grid_default):
    pair = bubble_pair(1.0, grid_default)
    assert np.max(np.abs(pair.field.values)) == 0.0


def test_bubble_pair_antipodal_symmetry(grid_default):
    pair = bubble_pair(5.0, grid_default)
    vals = pair.field.values
    flipped = np.roll(vals[::-1, :], grid_default.n_phi // 2, axis=1)
    assert np.max(np.abs(vals - flipped)) <= 1e-12


def test_bubble_pair_zero_moments(grid_default):
    for t in (2.0, 5.0):
        pair = bubble_pair(t, grid_default)
        rep = evaluate(pair.field)
        assert np.max(np.abs(rep.moments)) <= 1e-10
    big = build_grid(80, 160)
    rep = evaluate(bubble_pair(10.0, big).field)
    assert np.max(np.abs(rep.moments)) <= 1e-10


# The zero moments rest on the grid's mirror symmetry, which only
# SphericalGrid checks: every shape bubble_pair accepts, odd n_theta too.
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.integers(8, 80), st.integers(2, 80), st.data())
def test_property_bubble_pair_zero_moments(n_theta, half_n_phi, data):
    grid = build_grid(n_theta, 2 * half_n_phi)
    t = data.draw(st.floats(1.0, max_bubble_t(grid)))
    rep = evaluate(bubble_pair(t, grid).field)
    assert np.max(np.abs(rep.moments)) <= 1e-10


def test_bubble_pair_energy_matches_radial_oracle(grid_default):
    for t in (2.0, 5.0):
        pair = bubble_pair(t, grid_default)
        E = dirichlet_energy(analyze(pair.field, max_degree(grid_default)))
        assert E == pytest.approx(pair_energy(t), rel=1e-8)


def test_bubble_pair_energy_growth_rate():
    # artifact energies against the radial oracle at t = 10, 20 ...
    for t, n in ((10.0, 80), (20.0, 160)):
        g = build_grid(n, 2 * n)
        E = dirichlet_energy(analyze(bubble_pair(t, g).field, max_degree(g)))
        assert E == pytest.approx(pair_energy(t), rel=1e-7)
    # ... and the oracle's slope in ln t approaches 16 pi (one bubble
    # contributes 8 pi per unit of ln t, the O(1) offset cancels)
    slope = (pair_energy(100.0) - pair_energy(50.0)) / np.log(2.0)
    assert slope == pytest.approx(16.0 * np.pi, rel=1e-2)


def test_bubble_pair_requires_even_n_phi():
    # the parity check comes before the factors' dilation bound, so an odd
    # n_phi is the error named even when t is beyond the bound as well
    g = build_grid(24, 47)
    for t in (2.0, 4.0 * max_bubble_t(g)):
        with pytest.raises(ResolutionError, match="requires even n_phi"):
            bubble_pair(t, g)


def test_bubble_pair_rejects_an_unresolved_dilation(grid_default):
    # the bound is checked by mobius_factor, which both axis factors call
    t = max_bubble_t(grid_default) + 0.5
    with pytest.raises(ResolutionError, match="exceeds resolvable bound"):
        bubble_pair(t, grid_default)


# --------------------------------------------------------- planar bubble

def test_planar_bubble_profile():
    assert planar_bubble([0.0, 0.0]) == 0.0
    pts = np.array([[0.5, 0.0], [0.3, -0.4], [1.0, 2.0]])
    vals = planar_bubble(pts)
    r2 = np.sum(pts ** 2, axis=1)
    assert vals == pytest.approx(2.0 * np.log(1.0 / (1.0 + 2.0 * np.pi * r2)))


def test_planar_bubble_limit_equation():
    # -Lap phi0 = 16 pi exp(phi0) by central differences
    h = 1e-4
    for x, y in ((0.3, 0.1), (0.0, 0.7), (-1.2, 0.4)):
        def p(a, b):
            return planar_bubble([a, b])
        lap = (p(x + h, y) + p(x - h, y) + p(x, y + h) + p(x, y - h)
               - 4.0 * p(x, y)) / h ** 2
        rhs = 16.0 * np.pi * np.exp(p(x, y))
        assert -lap == pytest.approx(rhs, rel=1e-6)


def test_bubble_mass_closed_form():
    for r in (0.5, 1.0, 10.0, 100.0):
        assert bubble_mass(r) == np.pi * r * r / (1.0 + 2.0 * np.pi * r * r)
    assert bubble_mass(100.0) == pytest.approx(0.4999920, abs=5e-8)
    masses = [bubble_mass(r) for r in (0.1, 1.0, 10.0, 1e3, 1e6)]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 0.5
    with pytest.raises(ValueError):
        bubble_mass(0.0)


# ------------------------------------------------------- Green's function

def test_green_midline_value():
    assert green_two_pole_value(np.pi / 2.0) == pytest.approx(
        -4.0 * (1.0 - LN2), abs=1e-15)
    assert green_two_pole_value(np.pi / 2.0) == pytest.approx(-1.227411, abs=5e-7)


def test_green_zero_average_converges():
    # grid quadrature of the log singularity converges ~ n^-2 toward the
    # exact zero mean (the 1e-8 target lives in the acceptance suite on
    # a 24576-node rule)
    errs = [abs(average(green_two_pole(build_grid(n, 4))))
            for n in (64, 256, 1024)]
    assert errs[0] <= 1e-3
    assert errs[2] <= 4e-6
    assert errs[0] > errs[1] > errs[2]


def test_green_interior_equation():
    # -Lap G = -4 away from the poles, via finite differences in theta
    h = 1e-3
    for th in (np.pi / 3.0, np.pi / 2.0, 2.0 * np.pi / 3.0):
        gv = green_two_pole_value
        lap = ((gv(th + h) - 2.0 * gv(th) + gv(th - h)) / h ** 2
               + (gv(th + h) - gv(th - h)) / (2.0 * h) / np.tan(th))
        assert -lap == pytest.approx(-4.0, abs=1e-4)


def test_green_field_sampling(grid_default):
    G = green_two_pole(grid_default)
    expect = green_two_pole_value(grid_default.theta)
    assert np.max(np.abs(G.values - expect[:, None])) == 0.0
