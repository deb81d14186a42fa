import numpy as np
import pytest

from sphere_mt import (FOUR_PI, MobiusMap, ResolutionError, ScalarField,
                       analyze, average, bubble_mass, bubble_pair,
                       build_grid, constant_field, dirichlet_energy,
                       evaluate, green_two_pole, green_two_pole_value,
                       integrate, laplacian, max_bubble_t, max_degree,
                       mobius_factor, mobius_pullback, planar_bubble,
                       synthesize)
from sphere_mt.conformal import NORTH, mobius_point_map

from _oracles import pair_energy, single_bubble_energy

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


def test_factor_resolution_bound(grid_default):
    assert max_bubble_t(grid_default) == pytest.approx(8.0)
    with pytest.raises(ResolutionError):
        mobius_factor(MobiusMap(NORTH, 8.5), grid_default)


# ------------------------------------------------------ mobius_pullback

def test_pullback_of_zero_is_factor(grid_default):
    m = MobiusMap(NORTH, 3.0)
    tu = mobius_pullback(constant_field(grid_default, 0.0), m)
    w = mobius_factor(m, grid_default)
    assert np.max(np.abs(tu.values - w.values)) <= 1e-12


def synthesize_random(grid, L, scale, seed):
    from sphere_mt import HarmonicSpectrum
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
    from sphere_mt.conformal import mobius_point_map
    from sphere_mt.harmonics import HarmonicSpectrum, evaluate_at_points
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
    composed = evaluate_at_points(spec, thp, php).reshape((128, 256))
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
    g = build_grid(24, 47)
    with pytest.raises(ResolutionError):
        bubble_pair(2.0, g)


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
