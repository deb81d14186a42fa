import numpy as np
import pytest

from sphere_mt import (FOUR_PI, HarmonicSpectrum, MobiusMap,
                       OBSTRUCTION_CONSTANT, RangeOverflowError, ScalarField,
                       bubble_pair, build_grid, constant_field,
                       el_residual, energy_expansion_report, evaluate,
                       kazdan_warner_residual, l2_gradient, mobius_factor,
                       mobius_pullback, synthesize)
from sphere_mt.conformal import NORTH

from _oracles import pair_i_alpha

LN2 = np.log(2.0)


def random_field(grid, L=8, scale=0.2, seed=0):
    rng = np.random.default_rng(seed)
    c = scale * rng.standard_normal((L + 1) ** 2)
    return synthesize(HarmonicSpectrum(L=L, coeff=c), grid)


# -------------------------------------------------------------- evaluate

def test_evaluate_zero_field(grid_default):
    rep = evaluate(constant_field(grid_default, 0.0))
    assert rep.improved_I == pytest.approx(0.0, abs=1e-13)
    assert rep.onofri_J == pytest.approx(0.0, abs=1e-13)
    assert rep.shifted_I == pytest.approx(0.0, abs=1e-13)
    assert np.max(np.abs(rep.moments)) <= 1e-13
    assert rep.mass == pytest.approx(FOUR_PI, rel=1e-13)


def test_evaluate_rejects_overflow(grid_default):
    with pytest.raises(RangeOverflowError):
        evaluate(constant_field(grid_default, 400.0))


def test_evaluate_rejects_non_finite_or_singular_parameters(grid_default):
    u = constant_field(grid_default, 0.0)
    for kwargs in ({"eps": 1.0}, {"eps": 1.5}, {"eps": np.nan},
                   {"alpha": np.nan}, {"alpha": np.inf}):
        with pytest.raises(ValueError):
            evaluate(u, **kwargs)
    assert evaluate(u, eps=-0.5).i_eps == 0.0  # eps < 0 stays admitted


def test_evaluate_keeps_low_mass_fields(grid_default):
    # exp(2u) << 1: expm1(2u) rounds to -1 there, so 4 pi + int expm1(2u)
    # would cancel to 0 and the log-average to -inf.
    rep = evaluate(constant_field(grid_default, -20.0))
    assert rep.log_avg_exp == pytest.approx(-40.0, rel=1e-14)
    assert rep.mass == pytest.approx(FOUR_PI * np.exp(-40.0), rel=1e-14)


def test_shift_invariance(grid_default):
    u = random_field(grid_default, seed=1)
    rep = evaluate(u, alpha=0.4, eps=0.25)
    shifted = evaluate(ScalarField(grid_default, u.values + 1.3),
                       alpha=0.4, eps=0.25)
    assert shifted.shifted_I == pytest.approx(rep.shifted_I, abs=1e-10)
    assert shifted.onofri_J == pytest.approx(rep.onofri_J, abs=1e-10)
    assert shifted.i_alpha == pytest.approx(rep.i_alpha, abs=1e-10)
    assert shifted.i_eps == pytest.approx(rep.i_eps, abs=1e-10)
    assert np.max(np.abs(shifted.normalized_moments
                         - rep.normalized_moments)) <= 1e-10
    # improved_I picks up exactly -2c
    assert shifted.improved_I == pytest.approx(rep.improved_I - 2.0 * 1.3,
                                               abs=1e-10)


def test_onofri_inequality_on_random_corpus(grid_opt):
    rng = np.random.default_rng(42)
    for _ in range(100):
        L = int(rng.integers(1, 13))
        scale = float(rng.uniform(0.05, 0.6))
        c = scale * rng.uniform(-1.0, 1.0, (L + 1) ** 2)
        u = synthesize(HarmonicSpectrum(L=L, coeff=c), grid_opt)
        rep = evaluate(u, L=L)
        assert rep.onofri_J >= -1e-6


def test_onofri_equality_at_conformal_factors(grid_default):
    for t in (1.0, 2.0, 3.0):
        tu = mobius_pullback(constant_field(grid_default, 0.0),
                             MobiusMap(NORTH, t))
        assert evaluate(tu).onofri_J == pytest.approx(0.0, abs=1e-6)


def test_i_alpha_along_bubble_family(grid_default):
    # alpha = 0.4 diverges downward once past the small hump near t ~ 3:
    # strictly decreasing on {4, 8} at the default grid (t=16 needs a
    # finer grid), matching the radial oracle values
    vals = {}
    for t in (2.0, 4.0, 8.0):
        rep = evaluate(bubble_pair(t, grid_default).field, alpha=0.4)
        vals[t] = rep.i_alpha
        assert rep.i_alpha == pytest.approx(pair_i_alpha(t, 0.4), abs=1e-8)
    big = build_grid(128, 256)
    rep16 = evaluate(bubble_pair(16.0, big).field, alpha=0.4)
    assert rep16.i_alpha == pytest.approx(pair_i_alpha(16.0, 0.4), abs=1e-8)
    assert vals[8.0] < vals[4.0]
    assert rep16.i_alpha < vals[8.0] - 0.15  # divergence evidence


# ----------------------------------------------------------- l2_gradient

def test_gradient_vanishes_at_zero(grid_default):
    g = l2_gradient(constant_field(grid_default, 0.0), eps=0.0)
    assert np.max(np.abs(g.values)) <= 1e-14


def test_gradient_has_zero_integral(grid_default):
    from sphere_mt import integrate
    for seed in (0, 1, 2):
        u = random_field(grid_default, seed=seed)
        g = l2_gradient(u, eps=0.3)
        assert abs(integrate(g)) <= 1e-9


def shifted_i_eps(u, eps):
    rep = evaluate(u)
    return (rep.avg_grad_sq / (2.0 * (1.0 - eps)) + 2.0 * rep.avg_u
            - rep.log_avg_exp)


def test_gradient_matches_finite_differences(grid_default):
    from sphere_mt import integrate
    eps = 0.25
    u = random_field(grid_default, L=6, scale=0.4, seed=7)
    phi = random_field(grid_default, L=6, scale=1.0, seed=8)
    g = l2_gradient(u, eps)
    exact = integrate(ScalarField(grid_default, g.values * phi.values))
    errs = []
    for h in (1e-3, 1e-4):
        up = ScalarField(grid_default, u.values + h * phi.values)
        um = ScalarField(grid_default, u.values - h * phi.values)
        fd = (shifted_i_eps(up, eps) - shifted_i_eps(um, eps)) / (2.0 * h)
        errs.append(abs(fd - exact))
    ratio = errs[0] / errs[1]
    order = np.log10(ratio)
    assert order >= 1.9  # central differences: error ratio ~ 100


# ----------------------------------------------------------- el_residual

def test_el_residual_zero_solution(grid_default):
    rep = el_residual(constant_field(grid_default, 0.0), eps=0.25)
    assert rep.el_residual_norm <= 1e-10


def test_el_residual_is_scaled_gradient(grid_default):
    eps = 0.25
    u = random_field(grid_default, seed=3)
    res = el_residual(u, eps)
    g = l2_gradient(u, eps)
    diff = res.el_residual_field.values - FOUR_PI * (1.0 - eps) * g.values
    assert np.max(np.abs(diff)) <= 1e-10


def test_el_residual_zero_integral(grid_default):
    from sphere_mt import integrate
    u = random_field(grid_default, seed=5, scale=0.5)
    rep = el_residual(u, eps=0.1)
    assert abs(integrate(rep.el_residual_field)) <= 1e-9


def test_el_residual_linearization_for_small_fields(grid_default):
    # near zero the residual is -Lap u - 4(1-eps)(u - avg u) up to
    # second order in the coefficient size
    from sphere_mt import analyze, integrate, laplacian, max_degree, synthesize
    eps = 0.25
    u = random_field(grid_default, L=8, scale=0.01, seed=12)
    res = el_residual(u, eps)
    lap = synthesize(laplacian(analyze(u, max_degree(grid_default))),
                     grid_default).values
    from sphere_mt import average
    lin = -lap - 4.0 * (1.0 - eps) * (u.values - average(u))
    diff = res.el_residual_field.values - lin
    diff_norm = np.sqrt(integrate(ScalarField(grid_default, diff ** 2)))
    assert res.el_residual_norm > 0.01  # the residual itself is first order
    assert diff_norm <= 0.05 * res.el_residual_norm  # mismatch is second order


def test_el_residual_kw_is_the_constant_h_identity(grid_default):
    # h = 16 pi (1-eps) is constant, so the closed form must match the
    # general-h defects of v = 2u - ln mass; at eps = 1/2 it is exactly 0
    for seed, eps in enumerate((0.05, 0.25, 0.4)):
        u = random_field(grid_default, L=12, seed=20 + seed)
        v = ScalarField(grid_default, 2.0 * u.values - np.log(evaluate(u).mass))
        h = constant_field(grid_default, 16.0 * np.pi * (1.0 - eps))
        ref = kazdan_warner_residual(v, h, c=4.0 * (1.0 - eps))
        assert np.max(np.abs(ref)) > 1e-3  # the moments are not zero
        kw = el_residual(u, eps).kw_residual
        assert np.max(np.abs(kw - ref)) <= 1e-10
    w = mobius_factor(MobiusMap(NORTH, 3.0), grid_default)
    assert np.all(el_residual(w, 0.5).kw_residual == 0.0)


# --------------------------------------------------------- Kazdan-Warner

def test_kw_zero_for_constant_data(grid_default):
    r = kazdan_warner_residual(constant_field(grid_default, 0.0),
                               constant_field(grid_default, 2.0), c=2.0)
    assert np.max(np.abs(r)) <= 1e-12


def test_kw_zero_on_curvature_solution(grid_default):
    # v = 2 w_t solves Lap v + 2 exp(v) = 2
    w = mobius_factor(MobiusMap(NORTH, 3.0), grid_default)
    v = ScalarField(grid_default, 2.0 * w.values)
    r = kazdan_warner_residual(v, constant_field(grid_default, 2.0), c=2.0)
    assert np.max(np.abs(r)) <= 1e-10


def test_kw_zero_on_manufactured_general_h_solution():
    # h = (c - Lap v) exp(-v) makes a band-limited v solve
    # Lap v + h exp(v) = c with a non-constant h; tilting h by 0.1 x3
    # breaks the equation and must show in the defects
    from sphere_mt import analyze, laplacian
    grid = build_grid(96, 192)
    v = random_field(grid, L=8, scale=0.3, seed=9)
    lap_v = synthesize(laplacian(analyze(v, 8)), grid).values
    for c in (1.0, 2.0, 3.0):
        h = (c - lap_v) * np.exp(-v.values)
        r = kazdan_warner_residual(v, ScalarField(grid, h), c)
        assert np.max(np.abs(r)) <= 1e-11
        tilted = ScalarField(grid, h + 0.1 * grid.xyz[:, :, 2])
        assert np.max(np.abs(kazdan_warner_residual(v, tilted, c))) >= 1e-2


def test_kw_nontrivial_value(grid_default):
    # v = 0, h = 2 + x3, c = 1:
    #   avg(grad h . grad x_3) = avg(|grad x3|^2) = 2/3
    #   (2 - c) avg(h x_3) = 1 * avg(x3^2) = 1/3
    # so r = (0, 0, 1/3)
    h = ScalarField(grid_default, 2.0 + grid_default.xyz[:, :, 2])
    r = kazdan_warner_residual(constant_field(grid_default, 0.0), h, c=1.0)
    assert r[0] == pytest.approx(0.0, abs=1e-12)
    assert r[1] == pytest.approx(0.0, abs=1e-12)
    assert r[2] == pytest.approx(1.0 / 3.0, rel=1e-10)


# ------------------------------------------------------ energy expansion

def test_expansion_obstruction_constant():
    rep = energy_expansion_report(2.0, 1.0)
    assert rep.obstruction == pytest.approx(1.0 - LN2, abs=1e-15)
    assert rep.obstruction == pytest.approx(0.30685281944, abs=5e-12)


def test_expansion_numeric_matches_closed_form():
    for R in (0.5, 1.0, 5.0, 10.0):
        rep = energy_expansion_report(2.0, R)
        assert rep.I1_numeric == pytest.approx(rep.I1_closed, rel=1e-6)
    rep1 = energy_expansion_report(2.0, 1.0)
    assert rep1.I1_numeric == pytest.approx(56.441646038, abs=1e-6)


def test_expansion_truncation_gap():
    for R in (0.1, 1.0, 10.0):
        rep = energy_expansion_report(2.0, R)
        q = 1.0 + 2.0 * np.pi * R * R
        assert rep.truncation_gap == pytest.approx(16.0 * np.pi / q, rel=1e-12)
    assert energy_expansion_report(2.0, 10.0).truncation_gap == \
        pytest.approx(16.0 * np.pi / (1.0 + 200.0 * np.pi), rel=1e-10)
    assert energy_expansion_report(2.0, 0.1).truncation_gap == \
        pytest.approx(47.29, abs=0.01)


def test_expansion_d_value_and_bridge():
    t, R = 4.0, 2.0
    rep = energy_expansion_report(t, R)
    lam = 2.0 * np.log(t) - np.log(8.0 * np.pi)
    assert rep.lambda_peak == pytest.approx(lam, rel=1e-14)
    q = 1.0 + 2.0 * np.pi * R * R
    assert rep.D_value == pytest.approx(
        -lam + 2.0 * np.log(R * R / q) + 4.0 * (1.0 - LN2), rel=1e-13)


def test_expansion_rejects_bad_radius():
    with pytest.raises(ValueError):
        energy_expansion_report(2.0, 0.0)
    with pytest.raises(ValueError):
        energy_expansion_report(2.0, -1.0)
    for t, R in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)):
        with pytest.raises(ValueError):
            energy_expansion_report(t, R)


def test_obstruction_constant_export():
    assert OBSTRUCTION_CONSTANT == pytest.approx(1.0 - LN2, abs=0)
