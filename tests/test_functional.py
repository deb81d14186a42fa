import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sphere_mt import (FOUR_PI, HarmonicSpectrum, MobiusMap,
                       OBSTRUCTION_CONSTANT, RangeOverflowError, ScalarField,
                       bubble_pair, build_grid, constant_field,
                       el_residual, energy_expansion_report, evaluate,
                       kazdan_warner_residual, l2_gradient, mobius_factor,
                       mobius_pullback, synthesize)
from sphere_mt import functional, green_two_pole, harmonics, max_bubble_t
from sphere_mt import grid as grid_module
from sphere_mt.conformal import NORTH, SOUTH
from sphere_mt.functional import _exp2u, _log_avg_exp
from sphere_mt.grid import _first_moments, integrate, integrate_values
from sphere_mt.harmonics import _field_laplacian

from _oracles import bubble_core_energy, pair_i_alpha

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


@pytest.mark.parametrize("shape, seed", [((64, 128), None), ((48, 96), 1),
                                         ((65, 130), 2), ((256, 512), 3)],
                         ids=["v0-64x128", "48x96", "65x130", "256x512"])
def test_kw_nontrivial_value(shape, seed):
    # affine h = b + a . x has grad h . grad x_i = a_i - x_i (a . x), so
    #   r_i = avg(exp(v) (a_i - x_i (a . x) - (2 - c) h x_i))
    # pointwise, with no Laplacian.  seed None is v = 0, h = 2 + x3, c = 1:
    #   avg(grad h . grad x_3) = avg(|grad x3|^2) = 2/3
    #   (2 - c) avg(h x_3) = 1 * avg(x3^2) = 1/3
    # so r = (0, 0, 1/3)
    from sphere_mt import integrate
    grid = build_grid(*shape)
    x = grid.xyz
    if seed is None:
        v, b, c = constant_field(grid, 0.0), 2.0, 1.0
        a = np.array([0.0, 0.0, 1.0])
    else:
        rng = np.random.default_rng(10 + seed)
        v = random_field(grid, L=8, scale=0.3, seed=seed)
        a = rng.standard_normal(3)
        b, c = rng.uniform(1.0, 3.0), rng.uniform(0.5, 3.5)
    ax = x @ a
    h = b + ax
    ev = np.exp(v.values)
    oracle = np.array([
        integrate(ScalarField(grid, ev * (a[i] - x[:, :, i] * ax
                                          - (2.0 - c) * h * x[:, :, i])))
        for i in range(3)]) / FOUR_PI
    r = kazdan_warner_residual(v, ScalarField(grid, h), c)
    assert np.max(np.abs(r - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))
    if seed is None:
        assert r[0] == pytest.approx(0.0, abs=1e-12)
        assert r[1] == pytest.approx(0.0, abs=1e-12)
        assert r[2] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_kw_takes_two_max_degree_laplacians(grid_default, monkeypatch):
    # one Laplacian of exp(v) and one of h, each an analyze and a
    # synthesize at the grid's max_degree
    from sphere_mt import harmonics
    calls = {"analyze": [], "synthesize": []}
    analyze, synthesize = harmonics.analyze, harmonics.synthesize

    def recording_analyze(f, L):
        calls["analyze"].append(L)
        return analyze(f, L)

    def recording_synthesize(s, grid):
        calls["synthesize"].append(s.L)
        return synthesize(s, grid)

    monkeypatch.setattr(harmonics, "analyze", recording_analyze)
    monkeypatch.setattr(harmonics, "synthesize", recording_synthesize)
    v = random_field(grid_default, L=8, scale=0.3, seed=4)
    h = ScalarField(grid_default, 2.0 + grid_default.xyz[:, :, 0])
    kazdan_warner_residual(v, h, c=1.5)
    top = harmonics.max_degree(grid_default)
    assert calls == {"analyze": [top, top], "synthesize": [top, top]}


# ------------------------------------------------- zonal column kernels

def full_storage(f):
    """f with its values held as a contiguous copy of the whole grid, as
    every field was before zonal fields were stored as one column, so
    every functional kernel takes its full-grid path."""
    full = ScalarField(f.grid, f.values)
    object.__setattr__(full, "values", np.ascontiguousarray(f.values))
    return full


def bits(*xs):
    return [np.ascontiguousarray(x, dtype=float).tobytes() for x in xs]


def is_constant_in_phi(a):
    return bool((a == a[:, :1]).all())


def column_integral(grid, a):
    """integrate_values of a full array constant in phi, taken as a zonal
    field's integral is: on its column, broadcast."""
    assert is_constant_in_phi(a)
    return integrate_values(grid, np.broadcast_to(a[:, :1], a.shape))


def assert_xy_moments(got, want, mass):
    # a zonal integrand's x and y moments are the uniform longitude
    # rule's exact 0.0; its full-storage products miss 0 by roundoff only
    assert bits(got[:2]) == bits(np.zeros(2))
    assert np.all(np.abs(want[:2]) <= 1e-15 * mass), (want[:2], mass)


def full_xy_moments(grid, f):
    """[int f x, int f y] of f held in full, from the full products
    summed by rows: what a zonal integrand's exact 0.0 stands for."""
    f = np.ascontiguousarray(f)
    return np.array([integrate_values(grid, f * grid.xyz[:, :, i])
                     for i in (0, 1)])


def kw_integrand(v, h, c):
    """kazdan_warner_residual's integrand q, written out on full arrays."""
    ev = np.exp(np.ascontiguousarray(v.values))
    return (0.5 * (h.values * _field_laplacian(ScalarField(v.grid, ev))
                   - ev * _field_laplacian(h)) + (c - 1.0) * h.values * ev)


def zonal_fields(grid):
    t = min(2.5, max_bubble_t(grid))
    rng = np.random.default_rng(grid.n_theta)
    column = 0.5 * rng.standard_normal((grid.n_theta, 1))
    fields = {"w_north": mobius_factor(MobiusMap(NORTH, t), grid),
              "w_south": mobius_factor(MobiusMap(SOUTH, t), grid),
              "green": green_two_pole(grid),
              "constant": constant_field(grid, 0.37),
              "random_column": ScalarField(
                  grid, np.repeat(column, grid.n_phi, axis=1))}
    if grid.n_phi % 2 == 0:
        fields["bubble_pair"] = bubble_pair(t, grid).field
    return fields


@pytest.mark.parametrize("shape", [(33, 64), (32, 65), (64, 4), (24576, 4)],
                         ids=["odd_n_theta", "odd_n_phi", "64x4", "24576x4"])
def test_zonal_column_kernels_match_the_full_grid_bitwise(shape, monkeypatch):
    # exp, expm1 and the z moment on one column give the bits of the full
    # grid (also a tripwire for numpy), and the column kernels those of
    # a strided column; the x and y moments, and what is formed from
    # them, are exactly 0, where the full products of the same
    # integrands (summed by this module's own integrate_values) give
    # only roundoff
    grid = build_grid(*shape)
    # the transforms and the spectral terms take a full-grid copy through
    # m = 0 as well, by the node-by-node test that found zonal fields
    # before the stride test, and a full array constant in phi is
    # integrated on its column, as a zonal one is; the copy's x and y
    # moments are its full products, checked against full_xy_moments
    monkeypatch.setattr(harmonics, "_is_zonal", is_constant_in_phi)

    def integral(g, a):
        return (column_integral(g, a) if is_constant_in_phi(a)
                else integrate_values(g, a))
    monkeypatch.setattr(functional, "integrate_values", integral)
    monkeypatch.setattr(grid_module, "integrate_values", integral)
    h = green_two_pole(grid)
    report_fields = ("avg_grad_sq", "avg_u", "log_avg_exp", "mass",
                     "onofri_J", "improved_I", "shifted_I", "i_alpha", "i_eps")
    branches = set()
    for name, f in zonal_fields(grid).items():
        # shifted down, the mass falls below 2 pi: the other log-average
        shifted = np.broadcast_to(f.values[:, :1] - 1.5, f.values.shape)
        for u in (f, ScalarField(grid, shifted)):
            assert u.values.strides[1] == 0, name
            full = full_storage(u)
            e2u, mass, moments = _exp2u(grid, u.values)
            ref = _exp2u(grid, full.values)
            assert e2u.strides[1] == 0 and ref[0].strides[1] != 0
            assert (bits(e2u, mass, moments[2])
                    == bits(ref[0], ref[1], ref[2][2])), name
            xy = full_xy_moments(grid, ref[0])
            assert_xy_moments(moments, xy, mass)
            branches.add(mass >= 2.0 * np.pi)
            assert (bits(_log_avg_exp(grid, u.values, mass))
                    == bits(_log_avg_exp(grid, full.values, mass))), name
            got, want = (evaluate(v, alpha=0.5, eps=0.25) for v in (u, full))
            assert (bits(*(getattr(got, k) for k in report_fields))
                    == bits(*(getattr(want, k) for k in report_fields))), name
            for k, ref_xy, scale in (("moments", xy, mass),
                                     ("normalized_moments", xy / mass, 1.0)):
                assert bits(getattr(got, k)[2]) == bits(getattr(want, k)[2])
                assert_xy_moments(getattr(got, k), ref_xy, scale)
            got, want = (el_residual(v, 0.25) for v in (u, full))
            assert (bits(got.el_residual_field.values, got.el_residual_norm,
                         got.kw_residual[2])
                    == bits(want.el_residual_field.values,
                            want.el_residual_norm, want.kw_residual[2])), name
            # kw_residual = 8 (1-2 eps)(1-eps) normalized_moments
            assert_xy_moments(got.kw_residual,
                              8.0 * 0.5 * 0.75 * (xy / mass), 8.0)
            got = kazdan_warner_residual(u, h, 1.3)
            want = kazdan_warner_residual(full, full_storage(h), 1.3)
            assert bits(got[2]) == bits(want[2]), name
            # the scale of q's x_i-weighted sums' roundoff is avg |q|
            q = kw_integrand(full, h, 1.3)
            assert_xy_moments(got, full_xy_moments(grid, q) / FOUR_PI,
                              integrate_values(grid, np.abs(q)) / FOUR_PI)
    assert branches == {True, False}


@pytest.mark.parametrize("shape", [(256, 512), (64, 128), (65, 130), (33, 70),
                                   (8, 16), (24576, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_zonal_laplacian_and_dirichlet_term_match_the_full_spectrum(shape):
    # the zonal Laplacian and Dirichlet term read the L + 1 m = 0
    # coefficients alone: the Laplacian keeps the bits of the transforms'
    # round trip, the Dirichlet sum only its value (fewer terms to add)
    grid = build_grid(*shape)
    top = harmonics.max_degree(grid)
    for name, u in zonal_fields(grid).items():
        spec = harmonics.analyze(u, top)
        lap = _field_laplacian(u)
        assert lap.strides[1] == 0, name
        assert (bits(lap) == bits(harmonics.synthesize(
            harmonics.laplacian(spec), grid).values)), name
        want = harmonics.dirichlet_energy(spec) / FOUR_PI
        got = evaluate(u).avg_grad_sq
        assert abs(got - want) <= 1e-14 * want, (name, got, want)


@pytest.mark.parametrize("n_phi", [4, 5, 127, 130, 512, 1024])
def test_zonal_x_and_y_moments_are_exactly_zero(n_phi):
    # the uniform longitude rule sums cos(phi_k) and sin(phi_k) to 0:
    # _first_moments gives a zonal field that 0.0, and as its z moment
    # the full product's, integrated on its column: within roundoff of
    # the exact sum n_phi sum_j w_j fl(c_j z_j)
    rng = np.random.default_rng(n_phi)
    for n_theta in (2, 33, 256, 1025) + ((24576,) if n_phi == 4 else ()):
        grid = build_grid(n_theta, n_phi)
        col = np.exp(6.0 * rng.standard_normal((n_theta, 1)))
        wide = np.broadcast_to(col, (n_theta, n_phi))
        got = _first_moments(grid, wide)
        want = _first_moments(grid, np.ascontiguousarray(wide))
        assert (bits(got[2])
                == bits(column_integral(grid, wide * grid.xyz[:, :, 2])))
        wcz = [Fraction(w) * Fraction(cz)
               for w, cz in zip(grid.weight, col[:, 0] * grid.xyz[:, 0, 2])]
        scale = n_phi * sum(abs(x) for x in wcz)
        assert (abs(Fraction(got[2]) - n_phi * sum(wcz))
                <= Fraction(4e-16) * scale)
        assert_xy_moments(got, want, integrate_values(grid, wide))


@pytest.mark.parametrize("shape", [(64, 128), (256, 512)])
def test_zonal_el_residual_matches_the_full_grid_formula_bitwise(shape):
    # el_residual forms r on a bubble pair's column and keeps it as a
    # broadcast; the formula written out on full arrays, its integrals
    # taken on the column, gives its bits
    grid = build_grid(*shape)
    u = bubble_pair(3.0, grid).field
    eps = 0.25
    rep = el_residual(u, eps)
    neg_lap = -np.ascontiguousarray(_field_laplacian(u))
    e2u = np.exp(2.0 * np.ascontiguousarray(u.values))
    mass = column_integral(grid, e2u)
    r = neg_lap - 8.0 * np.pi * (1.0 - eps) * (e2u / mass - 1.0 / FOUR_PI)
    assert rep.el_residual_field.values.strides[1] == 0
    assert bits(rep.el_residual_field.values) == bits(r)
    assert (bits(rep.el_residual_norm)
            == bits(np.sqrt(column_integral(grid, r * r))))
    assert (bits(integrate(rep.el_residual_field))
            == bits(column_integral(grid, r)))


def test_zonal_evaluate_and_el_residual_allocate_only_columns():
    # at 256x512 a full grid is 1 MB and an L = 254 spectrum 0.5 MB; a
    # zonal field's functionals and residual need neither
    grid = build_grid(256, 512)
    u = bubble_pair(3.0, grid).field
    for run in (lambda: evaluate(u, alpha=0.5, eps=0.25),
                lambda: el_residual(u, 0.25)):
        run()  # builds the grid's cached m = 0 table
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak


@pytest.mark.parametrize("shape, zonal", [((64, 128), True),
                                          ((256, 512), True),
                                          ((64, 128), False)])
def test_l2_gradient_is_the_full_grid_division_bitwise(shape, zonal):
    # a zonal residual is divided on its column and broadcast: the bits
    # of dividing the whole grid, and no node scan to find it zonal
    grid = build_grid(*shape)
    u = bubble_pair(3.0, grid).field if zonal else random_field(grid)
    eps = 0.25
    r = np.ascontiguousarray(el_residual(u, eps).el_residual_field.values)
    g = l2_gradient(u, eps)
    assert (g.values.strides[1] == 0) == zonal
    assert bits(g.values) == bits(r / (FOUR_PI * (1.0 - eps)))


@pytest.mark.parametrize("n_phi", [4, 5, 127, 130, 512, 1024])
def test_row_sums_of_a_broadcast_column_are_those_of_its_copy(n_phi):
    # numpy sums a stride-0 row as it sums the contiguous one (a
    # whole-array sum does not), and a ufunc on a column gives the bits
    # it gives on the full grid, the property the zonal kernels rest on
    # (integrate_values takes a zonal array on its column instead)
    rng = np.random.default_rng(n_phi)
    for n_theta in (2, 33, 256, 1025) + ((24576,) if n_phi < 8 else ()):
        col = (rng.standard_normal((n_theta, 1))
               * 10.0 ** rng.integers(-8, 9, (n_theta, 1)))
        wide = np.broadcast_to(col, (n_theta, n_phi))
        copy = np.ascontiguousarray(wide)
        other = rng.standard_normal((n_theta, n_phi))
        u = rng.standard_normal((n_theta, 1))
        full_u = np.repeat(u, n_phi, axis=1)
        for b, c in ((wide, copy), (wide * other, copy * other),
                     (np.broadcast_to(np.exp(u), wide.shape), np.exp(full_u)),
                     (np.broadcast_to(np.expm1(u), wide.shape),
                      np.expm1(full_u))):
            assert b.sum(axis=1).tobytes() == c.sum(axis=1).tobytes()


@pytest.mark.parametrize("n_phi", [4, 5, 127, 130, 512, 1024])
def test_column_integral_is_the_exact_sum_to_roundoff_at_any_stride(n_phi):
    # integrate_values takes a zonal array as n_phi sum_j w_j c_j over its
    # column: within roundoff of the exact sum of the stored weights and
    # values, and with the same bits however the column is strided
    rng = np.random.default_rng(n_phi)
    for n_theta in (2, 33, 256, 1025) + ((24576,) if n_phi < 8 else ()):
        grid = build_grid(n_theta, n_phi)
        col = (rng.standard_normal((n_theta, 1))
               * 10.0 ** rng.integers(-8, 9, (n_theta, 1)))
        got = integrate_values(grid, np.broadcast_to(col, (n_theta, n_phi)))
        wc = [Fraction(w) * Fraction(c) for w, c in zip(grid.weight, col[:, 0])]
        scale = n_phi * sum(abs(x) for x in wc)
        assert abs(Fraction(got) - n_phi * sum(wc)) <= Fraction(4e-16) * scale
        wide, flipped = (np.repeat(c, 3, axis=1) for c in (col, col[::-1]))
        for strided in (wide[:, 1:2], flipped[::-1, 2:]):
            assert strided.strides[0] != 8
            b = np.broadcast_to(strided, (n_theta, n_phi))
            assert bits(integrate_values(grid, b)) == bits(got)
    grid = build_grid(33, n_phi)
    assert (bits(integrate_values(grid, np.broadcast_to(0.37, (33, n_phi))))
            == bits(integrate_values(
                grid, np.broadcast_to(np.full((33, 1), 0.37), (33, n_phi)))))


# ------------------------------------------------------ energy expansion

def test_expansion_obstruction_constant():
    rep = energy_expansion_report(2.0, 1.0)
    assert rep.obstruction == pytest.approx(1.0 - LN2, abs=1e-15)
    assert rep.obstruction == pytest.approx(0.30685281944, abs=5e-12)


def test_expansion_numeric_matches_closed_form():
    for R in (0.5, 1.0, 5.0, 10.0, 1e50):
        rep = energy_expansion_report(2.0, R)
        assert rep.I1_numeric == pytest.approx(rep.I1_closed, rel=1e-6)
    rep1 = energy_expansion_report(2.0, 1.0)
    assert rep1.I1_numeric == pytest.approx(56.441646038, abs=1e-6)


def test_expansion_closed_form_keeps_its_digits_at_small_radius():
    # ln q + 1/q - 1 cancels as q = 1 + 2 pi R^2 nears 1: at R = 1e-5 it
    # gave 0.0, at 1e-4 a 1.2 % error; the series form keeps every digit
    for R in (1e-8, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.28):
        want = bubble_core_energy(R)
        got = energy_expansion_report(2.0, R).I1_closed
        assert abs(got - want) <= 1e-14 * want, (R, got, want)


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
