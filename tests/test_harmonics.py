import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import sph_legendre_p, sph_legendre_p_all

from sphere_mt import (FOUR_PI, HarmonicSpectrum, ResolutionError,
                       ScalarField, analyze, build_grid, dirichlet_energy,
                       evaluate, harmonics, integrate, laplacian,
                       max_degree, synthesize)
from sphere_mt.harmonics import _legendre_tables, _zonal_table, flat_index
from sphere_mt.conformal import MobiusMap, NORTH, mobius_factor

from _oracles import evaluate_at_points


def unit_spectrum(L, l, m):
    c = np.zeros((L + 1) ** 2)
    c[flat_index(l, m)] = 1.0
    return HarmonicSpectrum(L=L, coeff=c)


def test_orthonormality(grid_small):
    L = 6
    fields = {}
    for l in range(L + 1):
        for m in range(-l, l + 1):
            fields[(l, m)] = synthesize(unit_spectrum(L, l, m), grid_small)
    keys = list(fields)
    worst = 0.0
    for a in keys:
        for b in keys:
            v = integrate(ScalarField(grid_small,
                                      fields[a].values * fields[b].values))
            expect = 1.0 if a == b else 0.0
            worst = max(worst, abs(v - expect))
    assert worst <= 1e-10


def test_orthonormality_at_the_aliasing_bound(grid_small):
    # sampled pairs all the way up to the grid's maximum degree
    rng = np.random.default_rng(1)
    L = max_degree(grid_small)
    pairs = []
    while len(pairs) < 24:
        l = int(rng.integers(0, L + 1))
        m = int(rng.integers(-l, l + 1))
        if (l, m) not in pairs:
            pairs.append((l, m))
    fields = {p: synthesize(unit_spectrum(L, *p), grid_small) for p in pairs}
    worst = 0.0
    for a in pairs:
        for b in pairs:
            v = integrate(ScalarField(grid_small,
                                      fields[a].values * fields[b].values))
            worst = max(worst, abs(v - (1.0 if a == b else 0.0)))
    assert worst <= 1e-10


def test_analyze_picks_out_single_mode(grid_small):
    f = synthesize(unit_spectrum(8, 2, 1), grid_small)
    s = analyze(f, 8)
    assert s[(2, 1)] == pytest.approx(1.0, abs=1e-12)
    rest = np.delete(s.coeff, flat_index(2, 1))
    assert np.max(np.abs(rest)) <= 1e-10


def test_analyze_constant_and_dipole(grid_small):
    ones = ScalarField(grid_small, np.ones((24, 48)))
    s = analyze(ones, 4)
    assert s[(0, 0)] == pytest.approx(np.sqrt(FOUR_PI), rel=1e-13)
    assert np.max(np.abs(s.coeff[1:])) <= 1e-12

    # the x3 coefficient equals sqrt(int x3^2) = sqrt(4 pi / 3)
    x3 = ScalarField(grid_small, grid_small.xyz[:, :, 2])
    s = analyze(x3, 4)
    x3_sq = integrate(ScalarField(grid_small, grid_small.xyz[:, :, 2] ** 2))
    assert s[(1, 0)] == pytest.approx(np.sqrt(x3_sq), rel=1e-12)
    rest = np.delete(s.coeff, flat_index(1, 0))
    assert np.max(np.abs(rest)) <= 1e-12


# (n_theta, n_phi, L) beyond the fixtures: odd colatitude counts (an
# equator row) at and below their bound, the smallest grids, both
# parities of L
EDGE_CASES = [(25, 48, 22), (255, 512, 200), (2, 4, 0), (3, 8, 1),
              (24, 48, 21)]


def test_round_trip_random_spectrum(grid_default):
    rng = np.random.default_rng(11)
    # an odd longitude count, at its aliasing bound, too
    odd = build_grid(33, 71)
    cases = [(grid_default, 16), (odd, max_degree(odd))]
    cases += [(build_grid(nt, nph), L) for nt, nph, L in EDGE_CASES]
    for grid, L in cases:
        assert L <= max_degree(grid)
        c = rng.uniform(-1.0, 1.0, (L + 1) ** 2)
        s = HarmonicSpectrum(L=L, coeff=c)
        back = analyze(synthesize(s, grid), L)
        assert np.max(np.abs(back.coeff - c)) <= 1e-10


def test_synthesize_zero_spectrum(grid_small):
    f = synthesize(HarmonicSpectrum(L=5, coeff=np.zeros(36)), grid_small)
    assert np.all(f.values == 0.0)


def test_smooth_field_round_trip_through_truncation(grid_default):
    # conformal factor at t=2 is analytic; degree-32 truncation is
    # already below 1e-6 pointwise
    w = mobius_factor(MobiusMap(NORTH, 2.0), grid_default)
    s = analyze(w, 32)
    back = synthesize(s, grid_default)
    assert np.max(np.abs(back.values - w.values)) <= 1e-6


def test_parseval(grid_default):
    rng = np.random.default_rng(3)
    L = 20
    c = rng.standard_normal((L + 1) ** 2)
    f = synthesize(HarmonicSpectrum(L=L, coeff=c), grid_default)
    quad = integrate(ScalarField(grid_default, f.values ** 2))
    assert abs(quad - np.sum(c ** 2)) <= 1e-10 * np.sum(c ** 2)


def test_laplacian_eigenvalues(grid_small):
    s = analyze(ScalarField(grid_small, np.full((24, 48), 3.0)), 4)
    assert np.max(np.abs(laplacian(s).coeff)) <= 1e-12

    x3 = ScalarField(grid_small, grid_small.xyz[:, :, 2])
    s = analyze(x3, 4)
    lap = synthesize(laplacian(s), grid_small)
    assert np.max(np.abs(lap.values + 2.0 * x3.values)) <= 1e-12

    s53 = unit_spectrum(8, 5, 3)
    assert laplacian(s53)[(5, 3)] == pytest.approx(-30.0)


def test_green_identity(grid_default):
    rng = np.random.default_rng(5)
    L = 12
    f = synthesize(HarmonicSpectrum(L=L, coeff=rng.standard_normal((L + 1) ** 2)),
                   grid_default)
    g = synthesize(HarmonicSpectrum(L=L, coeff=rng.standard_normal((L + 1) ** 2)),
                   grid_default)
    lap_f = synthesize(laplacian(analyze(f, L)), grid_default)
    lap_g = synthesize(laplacian(analyze(g, L)), grid_default)
    lhs = integrate(ScalarField(grid_default, f.values * lap_g.values))
    rhs = integrate(ScalarField(grid_default, g.values * lap_f.values))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_dirichlet_energy_of_dipole(grid_small):
    # oracle: -int u Lap u with Lap x3 = -2 x3 and int x3^2 = 4 pi / 3
    x3 = ScalarField(grid_small, grid_small.xyz[:, :, 2])
    s = analyze(x3, 4)
    oracle = 2.0 * integrate(ScalarField(grid_small, x3.values ** 2))
    assert dirichlet_energy(s) == pytest.approx(oracle, rel=1e-12)
    assert dirichlet_energy(s) == pytest.approx(8.0 * np.pi / 3.0, rel=1e-12)


@pytest.mark.parametrize("L", [0, 1, 16, 254])
def test_dirichlet_energy_weights_are_the_old_expression_bitwise(L):
    # the cached read-only l(l+1), squared and weighted in one buffer,
    # gives the bits of summing l(l+1) * c**2 formed as two arrays, for a
    # full and for a zonal spectrum
    rng = np.random.default_rng(L)
    full = rng.standard_normal((L + 1) ** 2)
    zonal = np.zeros_like(full)
    zonal[[flat_index(l, 0) for l in range(L + 1)]] = rng.standard_normal(L + 1)
    l = harmonics.degrees(L)
    weights = harmonics._degree_weights(L)
    assert weights is harmonics._degree_weights(L)
    assert not weights.flags.writeable
    assert weights.tobytes() == (l * (l + 1.0)).tobytes()
    for c in (full, zonal):
        s = HarmonicSpectrum(L=L, coeff=c)
        old = float(np.sum(l * (l + 1.0) * s.coeff ** 2))
        got = dirichlet_energy(s)
        assert np.float64(got).tobytes() == np.float64(old).tobytes()


def test_spectrum_copies_only_arrays_it_cannot_hold(grid_small):
    # a writeable array or a read-only view is copied, so later writes to
    # it do not reach the spectrum; the transforms' fresh read-only
    # results are held as they are
    c = np.arange(16.0)
    s = HarmonicSpectrum(L=3, coeff=c)
    c[0] = 99.0
    assert s.coeff[0] == 0.0 and not s.coeff.flags.writeable
    base = np.arange(16.0)
    view = base[:]
    view.setflags(write=False)
    s = HarmonicSpectrum(L=3, coeff=view)
    base[1] = 99.0
    assert s.coeff[1] == 1.0
    f = ScalarField(grid_small, grid_small.xyz[:, :, 0])
    zonal = ScalarField(grid_small, np.full((24, 48), 2.0))
    for spec in (analyze(f, 4), analyze(zonal, 4), laplacian(analyze(f, 4))):
        assert not spec.coeff.flags.writeable
        assert HarmonicSpectrum(L=4, coeff=spec.coeff).coeff is spec.coeff


@pytest.mark.parametrize("L", [0, 1, 16, 254])
def test_laplacian_weights_are_the_old_expression_bitwise(L):
    # laplacian gives the bits of building -l(l+1) per call, the l = 0
    # factor +0.0 included: a -0.0 there flips the sign of the zero output
    # coefficient, and these seeds give c_00 < 0 at L = 16 and c_00 > 0
    # at the other degrees, so either sign of zero would show
    s = HarmonicSpectrum(L=L, coeff=np.random.default_rng(L).standard_normal(
        (L + 1) ** 2))
    l = harmonics.degrees(L)
    assert laplacian(s).coeff.tobytes() == (-l * (l + 1.0) * s.coeff).tobytes()



@pytest.mark.parametrize("n_theta", [34, 35])
@pytest.mark.parametrize("L", [0, 1, 2, 16])
def test_legendre_first_offset_is_the_closed_form_bitwise(n_theta, L):
    # the three-term step at d = l - m = 1 has b = 0, so its rows are
    # sqrt(2m + 3) x p_mm bit for bit, for the slabs' orders and for the
    # m = 0 table's one order, on even and odd grids
    grid = build_grid(n_theta, 70)
    x = grid.cos_theta[: (n_theta + 1) // 2]
    for orders in (1, L + 1):
        rows = list(harmonics._legendre_offsets(grid, L, orders))
        assert len(rows) == L + 1
        if L == 0:
            continue
        pmm, first = rows[0], rows[1]
        n = min(orders, L)
        closed = np.sqrt(2.0 * np.arange(n) + 3.0)[:, None] * x * pmm[:n]
        assert first.shape == closed.shape
        assert first.tobytes() == closed.tobytes()


def test_dirichlet_energy_properties(grid_default):
    assert dirichlet_energy(HarmonicSpectrum(L=0, coeff=np.array([2.0]))) == 0.0
    rng = np.random.default_rng(9)
    L = 10
    c = rng.standard_normal((L + 1) ** 2)
    s = HarmonicSpectrum(L=L, coeff=c)
    scaled = HarmonicSpectrum(L=L, coeff=3.0 * c)
    assert dirichlet_energy(scaled) == pytest.approx(
        9.0 * dirichlet_energy(s), rel=1e-14)

    # matches -int f Lap f through the quadrature
    f = synthesize(s, grid_default)
    lap = synthesize(laplacian(s), grid_default)
    quad = -integrate(ScalarField(grid_default, f.values * lap.values))
    assert dirichlet_energy(s) == pytest.approx(quad, rel=1e-9)


def test_anti_aliasing_bound(grid_small):
    # the degree is checked first, on the zonal and the general path alike
    assert max_degree(grid_small) == 22
    zonal = ScalarField(grid_small, np.zeros((24, 48)))
    general = ScalarField(grid_small, grid_small.xyz[:, :, 0])
    for f in (zonal, general):
        with pytest.raises(ResolutionError):
            analyze(f, 23)
        with pytest.raises(ValueError, match="non-negative"):
            analyze(f, -1)
        # evaluate too, before it sizes anything by L (no array of
        # 2^62 + 1 weights could be allocated)
        for L in (23, 2**62):
            with pytest.raises(ResolutionError):
                evaluate(f, L=L)
    c = np.zeros(576)
    with pytest.raises(ResolutionError):
        synthesize(HarmonicSpectrum(L=23, coeff=c), grid_small)
    c[flat_index(1, 1)] = 1.0
    with pytest.raises(ResolutionError):
        synthesize(HarmonicSpectrum(L=23, coeff=c), grid_small)
    # L = -1 has no coefficients, so its spectrum is zonal
    with pytest.raises(ValueError, match="non-negative"):
        synthesize(HarmonicSpectrum(L=-1, coeff=np.zeros(0)), grid_small)


def test_high_degree_synthesis_matches_scipy_oracle(grid_hires):
    # scipy's sph_legendre_p carries the Condon-Shortley phase the basis drops
    L = max_degree(grid_hires)
    assert L == 254
    sqrt2 = np.sqrt(2.0)
    worst = 0.0
    for l, m in [(0, 0), (1, 1), (128, 64), (128, -64), (200, 199),
                 (253, 250), (254, 0), (254, 1), (254, 127), (254, -127),
                 (254, 254)]:
        f = synthesize(unit_spectrum(L, l, m), grid_hires)
        p = sph_legendre_p(l, abs(m), grid_hires.theta)[0] * (-1.0) ** m
        if m > 0:
            ang = sqrt2 * np.cos(m * grid_hires.phi)
        elif m < 0:
            ang = sqrt2 * np.sin(-m * grid_hires.phi)
        else:
            ang = np.ones(grid_hires.n_phi)
        worst = max(worst, np.max(np.abs(f.values - p[:, None] * ang[None, :])))
    assert worst <= 1e-10


def test_evaluate_at_points_matches_synthesize(grid_small, grid_hires):
    # (grid, L, node rows, node columns, bound): every node at low degree
    # and on the edge grids, every row of 255x512 at three longitudes,
    # and four rows of the 256x512 grid at its top degree.  The oracle
    # is scipy's per-point Legendre functions and knows nothing of the
    # northern tables, so it checks the southern rows and an odd grid's
    # equator row too.
    every = slice(None)
    cases = [(grid_small, 9, every, every, 1e-11),
             (grid_hires, 254, slice(None, None, 64), every, 1e-10)]
    for nt, nph, L in EDGE_CASES:
        if nt > 200:  # high degree: the 256x512 case's bound
            cases.append((build_grid(nt, nph), L, every,
                          slice(None, None, 200), 1e-10))
        else:
            cases.append((build_grid(nt, nph), L, every, every, 1e-11))
    rng = np.random.default_rng(13)
    for grid, L, rows, cols, bound in cases:
        s = HarmonicSpectrum(L=L, coeff=rng.standard_normal((L + 1) ** 2))
        f = synthesize(s, grid).values[rows, cols]
        th, ph = np.meshgrid(grid.theta[rows], grid.phi[cols], indexing="ij")
        vals = evaluate_at_points(s.coeff, th.ravel(), ph.ravel())
        assert np.max(np.abs(vals.reshape(f.shape) - f)) <= bound


def test_legendre_table_holds_half_the_nodes(grid_hires):
    # paired-m slabs on the northern 128 of 256 colatitudes: about 34 MB
    L = 254
    tables = _legendre_tables(grid_hires, L)
    assert tables.nbytes <= (L // 2 + 1) * (L + 2) * 128 * 8


@pytest.mark.parametrize("n_phi, L", [(64, 30), (66, 31)], ids=["L30", "L31"])
def test_legendre_table_matches_scipy_at_the_nodes(n_phi, L):
    # s = sin(theta) from the grid, not sqrt(1 - x^2), keeps the pole
    # rows accurate: 6.7e-15 here, against 1.4e-12 from sqrt(1 - x^2)
    g = build_grid(2048, n_phi)
    assert max_degree(g) == L
    slabs = _legendre_tables(g, L)
    h = slabs.shape[1]
    # scipy's p_lm carries the Condon-Shortley phase the basis drops
    ref = (sph_legendre_p_all(L, L, g.theta[:h])[0][:, : L + 1]
           * (-1.0) ** np.arange(L + 1)[:, None])
    for m in range(L + 1):
        k, r = (m, 0) if 2 * m <= L else (L - m, m + 1)
        rows = slabs[k, :, r:r + L + 1 - m]
        assert np.max(np.abs(rows - ref[m:, m].T)) <= 1e-13
    if L % 2 == 0:
        # the middle slab holds m = L/2 alone; its other columns are padding
        assert not slabs[L // 2, :, L // 2 + 1:].any()


def test_transforms_reject_a_grid_that_is_not_mirror_symmetric():
    # the parity fold needs bitwise mirrored nodes, so a grid without
    # them cannot be built, not even by dataclasses.replace
    g = build_grid(7, 13)
    south_off = g.xyz.copy()
    south_off[-1, :, 2] = np.nextafter(south_off[-1, :, 2], 0.0)
    # an odd grid's equator must be exactly 0, not cos(pi/2) = 6.1e-17
    equator_off = g.xyz.copy()
    equator_off[3, :, 2] = np.cos(0.5 * np.pi)
    for xyz in (south_off, equator_off):
        with pytest.raises(ResolutionError, match="mirror-symmetric"):
            dataclasses.replace(g, xyz=xyz)


def test_each_grid_gets_the_tables_of_its_own_nodes():
    # a hand-made grid of a tabulated shape: equally spaced, mirrored
    # colatitudes (j + 1/2) pi / 9 instead of the Gauss-Legendre ones
    g = build_grid(9, 18)
    analyze(ScalarField(g, np.zeros((9, 18))), 2)
    theta = (np.arange(9) + 0.5) * np.pi / 9
    x = np.cos(theta)
    x[5:] = -x[:4][::-1]
    x[4] = 0.0
    xyz = np.stack(np.broadcast_arrays(
        np.sin(theta)[:, None] * np.cos(g.phi),
        np.sin(theta)[:, None] * np.sin(g.phi), x[:, None]), axis=-1)
    even = dataclasses.replace(g, theta=theta, xyz=xyz)
    # p_{1,0} = sqrt(3 / 4 pi) cos(theta) is slab 0, column l = 1
    p10 = _legendre_tables(even, 2)[0, 0, 1]
    assert abs(p10 - np.sqrt(3.0 / FOUR_PI) * x[0]) <= 1e-14
    assert abs(p10 - 0.48118) <= 1e-5


# Random grid shapes, odd n_theta included, and any degree L >= 1 they
# resolve, so every drawn case has m != 0 terms.  Degree 0, where analyze
# and synthesize both take the zonal path, is covered by explicit examples:
# the smallest grid, a large odd-n_theta grid and an odd n_phi.
@st.composite
def grid_and_degree(draw):
    grid = build_grid(draw(st.integers(3, 40)), draw(st.integers(6, 81)))
    return grid, draw(st.integers(1, max_degree(grid)))


DEGREE_ZERO = [(build_grid(2, 4), 0), (build_grid(65, 130), 0),
               (build_grid(11, 5), 0)]


def degree_zero_examples(test):
    for case in DEGREE_ZERO:
        test = example(case, 0)(test)
    return test


PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True,
                             deadline=None, database=None)


@PROPERTY_SETTINGS
@given(grid_and_degree(), st.integers(0, 2 ** 32 - 1))
@degree_zero_examples
def test_property_round_trip(case, seed):
    grid, L = case
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (L + 1) ** 2)
    back = analyze(synthesize(HarmonicSpectrum(L=L, coeff=c), grid), L)
    assert np.max(np.abs(back.coeff - c)) <= 1e-10


@PROPERTY_SETTINGS
@given(grid_and_degree(), st.integers(0, 2 ** 32 - 1))
@degree_zero_examples
def test_property_parseval(case, seed):
    grid, L = case
    c = np.random.default_rng(seed).standard_normal((L + 1) ** 2)
    f = synthesize(HarmonicSpectrum(L=L, coeff=c), grid)
    quad = integrate(ScalarField(grid, f.values ** 2))
    assert abs(quad - np.sum(c ** 2)) <= 1e-10 * np.sum(c ** 2)


@PROPERTY_SETTINGS
@given(grid_and_degree(), st.integers(0, 2 ** 32 - 1))
@degree_zero_examples
def test_property_zonal_spectra_stay_zonal(case, seed):
    # m = 0 terms alone give rows constant in phi bitwise, and those
    # analyze back with every m != 0 coefficient exactly 0, not roundoff
    grid, L = case
    l = np.arange(L + 1)
    zonal = flat_index(l, 0)
    c = np.zeros((L + 1) ** 2)
    c[zonal] = np.random.default_rng(seed).uniform(-1.0, 1.0, L + 1)
    f = synthesize(HarmonicSpectrum(L=L, coeff=c), grid)
    assert np.all(f.values == f.values[:, :1])
    back = analyze(f, L).coeff
    assert np.all(np.delete(back, zonal) == 0.0)
    assert np.max(np.abs(back[zonal] - c[zonal])) <= 1e-10


@pytest.mark.parametrize("shape", [(65, 130), (64, 128), (256, 512)])
def test_zonal_and_general_paths_agree(shape):
    # w_t(NORTH) is zonal; one node moved by one ulp, or c_{1,1} = 1e-300,
    # sends the same data through the general path
    grid = build_grid(*shape)
    L = max_degree(grid)
    w = mobius_factor(MobiusMap(NORTH, 2.0), grid)
    s = analyze(w, L)
    assert np.count_nonzero(s.coeff) <= L + 1
    nudged = w.values.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    general = analyze(ScalarField(grid, nudged), L)
    assert np.max(np.abs(general.coeff - s.coeff)) <= 1e-13

    f = synthesize(s, grid)
    assert np.all(f.values == f.values[:, :1])
    c = s.coeff.copy()
    c[flat_index(1, 1)] += 1e-300
    general = synthesize(HarmonicSpectrum(L=L, coeff=c), grid)
    assert np.max(np.abs(general.values - f.values)) <= 1e-13


@pytest.mark.parametrize("shape", [(64, 128), (65, 130), (9, 4)])
def test_zonal_paths_read_the_slab_zero_sums_bitwise(shape):
    # the m = 0 table is bitwise slab 0's columns 0..L, stored degree-major
    # so its parity rows are whole rows; the zonal sums then take another
    # summation order than the strided slab-0 products they replaced, so
    # those agree to roundoff: O(1) sums of at most 33 terms, measured
    # within 1.8e-15
    grid = build_grid(*shape)
    rng = np.random.default_rng(shape[0])
    for L in sorted({0, 1, 2, max_degree(grid)}):
        if L > max_degree(grid):
            continue
        p0, slab0 = _zonal_table(grid, L), _legendre_tables(grid, L)[0, :, : L + 1]
        assert np.array_equal(p0, slab0.T)
        assert p0.flags.c_contiguous
        assert not p0.flags.writeable
        l = np.arange(L + 1)
        c0 = rng.uniform(-1.0, 1.0, L + 1)
        c = np.zeros((L + 1) ** 2)
        c[flat_index(l, 0)] = c0
        f = synthesize(HarmonicSpectrum(L=L, coeff=c), grid)
        ref = harmonics._unfold(grid, slab0[:, 0::2] @ c0[0::2],
                                slab0[:, 1::2] @ c0[1::2], np.empty(grid.n_theta))
        assert np.max(np.abs(f.values[:, 0] - ref)) <= 1e-14
        for col in rng.uniform(-1.0, 1.0, (8, grid.n_theta)):
            f = ScalarField(grid, np.repeat(col[:, None], grid.n_phi, 1))
            back = analyze(f, L).coeff[flat_index(l, 0)]
            even, odd = harmonics._fold(grid, grid.n_phi * grid.weight * col)
            assert np.all(np.abs(back[0::2] - even @ slab0[:, 0::2]) <= 1e-14)
            assert np.all(np.abs(back[1::2] - odd @ slab0[:, 1::2]) <= 1e-14)


@pytest.mark.parametrize("shape", [(64, 128), (65, 130), (9, 4)])
def test_zonal_transforms_keep_parity_exactly(shape):
    # the parity fold makes an even column's odd-l coefficients, and an
    # even-l spectrum's odd part, exactly 0: a zonal-even basis relies
    # on it, and one full-node product each way gives roundoff instead
    grid = build_grid(*shape)
    rng = np.random.default_rng(shape[0] + 1)
    a = rng.uniform(-1.0, 1.0, grid.n_theta)
    even_col, odd_col = a + a[::-1], a - a[::-1]
    assert np.array_equal(even_col, even_col[::-1])
    assert np.array_equal(odd_col, -odd_col[::-1])
    for L in sorted({0, 1, 2, max_degree(grid)}):
        if L > max_degree(grid):
            continue
        l = np.arange(L + 1)
        for col, zero in ((even_col, 1), (odd_col, 0)):
            f = ScalarField(grid, np.repeat(col[:, None], grid.n_phi, 1))
            assert np.all(analyze(f, L).coeff[flat_index(l[zero::2], 0)] == 0.0)
        for parity, sign in ((0, 1.0), (1, -1.0)):
            c = np.zeros((L + 1) ** 2)
            c[flat_index(l[parity::2], 0)] = rng.uniform(-1.0, 1.0, l[parity::2].size)
            col = synthesize(HarmonicSpectrum(L=L, coeff=c), grid).values[:, 0]
            assert np.array_equal(col, sign * col[::-1])


def test_zonal_work_never_builds_the_paired_m_table():
    # a fresh grid (a new identity, so nothing is cached for it) sees a
    # zonal field and a zonal spectrum; _legendre_tables then still has
    # no entry for it, so the call after them is a miss
    grid = dataclasses.replace(build_grid(64, 128))
    L = max_degree(grid)
    w = mobius_factor(MobiusMap(NORTH, 2.0), grid)
    synthesize(analyze(w, L), grid)
    misses = _legendre_tables.cache_info().misses
    _legendre_tables(grid, L)
    assert _legendre_tables.cache_info().misses == misses + 1
