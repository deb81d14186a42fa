import numpy as np
import pytest

from sphere_mt import (FOUR_PI, GridSizeError, NonFiniteFieldError,
                       ScalarField, average, build_grid, constant_field,
                       integrate)
from sphere_mt.grid import _gauss_legendre_theta
from sphere_mt.io import read_field, write_field

from _oracles import gauss_legendre_node, ln_sin_sphere_integral


def test_total_weight_is_sphere_area(grid_small):
    # 1025 nodes: odd, with an equator node
    for g in (grid_small, build_grid(1025, 4)):
        assert abs(g.weight.sum() * g.n_phi - FOUR_PI) <= 1e-12 * FOUR_PI
        assert abs(integrate(constant_field(g, 1.0)) - FOUR_PI) \
            <= 1e-12 * FOUR_PI


def test_nodes_are_unit_vectors_off_the_poles(grid_small):
    norms = np.linalg.norm(grid_small.xyz, axis=2)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14
    assert grid_small.theta.min() > 0.0
    assert grid_small.theta.max() < np.pi


def test_build_grid_rejects_tiny_sizes():
    with pytest.raises(GridSizeError):
        build_grid(1, 48)
    with pytest.raises(GridSizeError):
        build_grid(24, 3)


def test_grids_of_one_n_theta_share_one_gauss_legendre_rule():
    # the theta rule is cached per n_theta: a fresh n_theta at two n_phi
    # builds it once, and both grids hold its read-only nodes bitwise
    misses = _gauss_legendre_theta.cache_info().misses
    a, b = build_grid(419, 4), build_grid(419, 6)
    assert _gauss_legendre_theta.cache_info().misses == misses + 1
    assert a.theta.tobytes() == b.theta.tobytes()
    assert not a.theta.flags.writeable and not b.weight.flags.writeable


def test_integrate_second_moment(grid_small):
    f = ScalarField(grid_small, grid_small.xyz[:, :, 2] ** 2)
    assert integrate(f) == pytest.approx(FOUR_PI / 3.0, rel=1e-12)


def test_integrate_odd_symmetry(grid_small):
    # the harmonic transform's parity fold needs the southern nodes to
    # mirror the northern ones bitwise, at every size
    sizes = (*range(2, 301), 1024, 1025)
    for g in (grid_small, *(build_grid(n, 4) for n in sizes)):
        nh = g.n_theta // 2
        assert np.all(np.diff(g.theta) > 0.0)
        assert np.array_equal(g.cos_theta[:nh], -g.cos_theta[::-1][:nh])
        assert np.array_equal(g.weight, g.weight[::-1])
        if g.n_theta % 2:
            assert g.theta[nh] == np.pi / 2
            # exactly 0, not cos(pi/2) = 6.1e-17
            assert g.cos_theta[nh] == 0.0
            assert not g.xyz[nh, :, 2].any()
        for i in range(3):
            assert abs(integrate(ScalarField(g, g.xyz[:, :, i]))) <= 1e-13
        cos_theta = ScalarField(g, np.broadcast_to(
            g.cos_theta[:, None], (g.n_theta, g.n_phi)).copy())
        assert abs(integrate(cos_theta)) <= 1e-13


def test_gauss_legendre_nodes_match_mpmath_oracle():
    # every northern node up to 64 nodes, every sixth and the two next
    # to the pole at 255 and 256; a sample of a tall rule, with its
    # looser historical weight bound
    cases = [(n, range((n + 1) // 2), 1e-12) for n in (2, 3, 48, 64)]
    cases += [(n, sorted({1, 2, *range(0, (n + 1) // 2, 6)}), 1e-12)
              for n in (255, 256)]
    cases.append((2048, (0, 1, 2, 512, 1023), 1e-10))
    for n, nodes, weight_rel in cases:
        g = build_grid(n, 4)
        for k in nodes:
            theta, weight = gauss_legendre_node(n, k)
            assert g.theta[k] == pytest.approx(theta, rel=1e-14, abs=0.0)
            assert g.weight[k] * g.n_phi / (2.0 * np.pi) == pytest.approx(
                weight, rel=weight_rel, abs=0.0)


def test_build_grid_takes_integer_sizes_and_shares_read_only_grids(tmp_path):
    g = build_grid(np.int64(8), np.int64(16))
    assert type(g.n_theta) is int and type(g.n_phi) is int
    write_field(tmp_path / "f.field", constant_field(g, 1.0))
    assert read_field(tmp_path / "f.field").grid is build_grid(8, 16)
    # a float size is refused even once the int-keyed grid is cached
    with pytest.raises(TypeError):
        build_grid(8.0, 16)
    cached = build_grid(8, 16)
    for arr in (cached.theta, cached.weight, cached.xyz):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_tall_rule_integrates_its_top_even_monomial(grid_tall):
    # x^(2n-2) is the highest even degree the n-node rule integrates
    # exactly, and its mass sits at the poles, where the weights are
    # hardest to get right
    n = grid_tall.n_theta
    f = ScalarField(grid_tall, grid_tall.xyz[:, :, 2] ** (2 * n - 2))
    assert integrate(f) == pytest.approx(
        2.0 * np.pi * 2.0 / (2 * n - 1), rel=1e-11, abs=0.0)


def test_integrate_log_sin_converges_to_oracle():
    # integrand has log singularities at the poles: only algebraic
    # convergence, validated against the 1-D oracle 4 pi (ln 2 - 1)
    expected = ln_sin_sphere_integral()
    assert expected == pytest.approx(FOUR_PI * (np.log(2.0) - 1.0), abs=1e-11)
    errs = []
    for n in (24, 96, 384):
        g = build_grid(n, 4)
        f = ScalarField(g, np.log(np.sin(g.theta))[:, None].repeat(4, axis=1))
        errs.append(abs(integrate(f) - expected))
    assert errs[0] <= 2e-2
    assert errs[-1] <= 2e-4
    assert errs[0] > errs[1] > errs[2]


def test_integrate_is_linear(grid_small):
    rng = np.random.default_rng(7)
    shape = (grid_small.n_theta, grid_small.n_phi)
    f = ScalarField(grid_small, rng.standard_normal(shape))
    g = ScalarField(grid_small, rng.standard_normal(shape))
    a, b = 1.7, -0.3
    combo = ScalarField(grid_small, a * f.values + b * g.values)
    assert integrate(combo) == pytest.approx(
        a * integrate(f) + b * integrate(g), abs=1e-12)


def test_refinement_consistency_for_band_limited_field():
    coarse = build_grid(16, 32)
    fine = build_grid(32, 64)
    vals = []
    for g in (coarse, fine):
        z = g.xyz[:, :, 2]
        f = ScalarField(g, np.exp(z) * (1.0 + g.xyz[:, :, 0]))
        vals.append(integrate(f))
    assert vals[0] == pytest.approx(vals[1], abs=1e-8)


def test_average_is_integral_over_4pi(grid_small):
    f = constant_field(grid_small, 2.5)
    assert average(f) == pytest.approx(2.5, rel=1e-13)


def test_scalar_field_rejects_nan(grid_small):
    vals = np.zeros((grid_small.n_theta, grid_small.n_phi))
    vals[3, 5] = np.nan
    with pytest.raises(NonFiniteFieldError):
        ScalarField(grid_small, vals)
    with pytest.raises(GridSizeError):
        ScalarField(grid_small, np.zeros((5, 5)))
    with pytest.raises(GridSizeError):  # same node count, transposed
        ScalarField(grid_small, np.zeros((grid_small.n_phi, grid_small.n_theta)))


def test_fields_are_immutable(grid_small):
    f = constant_field(grid_small, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        grid_small.weight[0] = 0.0


def test_zonal_fields_are_stored_as_one_broadcast_column(grid_small):
    # a field constant in phi, given contiguous or as a stride-0
    # broadcast, is kept as a read-only broadcast of its own column
    g = grid_small
    shape = (g.n_theta, g.n_phi)
    col = np.random.default_rng(3).standard_normal((g.n_theta, 1))
    contiguous = np.repeat(col, g.n_phi, axis=1)
    for given in (contiguous, np.broadcast_to(col, shape)):
        f = ScalarField(g, given)
        assert f.values.shape == shape and f.values.strides[1] == 0
        assert not f.values.flags.writeable
        assert not np.shares_memory(f.values, given)
        assert np.array_equal(f.values, contiguous)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
    # the caller's array stays its own: changing it leaves the field be
    contiguous[0, :] = 7.0
    assert f.values[0, 0] == col[0, 0]


def test_non_zonal_fields_are_stored_as_a_contiguous_copy(grid_small):
    g = grid_small
    vals = np.random.default_rng(4).standard_normal((g.n_theta, g.n_phi))
    # equal in all but one node of the last column: the scan looks at
    # every node, not just columns 0 and 1
    near = np.repeat(vals[:, :1], g.n_phi, axis=1)
    near[-1, -1] += 1.0
    for given in (vals, vals.T.copy().T, near):
        f = ScalarField(g, given)
        assert f.values.flags.c_contiguous and f.values.strides[1] == 8
        assert not f.values.flags.writeable
        assert not np.shares_memory(f.values, given)
        assert np.array_equal(f.values, given)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(24, 48), (33, 65), (256, 512)])
def test_max_and_min_are_those_of_the_contiguous_copy(shape):
    # max and min read a zonal field's column; zonal or not, they give
    # the bits of the same reduction over every node of a full copy
    g = build_grid(*shape)
    rng = np.random.default_rng(shape[1])
    col = rng.standard_normal((g.n_theta, 1))
    for given in (np.broadcast_to(col, shape), np.repeat(col, g.n_phi, axis=1),
                  rng.standard_normal(shape)):
        f = ScalarField(g, given)
        copy = np.ascontiguousarray(f.values)
        assert f.max().hex() == float(copy.max()).hex()
        assert f.min().hex() == float(copy.min()).hex()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_zonal_field_names_its_first_node(grid_small, bad):
    # a whole row set to the bad value: the first non-finite node in
    # row-major order is (row, 0), whether the field is stored as a
    # column (inf rows are zonal; a nan row is zonal only as a
    # broadcast) or as a full copy
    g = grid_small
    col = np.zeros((g.n_theta, 1))
    col[5] = bad
    for given in (np.repeat(col, g.n_phi, axis=1),
                  np.broadcast_to(col, (g.n_theta, g.n_phi))):
        with pytest.raises(NonFiniteFieldError,
                           match=r"\(theta_idx=5, phi_idx=0\)"):
            ScalarField(g, given)
    vals = np.zeros((g.n_theta, g.n_phi))
    vals[3, 5] = bad
    with pytest.raises(NonFiniteFieldError, match=r"\(theta_idx=3, phi_idx=5\)"):
        ScalarField(g, vals)
