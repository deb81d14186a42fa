"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion (adding -s also prints the measured numbers).
"""

import json
import time

import numpy as np
import pytest

from sphere_mt import (FOUR_PI, HarmonicSpectrum, MinimizeConfig, MobiusMap,
                       ScalarField, analyze, average, bubble_mass,
                       bubble_pair, build_grid, constant_field, continuation,
                       el_residual, energy_expansion_report, evaluate,
                       green_two_pole, green_two_pole_value, integrate,
                       l2_gradient, laplacian, max_degree, minimize,
                       mobius_factor, mobius_pullback, synthesize)
from sphere_mt.cli import bubble_sweep_rows, sweep_grid_sizes
from sphere_mt.conformal import NORTH
from sphere_mt.io import to_jsonable
from sphere_mt.optimize import STATUS_BLOWUP, STATUS_CAP, STATUS_CONVERGED

LN2 = np.log(2.0)


def test_criterion_1_quadrature_and_transform(grid_default):
    t0 = time.perf_counter()

    total = integrate(constant_field(grid_default, 1.0))
    assert abs(total - FOUR_PI) <= 1e-12 * FOUR_PI

    for i in range(3):
        xi = ScalarField(grid_default, grid_default.xyz[:, :, i])
        assert abs(integrate(xi)) <= 1e-13

    for i in range(3):
        for j in range(3):
            prod = ScalarField(grid_default,
                               grid_default.xyz[:, :, i] * grid_default.xyz[:, :, j])
            expect = FOUR_PI / 3.0 if i == j else 0.0
            assert integrate(prod) == pytest.approx(expect, abs=1e-10 * FOUR_PI / 3.0)
            if i == j:
                assert abs(integrate(prod) - expect) <= 1e-10 * expect

    rng = np.random.default_rng(42)
    coeff = rng.uniform(-1.0, 1.0, 17 ** 2)
    spec = HarmonicSpectrum(L=16, coeff=coeff)
    back = analyze(synthesize(spec, grid_default), 16)
    max_err = float(np.max(np.abs(back.coeff - coeff)))
    assert max_err < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: round-trip err {max_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_onofri_property(grid_default, grid_opt):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = np.inf
    for _ in range(1000):
        L = int(rng.integers(1, 17))
        scale = float(rng.uniform(0.02, 1.0))
        coeff = scale * rng.uniform(-1.0, 1.0, (L + 1) ** 2)
        u = synthesize(HarmonicSpectrum(L=L, coeff=coeff), grid_opt)
        rep = evaluate(u, L=L)
        worst = min(worst, rep.onofri_J)
        assert rep.onofri_J >= -1e-6

    equality_worst = 0.0
    for t in (1.0, 2.0, 3.0, 5.0):
        tu = mobius_pullback(constant_field(grid_default, 0.0),
                             MobiusMap(NORTH, t))
        J = evaluate(tu).onofri_J
        equality_worst = max(equality_worst, abs(J))
        assert abs(J) <= 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 2 PASS: min J {worst:.3e}, max |J| at equality "
          f"{equality_worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_conformal_invariants(grid_default):
    L = max_degree(grid_default)
    for t in (1.0, 2.0, 4.0, 8.0):
        w = mobius_factor(MobiusMap(NORTH, t), grid_default)
        area = integrate(ScalarField(grid_default, np.exp(2.0 * w.values)))
        assert area == pytest.approx(FOUR_PI, rel=1e-8)
        lap = synthesize(laplacian(analyze(w, L)), grid_default)
        resid = float(np.max(np.abs(lap.values + np.exp(2.0 * w.values) - 1.0)))
        assert resid < 1e-5

    for t in (2.0, 5.0, 10.0):
        grid = grid_default if t <= 8.0 else build_grid(80, 160)
        rep = evaluate(bubble_pair(t, grid).field)
        assert np.max(np.abs(rep.moments)) < 1e-10
    print("criterion 3 PASS")


def test_criterion_4_green_function(grid_tall):
    value = green_two_pole_value(np.pi / 2.0)
    assert abs(value - (-4.0 * (1.0 - LN2))) <= 1e-9

    h = 1e-3
    for th in (np.pi / 3.0, np.pi / 2.0, 2.0 * np.pi / 3.0):
        gv = green_two_pole_value
        lap = ((gv(th + h) - 2.0 * gv(th) + gv(th - h)) / h ** 2
               + (gv(th + h) - gv(th - h)) / (2.0 * h) / np.tan(th))
        assert -lap == pytest.approx(-4.0, abs=1e-4)

    # the log pole singularity integrates only ~n^-2 accurately, so the
    # 1e-8 zero-average target needs a tall colatitude grid
    avg = average(green_two_pole(grid_tall))
    assert abs(avg) <= 1e-8
    print(f"criterion 4 PASS: avg(G) = {avg:.2e} on 24576-node rule")


def test_criterion_5_energy_expansion():
    for R in (0.5, 1.0, 5.0, 10.0):
        rep = energy_expansion_report(2.0, R)
        assert rep.I1_numeric == pytest.approx(rep.I1_closed, rel=1e-6)
        assert bubble_mass(R) == np.pi * R * R / (1.0 + 2.0 * np.pi * R * R)

    obstruction = energy_expansion_report(2.0, 1.0).obstruction
    assert obstruction == pytest.approx(0.30685281944, abs=5e-11)
    print(f"criterion 5 PASS: obstruction {obstruction:.11f}")


def test_criterion_6_gradient_correctness(grid_default):
    eps = 0.25
    rng = np.random.default_rng(42)
    base_coeff = 0.4 * rng.standard_normal(49)
    u = synthesize(HarmonicSpectrum(L=6, coeff=base_coeff), grid_default)
    g = l2_gradient(u, eps)

    def shifted(field):
        rep = evaluate(field)
        return (rep.avg_grad_sq / (2.0 * (1.0 - eps)) + 2.0 * rep.avg_u
                - rep.log_avg_exp)

    orders = []
    for _ in range(20):
        phi = synthesize(HarmonicSpectrum(L=6, coeff=rng.standard_normal(49)),
                         grid_default)
        exact = integrate(ScalarField(grid_default, g.values * phi.values))
        errs = []
        for h in (1e-3, 1e-4):
            up = ScalarField(grid_default, u.values + h * phi.values)
            um = ScalarField(grid_default, u.values - h * phi.values)
            fd = (shifted(up) - shifted(um)) / (2.0 * h)
            errs.append(abs(fd - exact))
        orders.append(np.log10(errs[0] / errs[1]))
    assert min(orders) >= 1.9

    res = el_residual(u, eps)
    diff = res.el_residual_field.values - FOUR_PI * (1.0 - eps) * g.values
    assert np.max(np.abs(diff)) <= 1e-10
    print(f"criterion 6 PASS: FD orders in [{min(orders):.2f}, {max(orders):.2f}]")


def _aubin_sweep_columns():
    """t in [2, 20] sampled at the sweep's 7 default steps, alphas 0.4/0.5/0.6."""
    nt, np_ = sweep_grid_sizes(20.0, 64, 128)
    grid = build_grid(nt, np_)
    t_values = np.linspace(2.0, 20.0, 7)
    rows = bubble_sweep_rows(t_values, [0.4, 0.5, 0.6], grid)
    cols = {a: [row[5 + k] for row in rows]
            for k, a in enumerate((0.4, 0.5, 0.6))}
    return t_values, cols


def test_criterion_7_aubin_divergence_below_half():
    t0 = time.perf_counter()
    t_values, cols = _aubin_sweep_columns()
    col04 = cols[0.4]
    assert all(b < a for a, b in zip(col04, col04[1:])), col04
    # critical coefficient: the 0.5 column moves by less than 0.5
    # between t = 10 and t = 20
    idx10 = int(np.argmin(np.abs(t_values - 11.0)))
    assert abs(cols[0.5][-1] - cols[0.5][idx10]) < 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 7 (alpha<1/2) PASS: I_0.4 falls {col04[0]:.4f} -> "
          f"{col04[-1]:.4f}, {elapsed:.1f}s")


def test_criterion_7_boundedness_above_half():
    # stated form: min of the I_0.6 column exceeds its t=20 value minus
    # 0.05.  The column is increasing along the family (its slope is
    # (4*alpha - 2) ln t > 0 for alpha > 1/2), so the minimum sits at
    # t=2, far below the t=20 value; see notes in the repo docs.
    _, cols = _aubin_sweep_columns()
    col06 = cols[0.6]
    assert min(col06) > col06[-1] - 0.05, (
        f"min {min(col06):.4f} vs t=20 value {col06[-1]:.4f}")


def test_criterion_8_constrained_minimization():
    t0 = time.perf_counter()
    res = minimize(MinimizeConfig(eps=0.25, L=16))
    assert res.status == STATUS_CONVERGED
    assert res.constraint_violation < 1e-8
    assert res.el_residual_norm < 1e-6
    assert np.max(np.abs(res.kw_residual)) < 1e-6
    assert res.value <= 1e-8

    cont = continuation([0.4, 0.3, 0.2, 0.1, 0.05],
                        MinimizeConfig(eps=0.4, L=16))
    assert len(cont.results) == 5
    assert all(m is not None and m < 26.0 for m in cont.masses)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 8 PASS: value {res.value:.2e}, residual "
          f"{res.el_residual_norm:.2e}, masses < 26, {elapsed:.1f}s")


def test_criterion_9_blowup_detector_is_total():
    config = MinimizeConfig(eps=0.01, L=16, init_kind="bubble_pair",
                            init_t=6.0, max_outer=20)
    assert config.init_t == config.n_theta / 8.0  # largest resolvable
    res = minimize(config)
    assert res.status in (STATUS_CONVERGED, STATUS_BLOWUP, STATUS_CAP)
    assert len(res.trace) >= 1
    payload = json.dumps(to_jsonable(res), allow_nan=False)
    assert "NaN" not in payload and "Infinity" not in payload
    print(f"criterion 9 PASS: status {res.status}, trace length {len(res.trace)}")
