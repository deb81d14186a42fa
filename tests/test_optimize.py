import json
from dataclasses import replace

import numpy as np
import pytest

from sphere_mt import (FOUR_PI, ContinuationResult, MinimizeConfig,
                       ScalarField, average, continuation, el_residual,
                       evaluate, harmonics, minimize)
from sphere_mt.harmonics import flat_index
from sphere_mt.io import to_jsonable
from sphere_mt.optimize import (MASS_THRESHOLD, MU0, STATUS_BLOWUP,
                                STATUS_CAP, STATUS_CONVERGED, _lbfgs_direction,
                                _Workspace)


def test_config_validation():
    with pytest.raises(ValueError):
        MinimizeConfig(eps=0.5)
    with pytest.raises(ValueError):
        MinimizeConfig(eps=-0.1)
    with pytest.raises(ValueError):
        MinimizeConfig(eps=0.2, tol_grad=0.0)
    with pytest.raises(ValueError):
        MinimizeConfig(eps=0.2, init_kind="warmish")
    for bad in ({"tol_grad": np.nan}, {"tol_constraint": np.inf},
                {"max_outer": 0}, {"max_outer": -1}, {"max_inner": -1},
                {"init_kind": "file"}, {"init_path": "u.bin"},
                {"init_kind": "random", "init_path": "u.bin"}):
        with pytest.raises(ValueError):
            MinimizeConfig(eps=0.2, **bad)
    MinimizeConfig(eps=0.0)  # direct problem admitted
    MinimizeConfig(eps=0.2, max_inner=0, init_kind="file", init_path="u.bin")


def test_zero_init_converges_at_the_feasible_stationary_point():
    res = minimize(MinimizeConfig(eps=0.25, L=16))
    assert res.status == STATUS_CONVERGED
    assert res.value <= 1e-8
    assert res.constraint_violation < 1e-8
    assert res.el_residual_norm < 1e-6
    assert np.max(np.abs(res.kw_residual)) < 1e-6
    assert np.max(np.abs(res.multipliers)) < 1e-8
    assert abs(average(res.u_star)) <= 1e-12
    assert res.coeff[0] == 0.0
    assert len(res.trace) >= 1
    assert res.trace[-1].stop_reason == "grad_tol"


def test_converged_ladder_bounds_the_el_residual():
    # on this start the Sobolev-preconditioned gradient norm falls below
    # tol_grad while the EL residual is still 1.03e-6; the inner loops stop
    # on the gradient's L^2 norm, so every converged rung is below 1e-6
    config = MinimizeConfig(eps=0.4, L=16, n_theta=64, n_phi=128,
                            init_kind="random", init_seed=613328449,
                            init_scale=0.1)
    cont = continuation([0.4, 0.3, 0.2, 0.1, 0.05], config)
    for res in cont.results:
        assert res.status == STATUS_CONVERGED
        assert res.trace[-1].grad_norm <= config.tol_grad
        assert res.el_residual_norm < 1e-6


@pytest.mark.parametrize("c", [1e-8, 1e-6])
def test_state_log_avg_exp_keeps_relative_accuracy_near_zero(c):
    # u = c Y_31: log avg exp(2u) = 2 c^2 / 4pi + O(c^4).  log(mass / 4pi)
    # only has ~1e-16 absolute accuracy, which stalled Armijo near u = 0;
    # the optimizer and evaluate share one exp(2u) kernel.
    ws = _Workspace(MinimizeConfig(eps=0.4, L=16, n_theta=64, n_phi=128))
    coeff = np.zeros(17 ** 2)
    coeff[flat_index(3, 1)] = c
    expect = 2.0 * c * c / FOUR_PI
    u, _, report = ws.state(coeff)
    assert abs(report.log_avg_exp - expect) <= 1e-6 * expect
    u = ScalarField(ws.grid, u)
    assert abs(evaluate(u).log_avg_exp - expect) <= 1e-6 * expect


def test_penalty_stops_growing_once_the_constraint_holds():
    # four inner steps per outer iteration stop every inner loop on
    # inner_cap, so the constraint holds while the gradient norm is still
    # orders of magnitude above tol_grad, not at its roundoff floor
    config = MinimizeConfig(eps=0.4, L=16, n_theta=64, n_phi=128,
                            init_kind="random", init_seed=3, tol_grad=1e-13,
                            max_outer=8, max_inner=4)
    res = minimize(config)
    satisfied = [(a, b) for a, b in zip(res.trace, res.trace[1:])
                 if a.violation <= config.tol_constraint]
    assert satisfied
    assert res.trace[-1].mu > res.trace[0].mu
    for a, b in satisfied:
        assert a.grad_norm >= 100.0 * config.tol_grad
        assert b.mu == a.mu
    for e in res.trace:
        assert e.stop_reason in ("grad_tol", "inner_cap", "line_search_failed")
    assert res.trace[0].stop_reason == "inner_cap"


def test_lbfgs_direction_without_pairs_is_the_diagonal():
    rng = np.random.default_rng(11)
    g, h0 = rng.standard_normal(25), rng.uniform(0.1, 2.0, 25)
    assert np.max(np.abs(_lbfgs_direction(g, [], h0) - h0 * g)) <= 1e-12


def test_lbfgs_direction_satisfies_the_newest_secant_equation():
    # the BFGS update enforces H y_k = s_k exactly for the newest pair
    rng = np.random.default_rng(12)
    n = 25
    a = rng.standard_normal((n, n))
    hess = a @ a.T + n * np.eye(n)  # s.y > 0 for every pair
    pairs = []
    for _ in range(4):
        s = rng.standard_normal(n)
        pairs.append((s, hess @ s))
    h0 = rng.uniform(0.1, 2.0, n)
    s_new, y_new = pairs[-1]
    h_y = _lbfgs_direction(y_new, pairs, h0)
    assert np.max(np.abs(h_y - s_new)) <= 1e-12


@pytest.mark.parametrize("t", [2.5, 3.7, 5.0])
def test_bubble_pair_ladder_first_rung_iteration_count(t):
    # regression guard on the inner loop's speed (L-BFGS takes 8-9 here)
    cont = continuation([0.4, 0.3, 0.2, 0.1, 0.05], MinimizeConfig(
        eps=0.4, L=16, n_theta=64, n_phi=128, init_kind="bubble_pair",
        init_t=t))
    assert cont.classification == "compact"
    assert all(s == STATUS_CONVERGED for s in cont.statuses)
    assert sum(e.inner_iters for e in cont.results[0].trace) <= 15


class SlabsBuilt(Exception):
    pass


def test_bubble_pair_ladder_stays_zonal(monkeypatch):
    # a zonal start has x and y moments exactly 0, so lambda_x, lambda_y
    # and the x/y gradient terms stay 0 and every iterate stays zonal: no
    # transform of the ladder needs the paired-m slabs
    def no_slabs(grid, L):
        raise SlabsBuilt(f"paired-m slabs for L={L}")

    monkeypatch.setattr(harmonics, "_legendre_tables", no_slabs)
    base = MinimizeConfig(eps=0.4, L=16, n_theta=64, n_phi=128,
                          init_kind="bubble_pair", init_t=3.7)
    cont = continuation([0.4, 0.3, 0.2, 0.1, 0.05], base)
    l = harmonics.degrees(16)
    m = np.arange(l.size) - l * (l + 1)  # flat index l*l + l + m
    for res in cont.results:
        assert res.status == STATUS_CONVERGED
        assert res.u_star.values.strides[1] == 0
        assert np.all(res.coeff[m != 0] == 0.0)
        assert np.all(res.multipliers[:2] == 0.0)
        assert np.all(res.kw_residual[:2] == 0.0)
    with pytest.raises(SlabsBuilt):
        minimize(replace(base, init_kind="random"))


def test_random_start_iteration_count():
    # regression guard on the inner loop's speed (L-BFGS takes 22 here)
    res = minimize(MinimizeConfig(eps=0.25, init_kind="random", init_seed=3))
    assert res.status == STATUS_CONVERGED
    assert sum(e.inner_iters for e in res.trace) <= 30


def test_result_residual_is_el_residual_of_the_minimizer():
    # _result takes -Lap u from the coefficients at degree L, el_residual
    # from u_star at the grid's max_degree: one residual up to rounding
    ladder = continuation([0.4, 0.3, 0.2, 0.1, 0.05], MinimizeConfig(
        eps=0.4, L=16, n_theta=64, n_phi=128, init_kind="bubble_pair",
        init_t=3.7))
    for res in (minimize(MinimizeConfig(eps=0.25, init_kind="random",
                                        init_seed=3)), ladder.results[-1]):
        assert res.status == STATUS_CONVERGED
        ref = el_residual(res.u_star, res.eps)
        assert (abs(res.el_residual_norm - ref.el_residual_norm)
                <= 1e-12 * ref.el_residual_norm)
        assert np.array_equal(res.kw_residual, ref.kw_residual)


def test_minimize_transforms_only_at_its_own_degree(monkeypatch):
    degrees = []
    analyze, synthesize = harmonics.analyze, harmonics.synthesize

    def recording_analyze(f, L):
        degrees.append(L)
        return analyze(f, L)

    def recording_synthesize(s, grid):
        degrees.append(s.L)
        return synthesize(s, grid)

    monkeypatch.setattr(harmonics, "analyze", recording_analyze)
    monkeypatch.setattr(harmonics, "synthesize", recording_synthesize)
    res = minimize(MinimizeConfig(eps=0.25, L=16, n_theta=64, n_phi=128,
                                  init_kind="bubble_pair", init_t=3.7))
    assert res.status == STATUS_CONVERGED
    assert degrees and set(degrees) == {16}


def test_random_init_reaches_the_same_basin():
    zero_run = minimize(MinimizeConfig(eps=0.25, L=16))
    rand_run = minimize(MinimizeConfig(eps=0.25, L=16, init_kind="random",
                                       init_seed=1, init_scale=0.1))
    assert rand_run.status == STATUS_CONVERGED
    assert rand_run.value <= 1e-8
    assert rand_run.constraint_violation < 1e-8
    # both runs report the same minimum at this eps
    assert abs(rand_run.value - zero_run.value) < 1e-6
    # the moment multipliers vanish at the solution
    assert np.max(np.abs(rand_run.multipliers)) < 1e-6


def test_workspace_gradient_matches_central_differences():
    # the gradient the inner loop uses, moment terms included, against
    # central differences of the objective it minimizes; mode 0 is frozen
    ws = _Workspace(MinimizeConfig(eps=0.3, L=12, n_theta=48, n_phi=96))
    rng = np.random.default_rng(5)
    n = 13 ** 2
    coeff = 0.3 * rng.standard_normal(n)
    coeff[0] = 0.0
    lam, mu = rng.standard_normal(3), MU0
    ghat = ws.gradient(coeff, ws.state(coeff), lam, mu)

    def f(c):
        return ws.objective(ws.state(c), lam, mu)

    for _ in range(5):
        d = rng.standard_normal(n)
        d[0] = 0.0
        exact = float(ghat @ d)
        errs = [abs((f(coeff + h * d) - f(coeff - h * d)) / (2.0 * h) - exact)
                for h in (1e-3, 1e-4)]
        assert errs[1] <= 1e-6 * (1.0 + abs(exact))
        assert np.log10(errs[0] / errs[1]) >= 1.9  # second order


def test_inner_steps_decrease_the_augmented_objective():
    # white-box Armijo check on a non-stationary start
    config = MinimizeConfig(eps=0.45, L=12, n_theta=64, n_phi=128,
                            init_kind="bubble_pair", init_t=8.0)
    ws = _Workspace(config)
    from sphere_mt.optimize import _initial_coeff
    coeff = _initial_coeff(ws, config)
    lam = np.zeros(3)
    mu = MU0
    st = ws.state(coeff)
    f_prev = ws.objective(st, lam, mu)
    objectives = [f_prev]
    for _ in range(5):
        ghat = ws.gradient(coeff, st, lam, mu)
        direction = -ws.precond * ghat
        slope = float(ghat @ direction)
        assert slope < 0.0  # descent direction against the L2 gradient
        alpha = 1.0
        for _ in range(60):
            trial = coeff + alpha * direction
            st_trial = ws.state(trial)
            f_trial = np.inf if st_trial[2] is None else ws.objective(st_trial, lam, mu)
            if f_trial <= f_prev + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        coeff, st, f_prev = trial, st_trial, f_trial
        objectives.append(f_prev)
    assert all(b < a for a, b in zip(objectives, objectives[1:]))


def test_bubble_init_returns_a_definite_status():
    config = MinimizeConfig(eps=0.01, L=16, init_kind="bubble_pair",
                            init_t=6.0, max_outer=15)
    res = minimize(config)
    assert res.status in (STATUS_CONVERGED, STATUS_BLOWUP, STATUS_CAP)
    assert len(res.trace) >= 1
    for entry in res.trace:
        for v in (entry.value, entry.violation, entry.max_u, entry.mass):
            assert v is None or np.isfinite(v)


def test_blowup_detector_fires_on_huge_init():
    res = minimize(MinimizeConfig(eps=0.25, L=16, init_kind="random",
                                  init_seed=3, init_scale=20.0))
    assert res.status == STATUS_BLOWUP
    assert res.trace[-1].max_u > 30.0
    # serialized form is valid strict JSON (no NaN/Infinity)
    text = json.dumps(to_jsonable(res), allow_nan=False)
    assert "NaN" not in text


def test_blowup_detector_reports_the_finite_state_it_stopped_at():
    # at scale 1 exp(2u) stays finite but its mass is past MASS_THRESHOLD
    # (max u is only ~21.5), so the detector fires on a finite state and
    # the report is built from it
    res = minimize(MinimizeConfig(eps=0.25, L=16, init_kind="random",
                                  init_seed=3, init_scale=1.0))
    assert res.status == STATUS_BLOWUP
    last = res.trace[-1]
    assert res.value is not None and res.value == last.value
    assert res.constraint_violation == last.violation
    assert res.u_star.max() == last.max_u
    assert last.mass > MASS_THRESHOLD
    assert np.isfinite(res.el_residual_norm)
    assert np.array_equal(res.multipliers, np.zeros(3))
    json.dumps(to_jsonable(res), allow_nan=False)


def test_supplied_start_is_gauge_fixed_and_left_unchanged():
    config = MinimizeConfig(eps=0.25, L=8, max_outer=2, max_inner=5)
    start = 0.05 * np.random.default_rng(8).standard_normal(81)
    start[0] = 0.7
    before = start.copy()
    res = minimize(config, initial_coeff=start)
    assert res.coeff[0] == 0.0
    assert np.array_equal(start, before)
    with pytest.raises(ValueError):
        minimize(config, initial_coeff=np.zeros(80))


def test_gauge_is_exact():
    res = minimize(MinimizeConfig(eps=0.3, L=12, init_kind="random",
                                  init_seed=5, init_scale=0.05))
    assert res.coeff[0] == 0.0
    assert abs(average(res.u_star)) <= 1e-12


def test_reproducibility():
    config = MinimizeConfig(eps=0.25, L=12, init_kind="random",
                            init_seed=9, init_scale=0.1)
    a = minimize(config)
    b = minimize(config)
    assert a.value == b.value
    assert np.array_equal(a.coeff, b.coeff)
    assert len(a.trace) == len(b.trace)
    for ea, eb in zip(a.trace, b.trace):
        assert ea == eb


def test_continuation_compact_branch():
    cont = continuation([0.4, 0.3, 0.2, 0.1, 0.05],
                        MinimizeConfig(eps=0.4, L=16))
    assert isinstance(cont, ContinuationResult)
    assert cont.classification == "compact"
    assert all(s == STATUS_CONVERGED for s in cont.statuses)
    assert all(m < 26.0 for m in cont.masses)
    assert all(r.value <= 1e-8 for r in cont.results)


def test_continuation_warm_start_is_definitional():
    cont = continuation([0.4, 0.3], MinimizeConfig(
        eps=0.4, L=12, init_kind="random", init_seed=2, init_scale=0.05))
    prev = cont.results[0]
    nxt = cont.results[1]
    # run k starts from run k-1's minimizer: the shift-invariant value at
    # iterate 0 equals the previous run's final value
    assert nxt.trace[0].value == pytest.approx(prev.value, abs=1e-12)


def test_continuation_validates_ladder():
    with pytest.raises(ValueError):
        continuation([0.3, 0.4], MinimizeConfig(eps=0.3))
    with pytest.raises(ValueError):
        continuation([0.6, 0.3], MinimizeConfig(eps=0.3))
    with pytest.raises(ValueError):
        continuation([], MinimizeConfig(eps=0.3))


def test_file_init_roundtrip(tmp_path):
    from sphere_mt.io import write_field
    from sphere_mt import build_grid, bubble_pair
    grid = build_grid(48, 96)
    pair = bubble_pair(3.0, grid)
    path = tmp_path / "start.field.bin"
    write_field(path, pair.field, params={"t": 3.0})
    res = minimize(MinimizeConfig(eps=0.3, L=16, init_kind="file",
                                  init_path=str(path)))
    ref = minimize(MinimizeConfig(eps=0.3, L=16, init_kind="bubble_pair",
                                  init_t=3.0))
    # the file holds the bubble pair bit for bit, so the runs are one run
    assert res.status == ref.status == STATUS_CONVERGED
    assert np.array_equal(res.coeff, ref.coeff)
    assert res.value == ref.value
