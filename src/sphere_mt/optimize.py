"""Constrained minimization of the perturbed functional over the
zero-moment class by an augmented-Lagrangian method.

The iterate lives in spectral space (degree <= L) with the constant mode
frozen at zero, which fixes the mean-zero gauge once and removes a flat
direction.  The moment constraints are imposed on the mass-normalized
moments; their multipliers start at zero (the analytic multipliers vanish
for every eps > 0).  Inner iterations descend along the Sobolev-
preconditioned gradient with Armijo backtracking; blow-up is detected
operationally from iterate max and mass thresholds and reported as a
status, never raised.

The penalty schedule (MU0, MU_GROWTH) and the blow-up thresholds
(MAX_U_THRESHOLD, MASS_THRESHOLD) are module constants, not
MinimizeConfig options: every run uses the one value of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import conformal, harmonics
from .errors import RangeOverflowError
from .functional import _exp2u, el_residual
from .grid import FOUR_PI, ScalarField, build_grid
from .io import read_field

ARMIJO_C1 = 1e-4
ARMIJO_BACKTRACK = 0.5
MAX_BACKTRACKS = 60
MU0 = 10.0
MU_GROWTH = 4.0
MAX_U_THRESHOLD = 30.0
MASS_THRESHOLD = 1e12

STATUS_CONVERGED = "converged"
STATUS_BLOWUP = "blowup_detected"
STATUS_CAP = "iteration_cap"


@dataclass(frozen=True)
class MinimizeConfig:
    """Configuration of one constrained minimization run."""

    eps: float
    L: int = 16
    n_theta: int = 48
    n_phi: int = 96
    tol_grad: float = 1e-8
    tol_constraint: float = 1e-8
    max_outer: int = 30
    max_inner: int = 400
    init_kind: str = "zero"  # zero | random | bubble_pair | file
    init_seed: int = 42
    init_scale: float = 0.1
    init_t: float = 2.0
    init_path: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.eps < 0.5):
            raise ValueError(f"eps={self.eps} outside [0, 1/2)")
        if not (0.0 < self.tol_grad < np.inf and 0.0 < self.tol_constraint < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_outer < 1 or self.max_inner < 0:
            raise ValueError(f"need max_outer >= 1 and max_inner >= 0, got "
                             f"{self.max_outer} and {self.max_inner}")
        if self.init_kind not in ("zero", "random", "bubble_pair", "file"):
            raise ValueError(f"unknown init kind {self.init_kind!r}")
        if self.init_kind == "file" and self.init_path is None:
            raise ValueError("init kind 'file' needs an init_path")


@dataclass(frozen=True)
class TraceEntry:
    """One outer-iteration snapshot (values may be None after blow-up).

    stop_reason says why the inner loop ended: grad_tol, inner_cap or
    line_search_failed (no Armijo step within MAX_BACKTRACKS); it is None
    when blow-up interrupted the loop.
    """

    outer: int
    value: float | None
    objective: float | None
    violation: float | None
    grad_norm: float | None
    max_u: float | None
    mass: float | None
    mu: float
    inner_iters: int
    stop_reason: str | None = None


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a run: gauge-fixed minimizer, diagnostics, trace."""

    u_star: ScalarField = field(repr=False)
    value: float | None
    multipliers: np.ndarray = field(repr=False)
    constraint_violation: float | None
    el_residual_norm: float | None
    kw_residual: np.ndarray = field(default=None, repr=False)
    trace: tuple = ()
    status: str = STATUS_CAP
    eps: float = 0.0
    coeff: np.ndarray = field(default=None, repr=False)


class _Workspace:
    """Per-run precomputed tables and evaluation helpers."""

    def __init__(self, config: MinimizeConfig):
        self.config = config
        self.grid = build_grid(config.n_theta, config.n_phi)
        harmonics._check_degree(self.grid, config.L)
        self.L = config.L
        ld = harmonics.degrees(self.L)
        self.ll1 = ld * (ld + 1.0)
        self.precond = 1.0 / (1.0 + self.ll1)

    def synth(self, coeff: np.ndarray) -> np.ndarray:
        spec = harmonics.HarmonicSpectrum(L=self.L, coeff=coeff)
        return harmonics.synthesize(spec, self.grid).values

    def state(self, coeff: np.ndarray) -> dict | None:
        """Evaluate everything at a spectral point; None if exp overflows."""
        spec = harmonics.HarmonicSpectrum(L=self.L, coeff=coeff)
        u = harmonics.synthesize(spec, self.grid).values
        try:
            e2u, mass, moments, log_avg_exp = _exp2u(self.grid, u)
        except RangeOverflowError:
            return None
        ags = harmonics.dirichlet_energy(spec) / FOUR_PI
        return {"u": u, "e2u": e2u, "mass": mass, "mhat": moments / mass,
                "ags": ags, "log_avg_exp": log_avg_exp,
                "max_u": float(u.max())}

    def objective(self, st: dict, lam: np.ndarray, mu: float) -> float:
        eps = self.config.eps
        shifted = st["ags"] / (2.0 * (1.0 - eps)) - st["log_avg_exp"]
        return shifted + float(lam @ st["mhat"]) + 0.5 * mu * float(st["mhat"] @ st["mhat"])

    def value(self, st: dict) -> float:
        """Shift-invariant critical functional (the reported value)."""
        return 0.5 * st["ags"] - st["log_avg_exp"]

    def gradient(self, coeff: np.ndarray, st: dict, lam: np.ndarray,
                 mu: float) -> np.ndarray:
        """Spectral L^2 gradient of the augmented objective, mode 0 frozen.

        Only the exp(2u) terms need the grid; the Laplacian term is the
        diagonal l(l+1) c_lm / (4 pi (1-eps)) in coefficient space.
        """
        eps = self.config.eps
        g = 1.0 / (2.0 * np.pi) - 2.0 * st["e2u"] / st["mass"]
        for i in range(3):
            weight_i = lam[i] + mu * st["mhat"][i]
            if weight_i != 0.0:
                g = g + weight_i * 2.0 * st["e2u"] * (self.grid.xyz[:, :, i] - st["mhat"][i]) / st["mass"]
        ghat = (harmonics.analyze(ScalarField(self.grid, g), self.L).coeff
                + self.ll1 * coeff / (FOUR_PI * (1.0 - eps)))
        ghat[0] = 0.0
        return ghat


def _initial_coeff(ws: _Workspace, config: MinimizeConfig) -> np.ndarray:
    """Start coefficients before minimize() fixes the mean-zero gauge."""
    n = (config.L + 1) ** 2
    if config.init_kind == "zero":
        return np.zeros(n)
    if config.init_kind == "random":
        rng = np.random.default_rng(config.init_seed)
        return config.init_scale * rng.standard_normal(n)
    if config.init_kind == "bubble_pair":
        f = conformal.bubble_pair(config.init_t, ws.grid).field
    else:
        f = read_field(config.init_path)
        if f.grid != ws.grid:
            raise ValueError(
                f"init field grid ({f.grid.n_theta}, {f.grid.n_phi}) does not "
                f"match run grid ({ws.grid.n_theta}, {ws.grid.n_phi})")
    return harmonics.analyze(f, config.L).coeff


def _trace_entry(ws, outer, st, lam, mu, grad_norm=None, inner_iters=0,
                 stop_reason=None) -> TraceEntry:
    return TraceEntry(
        outer=outer, value=ws.value(st), objective=ws.objective(st, lam, mu),
        violation=float(np.max(np.abs(st["mhat"]))), grad_norm=grad_norm,
        max_u=st["max_u"], mass=st["mass"], mu=mu, inner_iters=inner_iters,
        stop_reason=stop_reason)


def _result(ws, coeff, st, multipliers, trace, status) -> MinimizeResult:
    """The run's result at coeff; st is its state, None if exp overflowed."""
    u_star = ScalarField(ws.grid, ws.synth(coeff) if st is None else st["u"])
    value = viol = resid = kw = None
    if st is not None:
        value = ws.value(st)
        viol = float(np.max(np.abs(st["mhat"])))
        rep = el_residual(u_star, ws.config.eps)
        resid, kw = rep.el_residual_norm, rep.kw_residual
    return MinimizeResult(
        u_star=u_star, value=value, multipliers=multipliers,
        constraint_violation=viol, el_residual_norm=resid, kw_residual=kw,
        trace=tuple(trace), status=status, eps=ws.config.eps,
        coeff=coeff.copy())


def _blown_up(st: dict | None) -> bool:
    """Blow-up detector: exp(2u) overflowed (st is None) or a threshold passed."""
    return (st is None or st["max_u"] > MAX_U_THRESHOLD
            or st["mass"] > MASS_THRESHOLD)


def _blowup(ws, coeff, st, lam, mu, trace) -> MinimizeResult:
    """The blowup_detected result at coeff; its last trace entry is the
    state the detector fired on (st is None if exp overflowed there)."""
    if st is None:
        entry = TraceEntry(outer=len(trace), value=None, objective=None,
                           violation=None, grad_norm=None,
                           max_u=float(ws.synth(coeff).max()), mass=None,
                           mu=mu, inner_iters=0)
    else:
        entry = _trace_entry(ws, len(trace), st, lam, mu)
    return _result(ws, coeff, st, lam, trace + [entry], STATUS_BLOWUP)


def minimize(config: MinimizeConfig,
             initial_coeff: np.ndarray | None = None) -> MinimizeResult:
    """Augmented-Lagrangian descent on the perturbed functional.

    Outer iterations update multipliers lambda_i += mu * mhat_i and grow
    the penalty when the violation is above tol_constraint and failed to
    shrink by a factor of 4 (Nocedal & Wright, Numerical Optimization,
    ch. 17: a satisfied constraint never needs a larger penalty).
    Inner iterations take Armijo steps along the negative Sobolev-
    preconditioned gradient until the preconditioned gradient norm falls
    below tol_grad.  Returns converged / blowup_detected / iteration_cap;
    evaluation overflow becomes blowup_detected.  The start is
    initial_coeff if given (the caller's array is not modified), else the
    one config.init_kind describes; its constant mode is set to zero.
    """
    ws = _Workspace(config)
    start = _initial_coeff(ws, config) if initial_coeff is None else initial_coeff
    coeff = np.array(start, dtype=float)
    if coeff.shape != ((config.L + 1) ** 2,):
        raise ValueError("initial coefficient vector has wrong length")
    coeff[0] = 0.0  # mean-zero gauge

    lam = np.zeros(3)
    mu = MU0
    trace: list[TraceEntry] = []

    st = ws.state(coeff)
    if _blown_up(st):
        return _blowup(ws, coeff, st, lam, mu, trace)

    status = STATUS_CAP
    prev_viol = np.inf
    alpha = 1.0

    for outer in range(config.max_outer):
        inner_iters = 0
        stop_reason = "grad_tol"
        ghat = ws.gradient(coeff, st, lam, mu)
        pnorm = float(np.sqrt(np.sum(ghat * ghat * ws.precond)))
        f_cur = ws.objective(st, lam, mu)

        while pnorm > config.tol_grad:
            if inner_iters >= config.max_inner:
                stop_reason = "inner_cap"
                break
            direction = -ws.precond * ghat
            slope = float(ghat @ direction)  # negative by construction
            alpha = min(4.0 * alpha, 64.0)
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                trial = coeff + alpha * direction
                st_trial = ws.state(trial)
                f_trial = (np.inf if st_trial is None
                           else ws.objective(st_trial, lam, mu))
                if f_trial <= f_cur + ARMIJO_C1 * alpha * slope:
                    accepted = True
                    break
                alpha *= ARMIJO_BACKTRACK
            if not accepted:
                stop_reason = "line_search_failed"
                break
            coeff = trial
            st = st_trial
            f_cur = f_trial
            if _blown_up(st):
                return _blowup(ws, coeff, st, lam, mu, trace)
            inner_iters += 1
            ghat = ws.gradient(coeff, st, lam, mu)
            pnorm = float(np.sqrt(np.sum(ghat * ghat * ws.precond)))

        entry = _trace_entry(ws, outer, st, lam, mu, pnorm, inner_iters,
                             stop_reason)
        trace.append(entry)
        viol = entry.violation
        if viol <= config.tol_constraint and pnorm <= config.tol_grad:
            status = STATUS_CONVERGED
            break

        lam = lam + mu * st["mhat"]
        if viol > config.tol_constraint and viol > prev_viol / 4.0:
            mu *= MU_GROWTH
        prev_viol = viol

    return _result(ws, coeff, st, lam + mu * st["mhat"], trace, status)


@dataclass(frozen=True)
class ContinuationResult:
    """Per-eps results plus the compactness-vs-blow-up classification."""

    results: tuple = ()
    eps_list: tuple = ()
    masses: tuple = ()
    max_values: tuple = ()
    statuses: tuple = ()
    classification: str = "inconclusive"


def continuation(eps_list, base: MinimizeConfig) -> ContinuationResult:
    """Solve along a decreasing eps ladder, warm-starting each run.

    The ladder completes even if individual runs blow up; the summary
    classifies the family as "compact" (all runs converged, masses
    bounded) or "blowing_up" (a detector fired, or masses monotonically
    explode), else "inconclusive".
    """
    configs = [replace(base, eps=float(e)) for e in eps_list]
    if not configs:
        raise ValueError("eps_list is empty")
    eps_list = tuple(c.eps for c in configs)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    results = []
    warm = None
    for config in configs:
        res = minimize(config, initial_coeff=warm)
        results.append(res)
        if res.status != STATUS_BLOWUP:
            warm = res.coeff

    masses = tuple(r.trace[-1].mass for r in results)
    statuses = tuple(r.status for r in results)
    if any(s == STATUS_BLOWUP for s in statuses):
        classification = "blowing_up"
    elif all(s == STATUS_CONVERGED for s in statuses):
        finite = [m for m in masses if m is not None]
        exploding = (len(finite) == len(masses)
                     and all(b > a for a, b in zip(finite, finite[1:]))
                     and finite[-1] > 100.0 * finite[0])
        classification = "blowing_up" if exploding else "compact"
    else:
        classification = "inconclusive"
    return ContinuationResult(
        results=tuple(results), eps_list=eps_list, masses=masses,
        max_values=tuple(r.trace[-1].max_u for r in results),
        statuses=statuses, classification=classification)
