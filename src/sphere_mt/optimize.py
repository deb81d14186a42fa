"""Constrained minimization of the perturbed functional over the
zero-moment class by an augmented-Lagrangian method.

The iterate lives in spectral space (degree <= L) with the constant mode
frozen at zero, which fixes the mean-zero gauge once and removes a flat
direction.  The moment constraints are imposed on the mass-normalized
moments; their multipliers start at zero (the analytic multipliers vanish
for every eps > 0).  The inner loop is L-BFGS in the Sobolev metric
(Nocedal & Wright, Numerical Optimization, ch. 7): the two-loop recursion
over the last LBFGS_MEMORY (s, y) pairs, with H0 = gamma * precond, where
precond = 1/(1 + l(l+1)).  gamma starts at 4 pi (1-eps), the inverse scale
of the gradient's Laplacian term, and after each stored pair becomes
s.y / y.(precond y) (sec. 7.2); a pair with s.y <= 0 is skipped.  Each
outer iteration changes the objective, so it starts with empty memory and
gamma reset.  A step tries alpha = 1 first, then Armijo backtracking; a
two-loop direction that is not a descent direction drops the memory for
-gamma * precond * g.  The preconditioner shapes the steps, not the
stopping test: an inner loop stops once the L^2 norm of the spectral
gradient is at most tol_grad, and that gradient is the EL residual's
degree <= L part over 4 pi (1-eps) plus the moment terms.  Blow-up is
detected operationally from iterate max and mass thresholds and
reported as a status, never raised.

The penalty schedule (MU0, MU_GROWTH), the blow-up thresholds
(MAX_U_THRESHOLD, MASS_THRESHOLD) and the L-BFGS memory (LBFGS_MEMORY)
are module constants, not MinimizeConfig options: every run uses the one
value of each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import conformal, harmonics
from .errors import RangeOverflowError
from .functional import _exp2u, _log_avg_exp, _report, _residual
from .grid import FOUR_PI, ScalarField, _column, build_grid
from .io import read_field

ARMIJO_C1 = 1e-4
ARMIJO_BACKTRACK = 0.5
MAX_BACKTRACKS = 60
LBFGS_MEMORY = 10
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
        if (self.init_kind == "file") != (self.init_path is not None):
            raise ValueError("init kind 'file' and init_path go together, got "
                             f"kind {self.init_kind!r} and path {self.init_path!r}")


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
    """Outcome of a run: gauge-fixed minimizer, diagnostics, trace; the
    EL residual takes -Lap u from coeff, l(l+1) c_lm at degree <= L.
    Status "converged" bounds the spectral gradient's L^2 norm by
    tol_grad and the violation by tol_constraint (see minimize)."""

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
        self.ll1 = harmonics._degree_weights(self.L)
        self.precond = 1.0 / (1.0 + self.ll1)

    def state(self, coeff: np.ndarray) -> tuple:
        """(u, exp(2u), report) at a spectral point, the report taken at
        avg_u = 0 (the gauge); (u, None, None) if exp(2u) overflows."""
        spec = harmonics.HarmonicSpectrum(L=self.L, coeff=coeff)
        u = harmonics.synthesize(spec, self.grid).values
        try:
            e2u, mass, moments = _exp2u(self.grid, u)
        except RangeOverflowError:
            return u, None, None
        return u, e2u, _report(harmonics.dirichlet_energy(spec) / FOUR_PI, 0.0,
                               _log_avg_exp(self.grid, u, mass), mass, moments,
                               eps=self.config.eps)

    def objective(self, st: tuple, lam: np.ndarray, mu: float) -> float:
        """I_eps plus the augmented-Lagrangian moment terms."""
        mhat = st[2].normalized_moments
        return st[2].i_eps + float(lam @ mhat) + 0.5 * mu * float(mhat @ mhat)

    def gradient(self, coeff: np.ndarray, st: tuple, lam: np.ndarray,
                 mu: float) -> np.ndarray:
        """Spectral L^2 gradient of the augmented objective, mode 0 frozen.

        Only the exp(2u) terms need the grid; the Laplacian term is the
        diagonal l(l+1) c_lm / (4 pi (1-eps)) in coefficient space.  A
        zonal exp(2u) is worked on its column, its z term on z's column.
        Its x and y moments are exactly 0, so while lam_x and lam_y are 0
        too their weights are 0 and g stays a zonal broadcast (a zonal
        start stays zonal through every rung); a nonzero x or y weight
        takes the full xyz slice.
        """
        eps = self.config.eps
        _, e2u, report = st
        mass, mhat = report.mass, report.normalized_moments
        e2u_col = _column(e2u)
        g = 1.0 / (2.0 * np.pi) - 2.0 * e2u_col / mass
        for i in range(3):
            weight_i = lam[i] + mu * mhat[i]
            if weight_i != 0.0:
                x_i = self.grid.xyz[:, :1, 2] if i == 2 else self.grid.xyz[:, :, i]
                g = g + weight_i * 2.0 * e2u_col * (x_i - mhat[i]) / mass
        g = np.broadcast_to(g, e2u.shape)
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
        if ((f.grid.n_theta, f.grid.n_phi)
                != (ws.grid.n_theta, ws.grid.n_phi)):
            raise ValueError(
                f"init field grid ({f.grid.n_theta}, {f.grid.n_phi}) does not "
                f"match run grid ({ws.grid.n_theta}, {ws.grid.n_phi})")
    return harmonics.analyze(f, config.L).coeff


def _trace_entry(ws, outer, st, lam, mu, grad_norm=None, inner_iters=0,
                 stop_reason=None) -> TraceEntry:
    u, _, report = st
    value = objective = violation = mass = None
    if report is not None:  # else exp(2u) overflowed
        value, mass = report.improved_I, report.mass
        objective = ws.objective(st, lam, mu)
        violation = float(np.max(np.abs(report.normalized_moments)))
    return TraceEntry(
        outer=outer, value=value, objective=objective, violation=violation,
        grad_norm=grad_norm, max_u=float(_column(u).max()), mass=mass, mu=mu,
        inner_iters=inner_iters, stop_reason=stop_reason)


def _result(ws, coeff, st, multipliers, trace, status) -> MinimizeResult:
    """The run's result at coeff; st is its state and trace[-1] its entry."""
    u_star = ScalarField(ws.grid, st[0])
    resid = kw = None
    if st[2] is not None:
        neg_lap = harmonics.HarmonicSpectrum(L=ws.L, coeff=ws.ll1 * coeff)
        rep = _residual(ws.grid, harmonics.synthesize(neg_lap, ws.grid).values,
                        st[1], st[2].mass, st[2].moments, ws.config.eps)
        resid, kw = rep.el_residual_norm, rep.kw_residual
    return MinimizeResult(
        u_star=u_star, value=trace[-1].value, multipliers=multipliers,
        constraint_violation=trace[-1].violation, el_residual_norm=resid,
        kw_residual=kw, trace=tuple(trace), status=status, eps=ws.config.eps,
        coeff=coeff.copy())


def _lbfgs_direction(g: np.ndarray, pairs, h0: np.ndarray) -> np.ndarray:
    """H g by the L-BFGS two-loop recursion (Nocedal & Wright, Numerical
    Optimization, alg. 7.4): H is the inverse-Hessian estimate built from
    the diagonal h0 and the (s, y) pairs, oldest first, each with s.y > 0.
    """
    q = np.array(g, dtype=float)
    rhos = [1.0 / float(s @ y) for s, y in pairs]
    alphas = []
    for (s, y), rho in zip(reversed(pairs), reversed(rhos)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    r = h0 * q
    for (s, y), rho, a in zip(pairs, rhos, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return r


def _blown_up(st: tuple) -> bool:
    """Blow-up detector: exp(2u) overflowed or a threshold passed."""
    u, _, report = st
    return (report is None or float(_column(u).max()) > MAX_U_THRESHOLD
            or report.mass > MASS_THRESHOLD)


def _blowup(ws, coeff, st, lam, mu, trace) -> MinimizeResult:
    """The blowup_detected result at coeff; its last trace entry is the
    state the detector fired on."""
    entry = _trace_entry(ws, len(trace), st, lam, mu)
    return _result(ws, coeff, st, lam, trace + [entry], STATUS_BLOWUP)


def minimize(config: MinimizeConfig,
             initial_coeff: np.ndarray | None = None) -> MinimizeResult:
    """Augmented-Lagrangian descent on the perturbed functional.

    Outer iterations update multipliers lambda_i += mu * mhat_i and grow
    the penalty when the violation is above tol_constraint and failed to
    shrink by a factor of 4 (Nocedal & Wright, Numerical Optimization,
    ch. 17: a satisfied constraint never needs a larger penalty).
    Inner iterations are L-BFGS steps in the Sobolev metric until the
    spectral gradient's L^2 norm, sqrt(g.g), is at most tol_grad: the
    direction is -H g from the two-loop recursion over at most
    LBFGS_MEMORY pairs with H0 = gamma * precond (gamma = 4 pi (1-eps) at
    the start of every outer iteration, whose memory starts empty, then
    s.y / y.(precond y) after each stored pair; pairs with s.y <= 0 are
    skipped), falling back to -gamma * precond * g with the memory
    dropped if that is not a descent direction.  Each step tries
    alpha = 1, then Armijo backtracking.  Returns converged /
    blowup_detected / iteration_cap; evaluation overflow becomes
    blowup_detected.  converged bounds the spectral gradient's L^2 norm
    (by tol_grad) and the violation (by tol_constraint).  The start is
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

    for outer in range(config.max_outer):
        inner_iters = 0
        stop_reason = "grad_tol"
        pairs = deque(maxlen=LBFGS_MEMORY)  # lambda or mu changed: reset
        gamma = FOUR_PI * (1.0 - config.eps)
        ghat = ws.gradient(coeff, st, lam, mu)
        grad_norm = float(np.sqrt(ghat @ ghat))
        f_cur = ws.objective(st, lam, mu)

        while grad_norm > config.tol_grad:
            if inner_iters >= config.max_inner:
                stop_reason = "inner_cap"
                break
            direction = -_lbfgs_direction(ghat, pairs, gamma * ws.precond)
            slope = float(ghat @ direction)
            if not slope < 0.0:
                pairs.clear()
                direction = -gamma * ws.precond * ghat
                slope = float(ghat @ direction)
            alpha = 1.0
            for _ in range(MAX_BACKTRACKS):
                trial = coeff + alpha * direction
                st_trial = ws.state(trial)
                f_trial = (np.inf if st_trial[2] is None
                           else ws.objective(st_trial, lam, mu))
                if f_trial <= f_cur + ARMIJO_C1 * alpha * slope:
                    break
                alpha *= ARMIJO_BACKTRACK
            else:
                stop_reason = "line_search_failed"
                break
            step = trial - coeff
            coeff = trial
            st = st_trial
            f_cur = f_trial
            if _blown_up(st):
                return _blowup(ws, coeff, st, lam, mu, trace)
            inner_iters += 1
            ghat_new = ws.gradient(coeff, st, lam, mu)
            dgrad = ghat_new - ghat
            sy = float(step @ dgrad)
            if sy > 0.0:
                pairs.append((step, dgrad))
                gamma = sy / float(dgrad @ (ws.precond * dgrad))
            ghat = ghat_new
            grad_norm = float(np.sqrt(ghat @ ghat))

        entry = _trace_entry(ws, outer, st, lam, mu, grad_norm, inner_iters,
                             stop_reason)
        trace.append(entry)
        viol = entry.violation
        if viol <= config.tol_constraint and grad_norm <= config.tol_grad:
            status = STATUS_CONVERGED
            break

        lam = lam + mu * st[2].normalized_moments
        if viol > config.tol_constraint and viol > prev_viol / 4.0:
            mu *= MU_GROWTH
        prev_viol = viol

    return _result(ws, coeff, st, lam + mu * st[2].normalized_moments,
                   trace, status)


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
        exploding = (all(b > a for a, b in zip(masses, masses[1:]))
                     and masses[-1] > 100.0 * masses[0])
        classification = "blowing_up" if exploding else "compact"
    else:
        classification = "inconclusive"
    return ContinuationResult(
        results=tuple(results), eps_list=eps_list, masses=masses,
        max_values=tuple(r.trace[-1].max_u for r in results),
        statuses=statuses, classification=classification)
