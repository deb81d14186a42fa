"""Functionals, gradients, and residual identities on the sphere.

Covers the Onofri functional J, the improved functional I (Dirichlet
coefficient 1/2), its shift-invariant form, the Aubin family I_alpha,
the perturbed family I_eps with leading factor 1/(2(1-eps)), the
Euler-Lagrange residual of

    -Lap u = 8 pi (1-eps) (exp(2u)/mass - 1/(4 pi)),

the Kazdan-Warner moment identity, and the closed-form/numeric pieces
of the two-point concentration energy expansion.

The gradient and the EL residual share one residual field.  el_residual
takes its Kazdan-Warner defects in closed form (the curvature is
constant): a scaled zero-moment constraint, identically 0 at eps = 1/2,
not a test of the equation; kazdan_warner_residual is the general-h one.

One private kernel, _exp2u, gives evaluate, the EL residual, the
gradient, kazdan_warner_residual and the optimizer every exp(2u)
integral, with a log-average accurate at both ends of the mass.
Overflow is a first-class blow-up signal (RangeOverflowError), never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import harmonics
from .conformal import bubble_mass
from .errors import InvariantViolation, RangeOverflowError
from .grid import FOUR_PI, ScalarField, SphericalGrid, average, integrate_values

#: exp argument ceiling; doubles overflow near 709.78
EXP_LIMIT = 700.0

#: energy lower bound under two-point concentration, 1 - ln 2
OBSTRUCTION_CONSTANT = 1.0 - np.log(2.0)


def _exp2u(grid: SphericalGrid, u: np.ndarray):
    """The one exp(2u) kernel: (e2u, mass, moments, log_avg_exp), with
    moments_i = int exp(2u) x_i and log_avg_exp = ln(mass / 4 pi).

    While mass >= 2 pi, log_avg_exp is log1p(int expm1(2u) / 4 pi):
    near u = 0, ln(mass / 4 pi) has only ~1e-16 absolute accuracy.  Below
    2 pi it is ln(mass / 4 pi): where exp(2u) << 1, expm1(2u) rounds to
    -1 and the excess mass cancels.
    """
    two_u = 2.0 * u
    peak = float(two_u.max())
    if peak > EXP_LIMIT:
        j = int(np.argmax(u))
        jt, jp = np.unravel_index(j, u.shape)
        raise RangeOverflowError(
            f"exp(2u) overflows: max u = {u.max():.6g} at node "
            f"(theta={grid.theta[jt]:.6f}, phi={grid.phi[jp]:.6f})",
            max_value=u.max(), node=(int(jt), int(jp)))
    e2u = np.exp(two_u)
    mass = integrate_values(grid, e2u)
    moments = np.array([integrate_values(grid, e2u * grid.xyz[:, :, i])
                        for i in range(3)])
    if mass >= 0.5 * FOUR_PI:
        log_avg_exp = float(np.log1p(
            integrate_values(grid, np.expm1(two_u)) / FOUR_PI))
    else:
        log_avg_exp = float(np.log(mass / FOUR_PI))
    return e2u, mass, moments, log_avg_exp


def _laplacian_values(u: ScalarField) -> np.ndarray:
    spec = harmonics.analyze(u, harmonics.max_degree(u.grid))
    return harmonics.synthesize(harmonics.laplacian(spec), u.grid).values


@dataclass(frozen=True)
class FunctionalReport:
    """Every scalar diagnostic of a field in one place.

    onofri_J    = avg_grad_sq + 2 avg_u - log_avg_exp        (>= 0)
    improved_I  = avg_grad_sq / 2 - log_avg_exp              (critical
                  Dirichlet coefficient; meaningful on the avg_u = 0 slice)
    shifted_I   = avg_grad_sq / 2 + 2 avg_u - log_avg_exp    (shift invariant)
    i_alpha     = alpha * avg_grad_sq + 2 avg_u - log_avg_exp
    i_eps       = avg_grad_sq / (2 (1-eps)) + 2 avg_u - log_avg_exp
    """

    avg_grad_sq: float
    avg_u: float
    log_avg_exp: float
    mass: float
    moments: np.ndarray = field(repr=False)
    normalized_moments: np.ndarray = field(repr=False)
    onofri_J: float = 0.0
    improved_I: float = 0.0
    shifted_I: float = 0.0
    alpha: float | None = None
    i_alpha: float | None = None
    eps: float | None = None
    i_eps: float | None = None


def evaluate(u: ScalarField, alpha: float | None = None,
             eps: float | None = None, L: int | None = None) -> FunctionalReport:
    """Populate a FunctionalReport for the field u.

    The Dirichlet term is computed spectrally at degree L (defaults to
    the grid's anti-aliasing bound); exp(2u) terms are pointwise.  alpha
    must be finite and eps finite and below 1 (eps < 0 is admitted).
    """
    if alpha is not None and not np.isfinite(alpha):
        raise ValueError(f"alpha={alpha} is not finite")
    if eps is not None and not (-np.inf < eps < 1.0):
        raise ValueError(f"eps={eps} must be finite and below 1")
    grid = u.grid
    _, mass, moments, log_avg_exp = _exp2u(grid, u.values)
    spec = harmonics.analyze(u, harmonics.max_degree(grid) if L is None else L)
    avg_grad_sq = harmonics.dirichlet_energy(spec) / FOUR_PI
    avg_u = average(u)

    report = FunctionalReport(
        avg_grad_sq=avg_grad_sq,
        avg_u=avg_u,
        log_avg_exp=log_avg_exp,
        mass=mass,
        moments=moments,
        normalized_moments=moments / mass,
        onofri_J=avg_grad_sq + 2.0 * avg_u - log_avg_exp,
        improved_I=0.5 * avg_grad_sq - log_avg_exp,
        shifted_I=0.5 * avg_grad_sq + 2.0 * avg_u - log_avg_exp,
        alpha=alpha,
        i_alpha=(None if alpha is None
                 else alpha * avg_grad_sq + 2.0 * avg_u - log_avg_exp),
        eps=eps,
        i_eps=(None if eps is None
               else avg_grad_sq / (2.0 * (1.0 - eps)) + 2.0 * avg_u - log_avg_exp),
    )
    return report


def _el_field(u: ScalarField, eps: float):
    """The Euler-Lagrange residual r = -Lap u - 8 pi (1-eps)(exp(2u)/mass
    - 1/(4 pi)) as values, with the mass and moments it used."""
    e2u, mass, moments, _ = _exp2u(u.grid, u.values)
    r = (-_laplacian_values(u)
         - 8.0 * np.pi * (1.0 - eps) * (e2u / mass - 1.0 / FOUR_PI))
    return r, mass, moments


def l2_gradient(u: ScalarField, eps: float) -> ScalarField:
    """L^2 gradient of the shift-invariant perturbed functional:

        g = -Lap u / (4 pi (1-eps)) + 1/(2 pi) - 2 exp(2u)/mass,

    the Euler-Lagrange residual divided by 4 pi (1-eps).  Vanishes
    exactly on solutions of the Euler-Lagrange equation; its integral is
    zero for every u (the two constant terms balance).
    """
    r, _, _ = _el_field(u, eps)
    return ScalarField(u.grid, r / (FOUR_PI * (1.0 - eps)))


@dataclass(frozen=True)
class ResidualReport:
    """Euler-Lagrange residual field/norm plus Kazdan-Warner defects."""

    el_residual_field: ScalarField = field(repr=False)
    el_residual_norm: float = 0.0
    kw_residual: np.ndarray = field(default=None, repr=False)


def el_residual(u: ScalarField, eps: float) -> ResidualReport:
    """Residual r = -Lap u - 8 pi (1-eps)(exp(2u)/mass - 1/(4 pi)) of the
    Euler-Lagrange equation; its zero integral is asserted on every call.

    kw_residual: Kazdan-Warner defects of Lap v + h exp(v) = c for
    v = 2u - ln mass, h = 16 pi (1-eps), c = 4 (1-eps).  h is constant, so
    they are -(2 - c) h avg(exp(v) x_i) = 8 (1-2 eps)(1-eps) mhat_i with
    mhat_i = int exp(2u) x_i / mass: the zero-moment constraint, scaled,
    identically 0 at eps = 1/2 (Kazdan & Warner, Ann. Math. 1974; Chang &
    Yang, Acta Math. 1987).  They do not test the equation (r does) or
    the general-h identity (kazdan_warner_residual).
    """
    grid = u.grid
    r, mass, moments = _el_field(u, eps)
    norm = float(np.sqrt(integrate_values(grid, r * r)))
    total = integrate_values(grid, r)
    if abs(total) > 1e-9 * max(1.0, norm):
        raise InvariantViolation(
            f"EL residual integral {total:.3e} is not zero")
    kw = 8.0 * (1.0 - 2.0 * eps) * (1.0 - eps) * (moments / mass)
    return ResidualReport(el_residual_field=ScalarField(grid, r),
                          el_residual_norm=norm, kw_residual=kw)


def kazdan_warner_residual(v: ScalarField, h: ScalarField, c: float) -> np.ndarray:
    """Kazdan-Warner defects of Lap v + h exp(v) = c:

        r_i = avg(exp(v) grad h . grad x_i) - (2 - c) avg(exp(v) h x_i).

    grad h . grad x_i is computed from scalar Laplacians only:
    (1/2)[Lap(h x_i) - x_i Lap h + 2 h x_i], using Lap x_i = -2 x_i.
    """
    grid = v.grid
    ev = _exp2u(grid, 0.5 * v.values)[0]
    lap_h = _laplacian_values(h)
    out = np.empty(3)
    for i in range(3):
        xi = grid.xyz[:, :, i]
        lap_hx = _laplacian_values(ScalarField(grid, h.values * xi))
        grad_dot = 0.5 * (lap_hx - xi * lap_h + 2.0 * h.values * xi)
        lhs = integrate_values(grid, ev * grad_dot) / FOUR_PI
        rhs = integrate_values(grid, ev * h.values * xi) / FOUR_PI
        out[i] = lhs - (2.0 - c) * rhs
    return out


@dataclass(frozen=True)
class ExpansionReport:
    """Closed-form and numeric pieces of the concentration energy expansion.

    I1_closed     exact antiderivative of the bubble-core Dirichlet energy:
                  16 pi (ln(1 + 2 pi R^2) + 1/(1 + 2 pi R^2) - 1)
    I1_numeric    radial quadrature of the same integral
    I1_truncated  the leading form 16 pi (ln(1 + 2 pi R^2) - 1)
    truncation_gap  I1_closed - I1_truncated = 16 pi / (1 + 2 pi R^2)
    D_value       -lambda + 2 ln(R^2/(1 + 2 pi R^2)) + 4 (1 - ln 2)
    lambda_peak   peak height of the mass-normalized two-bubble field,
                  2 ln t - ln(8 pi)  (the bridge between the dilation
                  parameter and the planar rescaling)
    obstruction   1 - ln 2
    """

    t: float
    R: float
    lambda_peak: float
    I1_closed: float
    I1_numeric: float
    I1_truncated: float
    truncation_gap: float
    D_value: float
    core_mass: float
    obstruction: float


def energy_expansion_report(t: float, R: float) -> ExpansionReport:
    """Evaluate the energy-expansion diagnostics for dilation t, radius R."""
    if not 0.0 < R < np.inf:
        raise ValueError(f"radius R={R} must be finite and positive")
    if not 1.0 <= t < np.inf:
        raise ValueError(f"dilation t={t} must be finite and >= 1")

    q = 1.0 + 2.0 * np.pi * R * R
    I1_closed = 16.0 * np.pi * (np.log(q) + 1.0 / q - 1.0)
    I1_truncated = 16.0 * np.pi * (np.log(q) - 1.0)

    def integrand(r):
        dphi = -8.0 * np.pi * r / (1.0 + 2.0 * np.pi * r * r)
        return 2.0 * np.pi * r * dphi * dphi

    I1_numeric, _ = quad(integrand, 0.0, R, epsabs=1e-12, epsrel=1e-12, limit=200)

    lambda_peak = 2.0 * np.log(t) - np.log(8.0 * np.pi)
    D_value = (-lambda_peak + 2.0 * np.log(R * R / q)
               + 4.0 * (1.0 - np.log(2.0)))
    return ExpansionReport(
        t=float(t), R=float(R), lambda_peak=lambda_peak,
        I1_closed=I1_closed, I1_numeric=I1_numeric,
        I1_truncated=I1_truncated, truncation_gap=I1_closed - I1_truncated,
        D_value=D_value, core_mass=bubble_mass(R),
        obstruction=OBSTRUCTION_CONSTANT)
