"""Functionals, gradients, and residual identities on the sphere.

Covers the Onofri functional J, the improved functional I (Dirichlet
coefficient 1/2), its shift-invariant form, the Aubin family I_alpha,
the perturbed family I_eps with leading factor 1/(2(1-eps)), the
Euler-Lagrange residual of

    -Lap u = 8 pi (1-eps) (exp(2u)/mass - 1/(4 pi)),

the Kazdan-Warner moment identity for any curvature h (the first
moments of one field, two Laplacians), and the closed-form/numeric
pieces of the two-point concentration energy expansion.

One private kernel, _exp2u, gives evaluate, the EL residual, the
gradient and the optimizer every exp(2u) integral; beside it,
_log_avg_exp gives the functionals (evaluate and the optimizer) a
log-average accurate at both ends of the mass.  Both take exp(2u) from
_exp2, the one overflow guard, which kazdan_warner_residual and the
CLI's conformal checks call for exp(2u) alone.  A zonal u (stored by
ScalarField as a broadcast column) is exponentiated on its column, and
the columns stay broadcast, so grid and harmonics, which own the
zonal rules, take its integrals and first moments (grid._first_moments,
which kazdan_warner_residual shares) and its Dirichlet term and
Laplacian (harmonics._field_dirichlet and _field_laplacian) without a
full grid or an (L+1)^2 spectrum.  One private constructor, _report,
writes out J, I, the shifted I, I_alpha, I_eps and the normalized
moments for evaluate and the optimizer; beside it, _residual forms the
EL residual, its norm, zero-integral check and closed-form
Kazdan-Warner defects from -Lap u and the exp(2u) parts, for
el_residual (hence l2_gradient) and the optimizer; on a zonal u it
forms r on the column and broadcasts it, so el_residual negates only
the Laplacian's column and l2_gradient divides only r's column.
Overflow is a first-class blow-up signal (RangeOverflowError), never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .conformal import bubble_mass
from .errors import InvariantViolation, RangeOverflowError
from .grid import (FOUR_PI, ScalarField, SphericalGrid, _column,
                   _first_moments, average, integrate_values)

#: exp argument ceiling; doubles overflow near 709.78
EXP_LIMIT = 700.0

#: energy lower bound under two-point concentration, 1 - ln 2
OBSTRUCTION_CONSTANT = 1.0 - np.log(2.0)


def _exp2(grid: SphericalGrid, u: np.ndarray) -> np.ndarray:
    """exp(2u) behind the overflow guard (RangeOverflowError above
    EXP_LIMIT), as a read-only (n_theta, n_phi) array.  A zonal u, or
    its column, is exponentiated on that column and broadcast."""
    col = _column(u)
    two_u = 2.0 * col
    if float(two_u.max()) > EXP_LIMIT:
        jt, jp = np.unravel_index(int(np.argmax(col)), col.shape)
        raise RangeOverflowError(
            f"exp(2u) overflows: max u = {col.max():.6g} at node "
            f"(theta={grid.theta[jt]:.6f}, phi={grid.phi[jp]:.6f})")
    return np.broadcast_to(np.exp(two_u), (grid.n_theta, grid.n_phi))


def _exp2u(grid: SphericalGrid, u: np.ndarray):
    """The one exp(2u) kernel: (e2u, mass, moments), with
    moments_i = int exp(2u) x_i (_first_moments).

    On a zonal u, e2u is a broadcast column, mass and the z moment take
    one column's products, and the x and y moments are exactly 0.0.
    """
    e2u = _exp2(grid, u)
    return e2u, integrate_values(grid, e2u), _first_moments(grid, e2u)


def _log_avg_exp(grid: SphericalGrid, u: np.ndarray, mass: float) -> float:
    """ln(mass / 4 pi) for the mass _exp2u gave, accurate at both ends.

    While mass >= 2 pi it is log1p(int expm1(2u) / 4 pi): near u = 0,
    ln(mass / 4 pi) has only ~1e-16 absolute accuracy.  Below 2 pi it is
    ln(mass / 4 pi): where exp(2u) << 1, expm1(2u) rounds to -1 and the
    excess mass cancels.  Only the functionals need it (evaluate and the
    optimizer's state), so the residuals skip its expm1 pass, which a
    zonal u takes on its column.
    """
    if mass >= 0.5 * FOUR_PI:
        em1 = np.broadcast_to(np.expm1(2.0 * _column(u)), u.shape)
        return float(np.log1p(integrate_values(grid, em1) / FOUR_PI))
    return float(np.log(mass / FOUR_PI))


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


def _report(avg_grad_sq: float, avg_u: float, log_avg_exp: float,
            mass: float, moments: np.ndarray, alpha: float | None = None,
            eps: float | None = None) -> FunctionalReport:
    """The one place the functionals are written out from their parts."""
    return FunctionalReport(
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


def evaluate(u: ScalarField, alpha: float | None = None,
             eps: float | None = None, L: int | None = None) -> FunctionalReport:
    """Populate a FunctionalReport for the field u.

    The Dirichlet term is computed spectrally at degree L (defaults to
    the grid's anti-aliasing bound) by harmonics._field_dirichlet.
    exp(2u) terms are pointwise.  alpha must be finite and eps finite
    and below 1 (eps < 0 is admitted).
    """
    if alpha is not None and not np.isfinite(alpha):
        raise ValueError(f"alpha={alpha} is not finite")
    if eps is not None and not (-np.inf < eps < 1.0):
        raise ValueError(f"eps={eps} must be finite and below 1")
    grid = u.grid
    L = harmonics.max_degree(grid) if L is None else L
    _, mass, moments = _exp2u(grid, u.values)
    dirichlet = harmonics._field_dirichlet(u, L)
    return _report(dirichlet / FOUR_PI, average(u),
                   _log_avg_exp(grid, u.values, mass), mass, moments, alpha, eps)


@dataclass(frozen=True)
class ResidualReport:
    """Euler-Lagrange residual field/norm plus Kazdan-Warner defects."""

    el_residual_field: ScalarField = field(repr=False)
    el_residual_norm: float = 0.0
    kw_residual: np.ndarray = field(default=None, repr=False)


def _residual(grid: SphericalGrid, neg_lap_u: np.ndarray, e2u: np.ndarray,
              mass: float, moments: np.ndarray, eps: float) -> ResidualReport:
    """The one place r = -Lap u - 8 pi (1-eps)(exp(2u)/mass - 1/(4 pi)) is
    formed; its zero integral is asserted.

    kw_residual: Kazdan-Warner defects of Lap v + h exp(v) = c for
    v = 2u - ln mass, h = 16 pi (1-eps), c = 4 (1-eps).  h is constant, so
    they are -(2 - c) h avg(exp(v) x_i) = 8 (1-2 eps)(1-eps) mhat_i with
    mhat_i = int exp(2u) x_i / mass: the zero-moment constraint, scaled,
    identically 0 at eps = 1/2 (Kazdan & Warner, Ann. Math. 1974; Chang &
    Yang, Acta Math. 1987).  They do not test the equation (r does) or
    the general-h identity (kazdan_warner_residual).

    r is formed on the columns of zonal parts (either may also be given
    as its (n_theta, 1) column) and is broadcast to the grid, a full
    array only when one part is; its field takes that broadcast, and its
    integrals are taken on its column when it is zonal.
    """
    shape = (grid.n_theta, grid.n_phi)
    col = _column(neg_lap_u) - 8.0 * np.pi * (1.0 - eps) * (
        _column(e2u) / mass - 1.0 / FOUR_PI)
    r = np.broadcast_to(col, shape)
    norm = float(np.sqrt(integrate_values(grid, np.broadcast_to(col * col, shape))))
    total = integrate_values(grid, r)
    if abs(total) > 1e-9 * max(1.0, norm):
        raise InvariantViolation(
            f"EL residual integral {total:.3e} is not zero")
    kw = 8.0 * (1.0 - 2.0 * eps) * (1.0 - eps) * (moments / mass)
    return ResidualReport(el_residual_field=ScalarField(grid, r),
                          el_residual_norm=norm, kw_residual=kw)


def el_residual(u: ScalarField, eps: float) -> ResidualReport:
    """Euler-Lagrange residual of u and its closed-form Kazdan-Warner
    defects (see _residual), -Lap u taken at the grid's max_degree."""
    e2u, mass, moments = _exp2u(u.grid, u.values)
    neg_lap_u = -_column(harmonics._field_laplacian(u))
    return _residual(u.grid, neg_lap_u, e2u, mass, moments, eps)


def l2_gradient(u: ScalarField, eps: float) -> ScalarField:
    """L^2 gradient of the shift-invariant perturbed functional:

        g = -Lap u / (4 pi (1-eps)) + 1/(2 pi) - 2 exp(2u)/mass,

    the Euler-Lagrange residual divided by 4 pi (1-eps).  Vanishes
    exactly on solutions of the Euler-Lagrange equation; its integral is
    zero for every u (the two constant terms balance), and is asserted.
    A zonal r is divided on its column and broadcast.
    """
    r = el_residual(u, eps).el_residual_field.values
    col = _column(r) / (FOUR_PI * (1.0 - eps))
    return ScalarField(u.grid, np.broadcast_to(col, r.shape))


def kazdan_warner_residual(v: ScalarField, h: ScalarField, c: float) -> np.ndarray:
    """Kazdan-Warner defects of Lap v + h exp(v) = c:

        r_i = avg(exp(v) grad h . grad x_i) - (2 - c) avg(exp(v) h x_i).

    2 grad h . grad x_i = Lap(h x_i) - x_i Lap h + 2 h x_i (Lap x_i = -2 x_i).
    Lap = S diag(-l(l+1)) A (A analyze, S synthesize) is symmetric under
    the quadrature: int f Lap g = sum -l(l+1) A(f)_lm A(g)_lm = int g Lap f.
    So r_i = avg(x_i q), q = (h Lap e^v - e^v Lap h)/2 + (c - 1) h e^v:
    two Laplacians, of e^v and of h.  _residual's closed form is the
    constant-h case: Lap h = 0 and avg(x_i Lap e^v) = -2 avg(x_i e^v)
    exactly, x_i being of degree 1.  When v and h are both zonal, q is
    formed on their columns, so its x and y defects are exactly 0.0
    (_first_moments); otherwise q is formed on the full grid.
    """
    grid = v.grid
    ev = _exp2(grid, 0.5 * _column(v.values))
    hc, evc = _column(h.values), _column(ev)
    lap_ev = _column(harmonics._field_laplacian(ScalarField(grid, ev)))
    lap_h = _column(harmonics._field_laplacian(h))
    q = 0.5 * (hc * lap_ev - evc * lap_h) + (c - 1.0) * hc * evc
    return _first_moments(grid, np.broadcast_to(q, ev.shape)) / FOUR_PI


@dataclass(frozen=True)
class ExpansionReport:
    """Closed-form and numeric pieces of the concentration energy expansion.

    I1_closed     exact antiderivative of the bubble-core Dirichlet energy:
                  16 pi (ln(1 + 2 pi R^2) + 1/(1 + 2 pi R^2) - 1), which
                  for x = 2 pi R^2 < 1/2 is 16 pi sum_{k>=2} y^k / k,
                  y = x / (1 + x)
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
    """Evaluate the energy-expansion diagnostics for dilation t, radius R.

    Raises ValueError for an R whose R^2 underflows to 0 (D_value would be
    -inf) or whose 2 pi R^2 overflows, and for one whose radial
    quadrature QUADPACK reports as not converged (R = 1e60 and larger).
    """
    # in Python floats, which overflow to inf without a warning
    R = float(R)
    if not (0.0 < R and 0.0 < R * R and 2.0 * np.pi * R * R < np.inf):
        raise ValueError(f"radius R={R} must be positive, R^2 > 0 and 2 pi R^2 < inf")
    if not 1.0 <= t < np.inf:
        raise ValueError(f"dilation t={t} must be finite and >= 1")

    # scipy.integrate is imported here, not at module level: only this
    # report uses it, and evaluate, sweep and minimize should not load it
    from scipy.integrate import quad

    x = 2.0 * np.pi * R * R
    q = 1.0 + x
    if x < 0.5:
        # ln q + 1/q - 1 cancels once q rounds away the low digits of x;
        # the series in y < 1/3 has converged to roundoff by y^40 / 40
        y, core = x / q, 0.0
        for k in range(40, 1, -1):
            core = 1.0 / k + y * core
        I1_closed = 16.0 * np.pi * (y * y * core)
    else:
        I1_closed = 16.0 * np.pi * (np.log(q) + 1.0 / q - 1.0)
    I1_truncated = 16.0 * np.pi * (np.log(q) - 1.0)

    def integrand(r):
        dphi = -8.0 * np.pi * r / (1.0 + 2.0 * np.pi * r * r)
        return 2.0 * np.pi * r * dphi * dphi

    I1_numeric, _, _, *message = quad(integrand, 0.0, R, epsabs=1e-12,
                                      epsrel=1e-12, limit=200, full_output=1)
    if message:
        raise ValueError(f"radial quadrature at R={R} did not converge: "
                         f"{message[0].splitlines()[0].strip()}")

    lambda_peak = 2.0 * np.log(t) - np.log(8.0 * np.pi)
    D_value = (-lambda_peak + 2.0 * np.log(R * R / q)
               + 4.0 * (1.0 - np.log(2.0)))
    return ExpansionReport(
        t=float(t), R=R, lambda_peak=lambda_peak,
        I1_closed=I1_closed, I1_numeric=I1_numeric,
        I1_truncated=I1_truncated, truncation_gap=I1_closed - I1_truncated,
        D_value=D_value, core_mass=bubble_mass(R),
        obstruction=OBSTRUCTION_CONSTANT)
