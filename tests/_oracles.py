"""Independent 1-D oracles for the sphere tests.

Everything here is derived in the colatitude variable c = cos(theta)
with adaptive scipy quadrature, closed antiderivatives, scipy's own
spherical Legendre functions or 40- to 50-digit mpmath arithmetic, never
through the package's own grids or transforms, so it can arbitrate them.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import sph_legendre_p_all

FOUR_PI = 4.0 * np.pi


def ln_sin_sphere_integral() -> float:
    """integral of ln(sin theta) over S^2 = 4 pi (ln 2 - 1).

    1-D oracle: int_0^pi ln(sin th) sin(th) dth = 2 ln 2 - 2.
    """
    val, _ = quad(lambda th: np.log(np.sin(th)) * np.sin(th), 0.0, np.pi,
                  epsabs=1e-13)
    return 2.0 * np.pi * val


def single_bubble_energy(t: float) -> float:
    """Dirichlet energy of one conformal factor by radial quadrature."""
    if t == 1.0:
        return 0.0

    def f(c):
        A = (1.0 + c) + t * t * (1.0 - c)
        return (1.0 - c * c) * (t * t - 1.0) ** 2 / (A * A)

    val, _ = quad(f, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * np.pi * val


def single_bubble_average(t: float) -> float:
    """Average of one conformal factor from the exact antiderivative."""
    if t == 1.0:
        return 0.0
    a, b = 1.0 + t * t, 1.0 - t * t
    I = ((a + b) * (np.log(a + b) - 1.0) - (a - b) * (np.log(a - b) - 1.0)) / b
    return (2.0 * np.log(2.0 * t) - I) / 2.0


def pair_energy(t: float) -> float:
    """Dirichlet energy of the two-bubble field by radial quadrature."""
    if t == 1.0:
        return 0.0

    def f(c):
        An = (1.0 + c) + t * t * (1.0 - c)
        As = (1.0 - c) + t * t * (1.0 + c)
        return (1.0 - c * c) * (2.0 * c * (t * t - 1.0) ** 2 / (An * As)) ** 2

    val, _ = quad(f, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * np.pi * val


def pair_mass(t: float) -> float:
    """integral of exp(2 * pair field) by radial quadrature."""

    def f(c):
        An = (1.0 + c) + t * t * (1.0 - c)
        As = (1.0 - c) + t * t * (1.0 + c)
        return 16.0 * t ** 4 / (An * As) ** 2

    val, _ = quad(f, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * np.pi * val


def pair_i_alpha(t: float, alpha: float) -> float:
    """I_alpha along the two-bubble family, entirely from 1-D oracles."""
    ags = pair_energy(t) / FOUR_PI
    avg_u = 2.0 * single_bubble_average(t)
    log_avg_exp = np.log(pair_mass(t) / FOUR_PI)
    return alpha * ags + 2.0 * avg_u - log_avg_exp


def bubble_core_energy(R: float, dps: int = 50) -> float:
    """16 pi (ln(1 + x) + 1/(1 + x) - 1) with x = 2 pi R^2, the bubble-core
    Dirichlet energy of the expansion report, at `dps` digits."""
    with mpmath.workdps(dps):
        x = 2 * mpmath.pi * mpmath.mpf(R) ** 2
        return float(16 * mpmath.pi * (mpmath.log1p(x) + 1 / (1 + x) - 1))


def gauss_legendre_node(n: int, k: int, dps: int = 40):
    """Node k (theta ascending) of the n-point Gauss-Legendre rule.

    Newton in x on the plain three-term recurrence at `dps` digits, from
    Tricomi's guess; returns (theta, weight) rounded to floats, with the
    weight on [-1, 1] (the n weights sum to 2).
    """
    with mpmath.workdps(dps):
        def p_pair(x):
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            return p, p_prev

        x = (1 - mpmath.mpf(n - 1) / (8 * mpmath.mpf(n) ** 3)) * mpmath.cos(
            mpmath.pi * (4 * k + 3) / (4 * n + 2))
        tol = mpmath.mpf(10) ** (5 - dps)
        for _ in range(100):
            p, p_prev = p_pair(x)
            step = p * (1 - x * x) / (n * (p_prev - x * p))
            x -= step
            if abs(step) < tol:
                break
        _, p_prev = p_pair(x)
        weight = 2 * (1 - x * x) / (n * p_prev) ** 2
        return float(mpmath.acos(x)), float(weight)


def evaluate_at_points(coeff, theta, phi):
    """sum_lm c_lm Y_lm at arbitrary points, coefficients flat l*l + l + m.

    Y_{l,0} = p_{l,0}(cos theta), Y_{l,+-m} = sqrt(2) p_{l,m}(cos theta)
    (cos, sin)(m phi), with p_{l,m} from scipy's sph_legendre_p_all and
    its (-1)^m Condon-Shortley factor removed.  Tables are taken per
    distinct theta, about 32 MB of them at a time: one table over every
    point would hold (L+1)(2L+1) values per point, 2.1 GB for 2048
    points at L = 254.
    """
    coeff = np.asarray(coeff, dtype=float)
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    L = math.isqrt(coeff.size) - 1
    l, m = np.tril_indices(L + 1)
    c_cos = np.zeros((L + 1, L + 1))
    c_sin = np.zeros((L + 1, L + 1))
    c_cos[l, m] = coeff[l * l + l + m]
    c_sin[l, m] = coeff[l * l + l - m]
    phase = (-1.0) ** np.arange(L + 1)
    nodes, where = np.unique(theta, return_inverse=True)
    # g[k, 0, m] = sum_l c_{l,m} p_{l,m}, g[k, 1, m] = sum_l c_{l,-m} p_{l,m}
    g = np.empty((nodes.size, 2, L + 1))
    block = max(1, (1 << 25) // (8 * (L + 1) * (2 * L + 1)))
    for i in range(0, nodes.size, block):
        p = sph_legendre_p_all(L, L, nodes[i:i + block])[0][:, :L + 1]
        p = p * phase[None, :, None]
        g[i:i + block, 0] = np.einsum("lm,lmk->km", c_cos, p)
        g[i:i + block, 1] = np.einsum("lm,lmk->km", c_sin, p)
    scale = np.full(L + 1, np.sqrt(2.0))
    scale[0] = 1.0
    mphi = np.outer(phi, np.arange(L + 1))
    g = g[where] * scale
    return np.sum(g[:, 0] * np.cos(mphi) + g[:, 1] * np.sin(mphi), axis=1)
