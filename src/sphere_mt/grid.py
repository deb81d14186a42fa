"""Quadrature grids on the unit sphere and scalar fields sampled on them.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) with a
uniform longitude circle.  This combination integrates spherical
polynomials exactly up to degree min(2*n_theta - 1, n_phi - 1), which is
what the harmonic transform and the moment constraints rely on.  Nodes
never touch the poles, so integrands with logarithmic pole singularities
are finitely sampled (their quadrature accuracy is only algebraic; see
the Green's-function tests).

The Gauss-Legendre rule comes from one generator at every size,
``_gauss_legendre_theta``: Newton in theta on P_n(cos theta) from
Tricomi's initial guess (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).
Working in theta keeps the nodes and weights accurate near the poles,
where x = cos(theta) is close to 1, and costs O(n) per Newton step.
``build_grid`` caches the grids it builds (see build_grid), and the
rule is cached per n_theta, so a grid of a known n_theta and a new
n_phi reuses its nodes.

Grids compare and hash by identity, so a cache keyed by a grid never
serves it the entries of another grid of the same shape, and a grid
checks its mirror symmetry once, when it is built (see SphericalGrid).

A zonal field (constant in phi, as bubble pairs, axis-pole factors, the
Green field and u = 0 are) is stored as one column broadcast over phi,
so building it and the work on it cost one column (see ScalarField).
Reduce field values only through integrate_values, which integrates a
zonal field on its column: n_phi sum_j w_j c_j, one dot whose bits do
not depend on how the column is strided.  Beside it, _first_moments
gives a zonal field's x and y moments as the longitude rule's exact
0.0 and its z moment as the column integral of its product with z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from .errors import GridSizeError, NonFiniteFieldError, ResolutionError

FOUR_PI = 4.0 * np.pi

MIN_N_THETA = 2
MIN_N_PHI = 4

# Tricomi's guess needs at most four Newton steps; the cap only bounds
# steps that roundoff keeps above the tolerance
_NEWTON_MAX_STEPS = 10


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Immutable quadrature grid on S^2, equal only to itself.

    Construction, dataclasses.replace included, raises ResolutionError
    unless cos_theta == -cos_theta[::-1] bitwise (so an odd grid's
    equator is exactly 0): the transforms' parity fold and the zero
    moments of bubble pairs rely on it, and nothing checks it again.

    Attributes
    ----------
    n_theta, n_phi : int
        Number of colatitude and longitude nodes.
    theta : (n_theta,) array
        Colatitudes in (0, pi), ascending (Gauss-Legendre in cos theta).
    phi : (n_phi,) array
        Longitudes 2*pi*k/n_phi.
    weight : (n_theta,) array
        Per-node quadrature weight, shared by all longitudes at a given
        colatitude and pre-multiplied by 2*pi/n_phi, so the sum over all
        n_theta*n_phi nodes is 4*pi.
    xyz : (n_theta, n_phi, 3) array
        Cartesian unit vectors of the nodes.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    xyz: np.ndarray = field(repr=False)

    @property
    def cos_theta(self) -> np.ndarray:
        return self.xyz[:, 0, 2]

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    def __post_init__(self):
        x = self.cos_theta
        if not np.array_equal(x, -x[::-1]):
            raise ResolutionError(
                f"grid ({self.n_theta}, {self.n_phi}) nodes are not "
                "mirror-symmetric about the equator")


def _legendre_pair(theta: np.ndarray, n: int):
    """P_n(cos theta) and d_n = P_n - P_{n-1}, with u = cos(theta) - 1.

    Reinsch's difference form of the three-term recurrence,
    d_{k+1} = (k d_k + (2k+1) u p_k) / (k+1) and p_{k+1} = p_k + d_{k+1},
    works with u = -2 sin^2(theta/2) instead of x, so nothing cancels
    near the north pole, where x is close to 1.  Returns (p, d, u).
    """
    u = -2.0 * np.sin(0.5 * theta) ** 2
    p = np.ones_like(u)
    d = np.zeros_like(u)
    up = np.empty_like(u)
    for k in range(n):
        np.multiply(u, p, out=up)
        up *= (2 * k + 1) / (k + 1)
        d *= k / (k + 1)
        d += up
        p += d
    return p, d, u


@lru_cache(maxsize=16)
def _gauss_legendre_theta(n: int):
    """Gauss-Legendre rule on [-1, 1] as colatitudes: (theta, weight),
    read-only, built once per n for the last 16 n, so grids of one
    n_theta and any n_phi share one rule.

    theta is ascending in (0, pi).  Newton runs in theta on P_n(cos theta)
    over the northern half only, from Tricomi's guess
    x_k = (1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2)), and stops a node once
    its step is at most 1e-13 theta.  The weights come from one more
    recurrence pass, w = 2 sin^2(theta) / (n P_{n-1}(cos theta))^2.  The
    southern half is the mirror theta -> pi - theta with bitwise equal
    weights, and for odd n the middle node is pi/2 exactly.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    active = np.arange(theta.size)
    for _ in range(_NEWTON_MAX_STEPS):
        th = theta[active]
        p, d, u = _legendre_pair(th, n)
        # dP_n(cos theta)/dtheta = n (d_n + u p_n) / sin(theta)
        step = -p * np.sin(th) / (n * (d + u * p))
        theta[active] = th + step
        active = active[np.abs(step) > 1e-13 * th]
        if active.size == 0:
            break
    if n % 2:
        theta[-1] = 0.5 * np.pi
    p, d, _ = _legendre_pair(theta, n)
    w = 2.0 * np.sin(theta) ** 2 / (n * (p - d)) ** 2
    rule = (np.concatenate((theta, np.pi - theta[:n // 2][::-1])),
            np.concatenate((w, w[:n // 2][::-1])))
    for arr in rule:
        arr.setflags(write=False)
    return rule


@lru_cache(maxsize=16, typed=True)
def build_grid(n_theta: int, n_phi: int) -> SphericalGrid:
    """Build the Gauss-Legendre x uniform-longitude quadrature grid.

    The colatitude rule is ``_gauss_legendre_theta``; its cos(theta) is
    mirror-symmetric bitwise (the southern x is exactly minus the
    northern x), which the harmonic transform's parity fold relies on.
    Sizes go through operator.index, so they are stored as Python ints
    and a float size raises TypeError.  The last 16 shapes are cached,
    keyed by argument type too, so 8.0 never hits the entry of 8: a
    SphericalGrid is frozen and its arrays are read-only, so callers
    share one grid per shape.

    Raises GridSizeError for n_theta < 2 or n_phi < 4.
    """
    n_theta, n_phi = index(n_theta), index(n_phi)
    if n_theta < MIN_N_THETA:
        raise GridSizeError(f"n_theta={n_theta} below minimum {MIN_N_THETA}")
    if n_phi < MIN_N_PHI:
        raise GridSizeError(f"n_phi={n_phi} below minimum {MIN_N_PHI}")

    theta, w = _gauss_legendre_theta(n_theta)
    x = np.cos(theta)
    # cos(pi - t) and -cos(t) can differ in the last bit; SphericalGrid
    # requires the southern x to be exactly the northern -x.
    # cos(pi/2) is 6.1e-17, so an odd grid's equator row is set to 0.
    x[n_theta - n_theta // 2:] = -x[:n_theta // 2][::-1]
    if n_theta % 2:
        x[n_theta // 2] = 0.0
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    weight = w * (2.0 * np.pi / n_phi)

    sin_t = np.sin(theta)
    xyz = np.empty((n_theta, n_phi, 3))
    xyz[:, :, 0] = sin_t[:, None] * np.cos(phi)[None, :]
    xyz[:, :, 1] = sin_t[:, None] * np.sin(phi)[None, :]
    xyz[:, :, 2] = x[:, None]

    for arr in (theta, phi, weight, xyz):
        arr.setflags(write=False)
    return SphericalGrid(n_theta=n_theta, n_phi=n_phi, theta=theta,
                         phi=phi, weight=weight, xyz=xyz)


@dataclass(frozen=True)
class ScalarField:
    """Real values of a function sampled on a SphericalGrid.

    values must have shape (n_theta, n_phi) exactly (GridSizeError
    otherwise; nothing is reshaped) and be finite everywhere; the
    constructor rejects NaN/Inf so no downstream operation ever sees one.

    The constructor alone decides whether the field is zonal: the input
    is a stride-0 broadcast over phi, or every row equals its first
    column bitwise (column 1 is compared first, so a non-zonal field is
    turned away after one column).  A zonal field is stored as a
    read-only broadcast of its own copy of column 0, so values has
    stride 0 along phi and _is_zonal is a stride test; any other field
    is stored as a read-only contiguous copy.  Elementwise work on a
    broadcast allocates the full grid, so zonal kernels take the column
    values[:, :1], and reduce only through integrate_values; max and min
    read that column, which holds every value of a zonal field.
    """

    grid: SphericalGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_theta, self.grid.n_phi)
        if vals.shape != expected:
            raise GridSizeError(
                f"field shape {vals.shape} does not match grid {expected}")
        zonal = vals.strides[1] == 0 or bool(
            (vals[:, 1] == vals[:, 0]).all() and (vals == vals[:, :1]).all())
        own = (vals[:, :1] if zonal else vals).copy()
        if not np.all(np.isfinite(own)):
            bad = np.argwhere(~np.isfinite(own))[0]
            raise NonFiniteFieldError(
                f"non-finite sample at node (theta_idx={bad[0]}, phi_idx={bad[1]})")
        own.setflags(write=False)
        object.__setattr__(self, "values",
                           np.broadcast_to(own, expected) if zonal else own)

    def max(self) -> float:
        return float(_column(self.values).max())

    def min(self) -> float:
        return float(_column(self.values).min())


def _is_zonal(values: np.ndarray) -> bool:
    """A zonal ScalarField's values: stride 0 along phi, which is how the
    constructor stores a field constant in phi."""
    return values.strides[1] == 0


def _column(values: np.ndarray) -> np.ndarray:
    """The (n_theta, 1) column of zonal values, else values as they are."""
    return values[:, :1] if _is_zonal(values) else values


def constant_field(grid: SphericalGrid, value: float = 0.0) -> ScalarField:
    return ScalarField(grid, np.full((grid.n_theta, grid.n_phi), float(value)))


def integrate(f: ScalarField) -> float:
    """Quadrature integral of f over S^2 (weights sum to 4*pi)."""
    return integrate_values(f.grid, f.values)


def average(f: ScalarField) -> float:
    """Slashed average: integrate(f) / (4*pi)."""
    return integrate(f) / FOUR_PI


def integrate_values(grid: SphericalGrid, values: np.ndarray) -> float:
    """integrate() for a raw (n_theta, n_phi) array; no finiteness check.

    A zonal (stride-0) array is n_phi sum_j w_j c_j over its column c: one
    dot, with c made contiguous first, since BLAS ddot gives a strided
    vector other bits.  Any other array sums each row along phi first.
    """
    if _is_zonal(values):
        col = np.ascontiguousarray(values[:, 0])
        return float(grid.n_phi * np.dot(grid.weight, col))
    return float(np.dot(grid.weight, values.sum(axis=1)))


def _first_moments(grid: SphericalGrid, f: np.ndarray) -> np.ndarray:
    """[int f x, int f y, int f z] for (n_theta, n_phi) values f.

    A zonal f (stride 0 along phi) has x and y moments exactly 0.0: the
    uniform longitude rule sums cos(phi_k) and sin(phi_k) to 0 for every
    n_phi >= 4, and the full products would only give roundoff.  Its z
    moment (z too is constant in phi) integrates one column's product,
    broadcast, on that column.  Any other f takes the three full
    products.
    """
    if _is_zonal(f):
        fz = np.broadcast_to(f[:, :1] * grid.xyz[:, :1, 2], f.shape)
        return np.array([0.0, 0.0, integrate_values(grid, fz)])
    return np.array([integrate_values(grid, f * grid.xyz[:, :, i])
                     for i in range(3)])
