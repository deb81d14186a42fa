"""Quadrature grids on the unit sphere and scalar fields sampled on them.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) with a
uniform longitude circle.  This combination integrates spherical
polynomials exactly up to degree min(2*n_theta - 1, n_phi - 1), which is
what the harmonic transform and the moment constraints rely on.  Nodes
never touch the poles, so integrands with logarithmic pole singularities
are finitely sampled (their quadrature accuracy is only algebraic; see
the Green's-function tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .errors import GridSizeError, NonFiniteFieldError, RangeOverflowError

FOUR_PI = 4.0 * np.pi

MIN_N_THETA = 2
MIN_N_PHI = 4


@dataclass(frozen=True)
class SphericalGrid:
    """Immutable quadrature grid on S^2.

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

    def __eq__(self, other):
        return (
            isinstance(other, SphericalGrid)
            and self.n_theta == other.n_theta
            and self.n_phi == other.n_phi
        )

    def __hash__(self):
        return hash((self.n_theta, self.n_phi))


def build_grid(n_theta: int, n_phi: int) -> SphericalGrid:
    """Build the Gauss-Legendre x uniform-longitude quadrature grid.

    Raises GridSizeError for n_theta < 2 or n_phi < 4.
    """
    if n_theta < MIN_N_THETA:
        raise GridSizeError(f"n_theta={n_theta} below minimum {MIN_N_THETA}")
    if n_phi < MIN_N_PHI:
        raise GridSizeError(f"n_phi={n_phi} below minimum {MIN_N_PHI}")

    x, w = roots_legendre(n_theta)
    order = np.argsort(-x)  # theta ascending == cos(theta) descending
    x = x[order]
    w = w[order]
    theta = np.arccos(x)
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

    values has shape (n_theta, n_phi) and must be finite everywhere; the
    constructor rejects NaN/Inf so no downstream operation ever sees one.
    """

    grid: SphericalGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_theta, self.grid.n_phi)
        if vals.shape != expected:
            if vals.size == self.grid.n_nodes:
                vals = vals.reshape(expected)
            else:
                raise NonFiniteFieldError(
                    f"field shape {vals.shape} does not match grid {expected}")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise NonFiniteFieldError(
                f"non-finite sample at node (theta_idx={bad[0]}, phi_idx={bad[1]})")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())


def constant_field(grid: SphericalGrid, value: float = 0.0) -> ScalarField:
    return ScalarField(grid, np.full((grid.n_theta, grid.n_phi), float(value)))


def coordinate_fields(grid: SphericalGrid):
    """The three Cartesian coordinate functions x1, x2, x3 as fields."""
    return tuple(ScalarField(grid, grid.xyz[:, :, i]) for i in range(3))


def integrate(f: ScalarField) -> float:
    """Quadrature integral of f over S^2 (weights sum to 4*pi)."""
    return integrate_values(f.grid, f.values)


def average(f: ScalarField) -> float:
    """Slashed average: integrate(f) / (4*pi)."""
    return integrate(f) / FOUR_PI


def integrate_values(grid: SphericalGrid, values: np.ndarray) -> float:
    """integrate() for a raw (n_theta, n_phi) array; no finiteness check."""
    return float(np.dot(grid.weight, values.sum(axis=1)))


def pointwise_map(f: ScalarField, map_fn) -> ScalarField:
    """Apply a scalar function node-wise; the grid is shared.

    Overflow to Inf/NaN raises RangeOverflowError naming the largest
    input sample and its node, which callers treat as a blow-up signal.
    """
    with np.errstate(all="ignore"):
        out = map_fn(f.values)
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        j = int(np.argmax(f.values))
        jt, jp = np.unravel_index(j, f.values.shape)
        raise RangeOverflowError(
            f"pointwise map overflowed; max input value {f.values.max():.6g} "
            f"at node (theta={f.grid.theta[jt]:.6f}, phi={f.grid.phi[jp]:.6f})",
            max_value=f.values.max(), node=(int(jt), int(jp)))
    return ScalarField(f.grid, out)
