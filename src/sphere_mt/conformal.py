"""Moebius dilations of the sphere, conformal bubble factors, antipodal
bubble pairs, the planar bubble profile, and the two-pole Green's function.

The conformal factor of the dilation with pole p and parameter t is

    w_t(x) = ln(2t) - ln((1 + c) + t^2 (1 - c)),    c = p . x,

equivalent to exp(w_t) = t (1 + |z|^2) / (1 + t^2 |z|^2) in stereographic
coordinates z centered at the pole.  This form is numerically stable at
both poles and is pinned down by three testable requirements: w_1 = 0,
area preservation of exp(2 w_t), and -Lap w_t = exp(2 w_t) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import ResolutionError
from .grid import ScalarField, SphericalGrid

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])

#: at least this many colatitude nodes across the concentration core
_CORE_NODES = 8


def max_bubble_t(grid: SphericalGrid) -> float:
    """Largest dilation the grid resolves (t <= n_theta / 8).

    Empirically this is also the frontier where the quadrature of
    exp(2 w_t) keeps total area 4*pi to 1e-8 relative.
    """
    return grid.n_theta / _CORE_NODES


def _check_t(grid: SphericalGrid, t: float):
    bound = max_bubble_t(grid)
    if t > bound:
        raise ResolutionError(
            f"dilation t={t} exceeds resolvable bound {bound:.3g} "
            f"for n_theta={grid.n_theta}")


@dataclass(frozen=True)
class MobiusMap:
    """Conformal self-map of S^2: dilation by t >= 1 toward a pole."""

    pole: np.ndarray
    t: float

    def __post_init__(self):
        p = np.asarray(self.pole, dtype=float)
        if p.shape != (3,):
            raise ValueError("pole must be a 3-vector")
        norm = float(np.linalg.norm(p))
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("pole must be a nonzero finite vector")
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"pole must be a unit vector (|p| = {norm:.6g})")
        p = p / norm
        p.setflags(write=False)
        object.__setattr__(self, "pole", p)
        object.__setattr__(self, "t", float(self.t))
        if not self.t >= 1.0:  # also rejects nan
            raise ValueError(f"dilation t={self.t} must be >= 1")

    @property
    def is_identity(self) -> bool:
        return self.t == 1.0


def mobius_factor(map: MobiusMap, grid: SphericalGrid) -> ScalarField:
    """Sample the conformal factor w_t of the map on the grid."""
    _check_t(grid, map.t)
    c = grid.xyz @ map.pole
    t = map.t
    w = np.log(2.0 * t) - np.log((1.0 + c) + t * t * (1.0 - c))
    return ScalarField(grid, w)


def mobius_point_map(map: MobiusMap, xyz: np.ndarray) -> np.ndarray:
    """Forward map: the point whose pole-centered stereographic coordinate
    is t times that of x.  Closed form, no trigonometry:

        phi_t(x) = ((1+c) - t^2(1-c))/D * p + (2t/D) (x - c p),
        D = (1+c) + t^2 (1-c),  c = p . x.
    """
    p = map.pole
    t = map.t
    c = xyz @ p
    D = (1.0 + c) + t * t * (1.0 - c)
    radial = ((1.0 + c) - t * t * (1.0 - c)) / D
    out = radial[..., None] * p + (2.0 * t / D)[..., None] * (xyz - c[..., None] * p)
    return out


def _padded_spline(u: ScalarField, order: int = 5, pad: int = 6):
    """Spline of the field on the (theta, phi) rectangle, extended
    periodically in phi and across both poles via u(-th, ph) = u(th, ph+pi).

    Requires even n_phi so the half-turn is an exact column roll.
    """
    grid = u.grid
    if grid.n_phi % 2 != 0:
        raise ResolutionError("interpolation across the poles requires even n_phi")
    pt = min(pad, grid.n_theta)
    pp = min(pad, grid.n_phi)
    vals = u.values

    rolled = np.roll(vals, grid.n_phi // 2, axis=1)
    top = rolled[:pt][::-1]
    bottom = rolled[-pt:][::-1]
    theta_ext = np.concatenate([-u.grid.theta[:pt][::-1], u.grid.theta,
                                2.0 * np.pi - u.grid.theta[-pt:][::-1]])
    stacked = np.vstack([top, vals, bottom])

    phi_ext = np.concatenate([grid.phi[-pp:] - 2.0 * np.pi, grid.phi,
                              grid.phi[:pp] + 2.0 * np.pi])
    ext = np.concatenate([stacked[:, -pp:], stacked, stacked[:, :pp]], axis=1)

    kx = min(order, len(theta_ext) - 1)
    ky = min(order, len(phi_ext) - 1)
    return RectBivariateSpline(theta_ext, phi_ext, ext, kx=kx, ky=ky)


def mobius_pullback(u: ScalarField, map: MobiusMap) -> ScalarField:
    """Conformal pullback T u = u o phi_map + w_map.

    Preserves integrate(exp(2u)).  Composition is evaluated by quintic
    spline interpolation on the periodic grid (cubic misses the 1e-8
    mass-preservation contract at the default grid).
    """
    grid = u.grid
    _check_t(grid, map.t)
    if map.is_identity:
        return u
    target = mobius_point_map(map, grid.xyz)
    z = np.clip(target[:, :, 2], -1.0, 1.0)
    theta_p = np.arccos(z)
    phi_p = np.mod(np.arctan2(target[:, :, 1], target[:, :, 0]), 2.0 * np.pi)
    spline = _padded_spline(u)
    composed = spline.ev(theta_p.ravel(), phi_p.ravel()).reshape(u.values.shape)
    w = mobius_factor(map, grid)
    return ScalarField(grid, composed + w.values)


@dataclass(frozen=True)
class BubblePairField:
    """Antipodally symmetric two-bubble field w_t(north) + w_t(south).

    Symmetry forces all three first moments of exp(2*field) to vanish,
    which is what places the family inside the zero-moment class.
    """

    t: float
    field: ScalarField


def bubble_pair(t: float, grid: SphericalGrid) -> BubblePairField:
    """Superpose conformal factors at the two poles."""
    _check_t(grid, t)
    if grid.n_phi % 2 != 0:
        raise ResolutionError("bubble_pair requires even n_phi for exact "
                              "antipodal node remapping")
    # Gauss-Legendre nodes are symmetric in cos(theta); guard regardless.
    c = grid.cos_theta
    if not np.allclose(c, -c[::-1], atol=1e-13):
        raise ResolutionError("grid colatitudes are not symmetric in cos(theta)")
    north = mobius_factor(MobiusMap(NORTH, t), grid)
    south = mobius_factor(MobiusMap(SOUTH, t), grid)
    return BubblePairField(t=float(t), field=ScalarField(grid, north.values + south.values))


def planar_bubble(x) -> np.ndarray | float:
    """Planar profile phi0(x) = 2 ln(1 / (1 + 2 pi |x|^2)) for x in R^2."""
    pt = np.asarray(x, dtype=float)
    if pt.shape[-1] != 2:
        raise ValueError("planar_bubble expects points in R^2")
    r2 = np.sum(pt * pt, axis=-1)
    out = -2.0 * np.log1p(2.0 * np.pi * r2)
    return float(out) if out.ndim == 0 else out


def bubble_mass(R: float) -> float:
    """Mass of exp(phi0) over the disk of radius R: pi R^2/(1 + 2 pi R^2).

    Increasing in R, bounded by the half-mass limit 1/2.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    return np.pi * R * R / (1.0 + 2.0 * np.pi * R * R)


def green_two_pole_value(theta) -> np.ndarray | float:
    """Closed form of the two-pole Green's function at colatitude theta."""
    th = np.asarray(theta, dtype=float)
    out = -4.0 * np.log(np.sin(th)) - 4.0 * (1.0 - np.log(2.0))
    return float(out) if out.ndim == 0 else out


def green_two_pole(grid: SphericalGrid) -> ScalarField:
    """Sample G(x) = -4 ln sin(theta) - 4(1 - ln 2) on the grid.

    G solves -Lap G + 4 = 8 pi (delta_north + delta_south) with zero
    mean; the delta sources sit at the poles, off every grid node, so
    the sampled field is finite and the interior identity -Lap G = -4
    can be checked by finite differences.
    """
    vals = green_two_pole_value(grid.theta)
    return ScalarField(grid, np.repeat(np.asarray(vals)[:, None], grid.n_phi, axis=1))
