"""Moebius dilations of the sphere, conformal bubble factors, antipodal
bubble pairs, the planar bubble profile, and the two-pole Green's function.

The conformal factor of the dilation with pole p and parameter t is

    w_t(x) = ln(2t) - ln((1 + c) + t^2 (1 - c)),    c = p . x,

equivalent to exp(w_t) = t (1 + |z|^2) / (1 + t^2 |z|^2) in stereographic
coordinates z centered at the pole.  This form is numerically stable at
both poles and is pinned down by three testable requirements: w_1 = 0,
area preservation of exp(2 w_t), and -Lap w_t = exp(2 w_t) - 1.

The pullback T u = u o phi + w_t composes through one quintic spline fit
of u: its tensor spline for an off-axis pole, its restriction to the
grid's longitudes for an axis pole, and one column of that for an axis
pole and a zonal u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from .grid import ScalarField, SphericalGrid, _column

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])

#: at least this many colatitude nodes across the concentration core
_CORE_NODES = 8

#: pullback splines: the degree, and the rows copied across each pole
#: (and columns across each end of the period)
_SPLINE_ORDER = 5
_POLE_PAD = 6


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

    @property
    def on_axis(self) -> bool:
        """Pole at +-e_z: every point stays on its meridian."""
        return bool(self.pole[0] == 0.0 and self.pole[1] == 0.0)


def mobius_factor(map: MobiusMap, grid: SphericalGrid) -> ScalarField:
    """Sample the conformal factor w_t of the map on the grid.

    For an axis pole c = p . x depends on theta alone, so it is taken on
    one meridian and broadcast over phi (bitwise the full-grid values).
    """
    _check_t(grid, map.t)
    c = (grid.xyz[:, :1] if map.on_axis else grid.xyz) @ map.pole
    t = map.t
    w = np.log(2.0 * t) - np.log((1.0 + c) + t * t * (1.0 - c))
    return ScalarField(grid, np.broadcast_to(w, (grid.n_theta, grid.n_phi)))


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


def _meridian_spline(grid: SphericalGrid, vals: np.ndarray):
    """Not-a-knot spline in theta alone of every column of vals, the
    columns first extended by _POLE_PAD rows across both poles via
    u(-th, ph) = u(th, ph+pi).

    vals holds the field at all the grid's longitudes, or the one column
    of a zonal field, whose half-turn is itself (the roll of one column
    is that column).  Requires even n_phi so the half-turn is an exact
    column roll.
    """
    # scipy.interpolate is imported here, not at module level: it is most
    # of the package's import time, and only the pullback uses it
    from scipy.interpolate import make_interp_spline

    if grid.n_phi % 2 != 0:
        raise ResolutionError("interpolation across the poles requires even n_phi")
    pt = min(_POLE_PAD, grid.n_theta)
    rolled = np.roll(vals, grid.n_phi // 2, axis=1)
    theta_ext = np.concatenate([-grid.theta[:pt][::-1], grid.theta,
                                2.0 * np.pi - grid.theta[-pt:][::-1]])
    stacked = np.vstack([rolled[:pt][::-1], vals, rolled[-pt:][::-1]])
    return make_interp_spline(theta_ext, stacked,
                              k=min(_SPLINE_ORDER, len(theta_ext) - 1))


def _tensor_spline(u: ScalarField):
    """Tensor spline on the (theta, phi) rectangle: the meridian fit's
    coefficients interpolated in phi over the period extended by
    _POLE_PAD columns at each end (de Boor, A Practical Guide to
    Splines, ch. 17: a tensor interpolant is 1-D fits done in turn)."""
    from scipy.interpolate import NdBSpline, make_interp_spline

    grid = u.grid
    meridian = _meridian_spline(grid, u.values)
    pp = min(_POLE_PAD, grid.n_phi)
    phi_ext = np.concatenate([grid.phi[-pp:] - 2.0 * np.pi, grid.phi,
                              grid.phi[:pp] + 2.0 * np.pi])
    c = meridian.c
    along_phi = make_interp_spline(
        phi_ext, np.concatenate([c[:, -pp:], c, c[:, :pp]], axis=1),
        k=min(_SPLINE_ORDER, len(phi_ext) - 1), axis=1)
    return NdBSpline((meridian.t, along_phi.t), np.moveaxis(along_phi.c, 0, 1),
                     (meridian.k, along_phi.k))


def mobius_pullback(u: ScalarField, map: MobiusMap) -> ScalarField:
    """Conformal pullback T u = u o phi_map + w_map.

    Preserves integrate(exp(2u)).  Composition is evaluated by quintic
    spline interpolation on the periodic grid (cubic misses the 1e-8
    mass-preservation contract at the default grid).

    There is one fit: _meridian_spline, a not-a-knot quintic in theta of
    every pole-extended column.  Any pole off the grid axis extends it in
    phi to the tensor spline (_tensor_spline) and evaluates that at each
    node's target.  A pole on the axis (+-e_z) moves every node along its
    own meridian: phi' = phi, and theta' depends on theta alone.  At the
    grid's own longitudes the phi factor reproduces its data, so the
    tensor spline there is the meridian spline, and an axis pole
    evaluates that at theta' directly.  If u is also zonal (stored as a
    broadcast column, as bubble pairs, axis-pole factors and u = 0
    are; see ScalarField), all its columns and their half-turns are one
    column, so the axis pole fits and evaluates that column alone and
    broadcasts it over phi: bitwise the fit of every column.  At 256x512
    (one BLAS thread, 2 shared vCPUs) an axis-pole pullback takes about
    4 ms (about 1 ms for a zonal u) and an off-axis one 110 ms, 90 ms of
    it the evaluation at the targets.
    """
    grid = u.grid
    _check_t(grid, map.t)
    if map.is_identity:
        return u
    if map.on_axis:
        z = np.clip(mobius_point_map(map, grid.xyz[:, 0])[:, 2], -1.0, 1.0)
        composed = _meridian_spline(grid, _column(u.values))(np.arccos(z))
    else:
        target = mobius_point_map(map, grid.xyz)
        z = np.clip(target[:, :, 2], -1.0, 1.0)
        theta_p = np.arccos(z)
        phi_p = np.mod(np.arctan2(target[:, :, 1], target[:, :, 0]), 2.0 * np.pi)
        composed = _tensor_spline(u)(np.stack((theta_p, phi_p), axis=-1))
    # taken after the fit, so it is not held through the fit's peak; an
    # axis factor is constant in phi, so it adds on one column
    w = mobius_factor(map, grid).values
    tu = composed + (w[:, :1] if map.on_axis else w)
    return ScalarField(grid, np.broadcast_to(tu, w.shape))


@dataclass(frozen=True)
class BubblePairField:
    """Antipodally symmetric two-bubble field w_t(north) + w_t(south).

    Symmetry forces all three first moments of exp(2*field) to vanish,
    which is what places the family inside the zero-moment class.
    """

    t: float
    field: ScalarField


def bubble_pair(t: float, grid: SphericalGrid) -> BubblePairField:
    """Superpose conformal factors at the two poles.

    Both axis factors are zonal, so their columns are added and the sum
    broadcast over phi: the field costs one column.  Being zonal, its x
    and y moments are exactly 0 on the uniform longitude rule; its z
    moment cancels to roundoff on antipodal nodes: n_phi is even, and
    every SphericalGrid is mirror-symmetric in cos(theta).
    """
    _check_t(grid, t)
    if grid.n_phi % 2 != 0:
        raise ResolutionError("bubble_pair requires even n_phi for exact "
                              "antipodal node remapping")
    north = mobius_factor(MobiusMap(NORTH, t), grid).values
    south = mobius_factor(MobiusMap(SOUTH, t), grid).values
    pair = np.broadcast_to(north[:, :1] + south[:, :1], north.shape)
    return BubblePairField(t=float(t), field=ScalarField(grid, pair))


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
    return ScalarField(grid, np.broadcast_to(vals[:, None], (grid.n_theta, grid.n_phi)))
