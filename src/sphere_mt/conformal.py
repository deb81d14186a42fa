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
pole and a zonal u.  The splines are numpy alone: a banded LU without
pivoting of each grid's collocation matrices, cached per grid, and de
Boor's recurrence for the B-splines at the targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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

#: target points per block of the tensor evaluator: its (36, block)
#: coefficient gather stays within the L2 cache
_EVAL_BLOCK = 4096


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
    c, radial, scale = _point_map_factors(map, xyz)
    return radial[..., None] * p + scale[..., None] * (xyz - c[..., None] * p)


def _point_map_factors(map: MobiusMap, xyz: np.ndarray):
    """c = p . x and the factors of p and of x - c p in mobius_point_map."""
    t = map.t
    c = xyz @ map.pole
    D = (1.0 + c) + t * t * (1.0 - c)
    return c, ((1.0 + c) - t * t * (1.0 - c)) / D, 2.0 * t / D


class _Interpolant:
    """Not-a-knot quintic interpolation at m >= 6 fixed increasing sites.

    The knots are make_interp_spline's: the sites less three at each
    end, the end sites repeated six times.  The collocation matrix
    B_j(x_i) is banded and totally positive, so its LU needs no
    pivoting (de Boor & Pinkus, Numer. Math. 1977); each row of L and U
    keeps only the columns between its first and last nonzero, O(m) in
    all.  A fit runs one substitution whose arithmetic on a column does
    not depend on how many columns are solved together: rows of numpy
    arrays for many columns, Python floats for one, so a zonal field's
    one-column fit is bitwise the fit of all its identical columns.
    """

    def __init__(self, x: np.ndarray):
        k = _SPLINE_ORDER
        half = (k + 1) // 2
        self.knots = np.concatenate([np.full(k + 1, x[0]), x[half:-half],
                                     np.full(k + 1, x[-1])])
        first, b = self.basis(x)
        self.lower = []     # (first column, multipliers) of each row of L
        upper = []          # each row of U, from its diagonal on
        for i, (s, row) in enumerate(zip(first.tolist(), b.T.tolist())):
            while row[-1] == 0.0:
                row.pop()
            while row[0] == 0.0:
                del row[0]
                s += 1
            mults = []
            for p in range(s, i):
                up = upper[p]
                mult = row[p - s] / up[0]
                mults.append(mult)
                row.extend([0.0] * (p - s + len(up) - len(row)))
                for q in range(1, len(up)):
                    row[p - s + q] -= mult * up[q]
            self.lower.append((s, mults))
            upper.append(row[i - s:])
        self.upper = [(u[0], u[1:]) for u in upper]

    def basis(self, x: np.ndarray):
        """Knot interval and the six nonzero B-splines at each of x.

        Returns (first, b): b[a] = B_{first + a}(x), shape (6, len(x)),
        by de Boor's recurrence in the order of scipy's _deBoor_D, one
        degree at a time for every point.  x outside the knots
        extrapolates the end pieces.
        """
        t, k = self.knots, _SPLINE_ORDER
        ell = np.clip(np.searchsorted(t, x, side="right") - 1,
                      k, len(t) - k - 2)
        # near[k - 1 + d] = t[ell + d] for d = 1 - k .. k
        near = t[ell + np.arange(1 - k, k + 1)[:, None]]
        right, left = near[k:] - x, x - near[:k]
        h = np.ones((1, x.size))
        for j in range(1, k + 1):
            w = h / (near[k:k + j] - near[k - j:k])
            h = np.empty((j + 1, x.size))
            np.multiply(w, right[:j], out=h[:j])
            h[j] = 0.0
            h[1:] += w * left[k - j:]
        return ell - k, h

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Spline coefficients interpolating each column of y (m, ncols)."""
        one = y.shape[1] == 1
        out = None if one else np.array(y, dtype=float, order="C")
        rows = y[:, 0].tolist() if one else list(out)
        for i, (s, mults) in enumerate(self.lower):
            r = rows[i]
            for p, mult in enumerate(mults, s):
                r -= mult * rows[p]
            rows[i] = r
        for i in range(len(rows) - 1, -1, -1):
            diag, ups = self.upper[i]
            r = rows[i]
            for q, u in enumerate(ups, i + 1):
                r -= u * rows[q]
            r /= diag
            rows[i] = r
        return np.array(rows)[:, None] if one else out


@lru_cache(maxsize=16)
def _theta_interpolant(grid: SphericalGrid) -> _Interpolant:
    """The meridian fit's sites: theta extended _POLE_PAD rows across
    both poles."""
    pt = min(_POLE_PAD, grid.n_theta)
    return _Interpolant(np.concatenate([-grid.theta[:pt][::-1], grid.theta,
                                        2.0 * np.pi - grid.theta[-pt:][::-1]]))


@lru_cache(maxsize=16)
def _phi_interpolant(grid: SphericalGrid) -> _Interpolant:
    """The tensor fit's sites along phi: the period extended by
    _POLE_PAD columns at each end."""
    pp = min(_POLE_PAD, grid.n_phi)
    return _Interpolant(np.concatenate([grid.phi[-pp:] - 2.0 * np.pi, grid.phi,
                                        grid.phi[:pp] + 2.0 * np.pi]))


class _Spline(NamedTuple):
    """A 1-D spline: its sites' interpolant and the coefficients of its
    columns; called at points x, it returns their values (len(x), ncols)."""

    fit: _Interpolant
    c: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        first, b = self.fit.basis(x)
        out = b[0, :, None] * self.c[first]
        for a in range(1, _SPLINE_ORDER + 1):
            out += b[a, :, None] * self.c[first + a]
        return out


def _meridian_spline(grid: SphericalGrid, vals: np.ndarray) -> _Spline:
    """Not-a-knot spline in theta alone of every column of vals, the
    columns first extended by _POLE_PAD rows across both poles via
    u(-th, ph) = u(th, ph+pi).

    vals holds the field at all the grid's longitudes, or the one column
    of a zonal field, whose half-turn is itself (the roll of one column
    is that column).  Requires even n_phi so the half-turn is an exact
    column roll.
    """
    if grid.n_phi % 2 != 0:
        raise ResolutionError("interpolation across the poles requires even n_phi")
    pt = min(_POLE_PAD, grid.n_theta)
    rolled = np.roll(vals, grid.n_phi // 2, axis=1)
    stacked = np.vstack([rolled[:pt][::-1], vals, rolled[-pt:][::-1]])
    fit = _theta_interpolant(grid)
    return _Spline(fit, fit.solve(stacked))


def _tensor_spline(u: ScalarField) -> np.ndarray:
    """Tensor spline of u on the (theta, phi) rectangle: the meridian
    fit's coefficients interpolated in phi over the period extended by
    _POLE_PAD columns at each end (de Boor, A Practical Guide to Splines,
    ch. 17: a tensor interpolant is 1-D fits done in turn).  Returns the
    coefficients c[j, i] of B_i(theta) B_j(phi), phi-major."""
    grid = u.grid
    c = _meridian_spline(grid, u.values).c
    pp = min(_POLE_PAD, grid.n_phi)
    return _phi_interpolant(grid).solve(
        np.concatenate([c[:, -pp:], c, c[:, :pp]], axis=1).T)


def _tensor_values(grid: SphericalGrid, coeff: np.ndarray, theta: np.ndarray,
                   phi: np.ndarray) -> np.ndarray:
    """The tensor spline with coefficients coeff (_tensor_spline's
    layout) at the points (theta, phi): each point's 6 x 6 coefficients
    weighted by its B-splines in theta and in phi, summed over theta
    first, _EVAL_BLOCK points at a time."""
    along_theta, along_phi = _theta_interpolant(grid), _phi_interpolant(grid)
    n_c = coeff.shape[1]
    width = _SPLINE_ORDER + 1
    offsets = (n_c * np.arange(width)[:, None] + np.arange(width)).reshape(-1, 1)
    flat = coeff.ravel()
    out = np.empty(np.shape(theta))
    theta, phi, values = np.ravel(theta), np.ravel(phi), out.reshape(-1)
    for s in range(0, theta.size, _EVAL_BLOCK):
        block = slice(s, s + _EVAL_BLOCK)
        i_t, b_t = along_theta.basis(theta[block])
        i_p, b_p = along_phi.basis(phi[block])
        cells = flat[offsets + (n_c * i_p + i_t)].reshape(width, width, -1)
        values[block] = ((cells * b_t).sum(axis=1) * b_p).sum(axis=0)
    return out


def _target_angles(map: MobiusMap, grid: SphericalGrid):
    """theta' and phi' of every node's image under the map: the
    components of mobius_point_map taken one at a time, in its operation
    order (bitwise its values), with no (n_theta, n_phi, 3) temporaries."""
    p, xyz = map.pole, grid.xyz
    c, radial, scale = _point_map_factors(map, xyz)

    def component(k):
        return radial * p[k] + scale * (xyz[:, :, k] - c * p[k])

    theta = np.arccos(np.clip(component(2), -1.0, 1.0))
    phi = np.mod(np.arctan2(component(1), component(0)), 2.0 * np.pi)
    return theta, phi


def mobius_pullback(u: ScalarField, map: MobiusMap) -> ScalarField:
    """Conformal pullback T u = u o phi_map + w_map.

    Preserves integrate(exp(2u)).  Composition is evaluated by quintic
    spline interpolation on the periodic grid (cubic misses the 1e-8
    mass-preservation contract at the default grid).

    There is one fit: _meridian_spline, a not-a-knot quintic in theta of
    every pole-extended column.  Any pole off the grid axis extends it in
    phi to the tensor spline (_tensor_spline) and evaluates that at each
    node's target (_tensor_values).  A pole on the axis (+-e_z) moves
    every node along its own meridian: phi' = phi, and theta' depends on
    theta alone.  At the grid's own longitudes the phi factor reproduces
    its data, so the tensor spline there is the meridian spline, and an
    axis pole evaluates that at theta' directly.  If u is also zonal
    (stored as a broadcast column, as bubble pairs, axis-pole factors and
    u = 0 are; see ScalarField), all its columns and their half-turns are
    one column, so the axis pole fits and evaluates that column alone and
    broadcasts it over phi: bitwise the fit of every column.
    """
    grid = u.grid
    _check_t(grid, map.t)
    if map.is_identity:
        return u
    if map.on_axis:
        z = np.clip(mobius_point_map(map, grid.xyz[:, 0])[:, 2], -1.0, 1.0)
        composed = _meridian_spline(grid, _column(u.values))(np.arccos(z))
    else:
        composed = _tensor_values(grid, _tensor_spline(u), *_target_angles(map, grid))
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
