"""Real spherical-harmonic analysis and synthesis.

Basis convention: orthonormal real harmonics

    Y_{l,0}  = p_{l,0}(cos theta)
    Y_{l,m}  = sqrt(2) * p_{l,m}(cos theta) * cos(m phi)   (m > 0)
    Y_{l,-m} = sqrt(2) * p_{l,m}(cos theta) * sin(m phi)   (m > 0)

where p_{l,m} are the fully normalized associated Legendre functions
(no Condon-Shortley phase), so that integrate(Y_a * Y_b) = delta_ab.
One loop runs the stable normalized three-term recurrence for p_{l,m}
(accurate well beyond degree 128) for all orders at once, one offset
l - m at a time, at the grid's own nodes: x = grid.cos_theta and
s = sin(grid.theta), which near the poles keeps digits that
sqrt(1 - x^2) loses.

Longitude sums are real FFTs both ways: analysis takes rfft of the node
values, and synthesis fills the half-spectrum F[:, m] = (g_c - i g_s)/sqrt(2)
from the per-m Legendre sums and takes irfft(F) * n_phi.  The Legendre
sums follow the layout of Schaeffer, "Efficient spherical harmonic
transforms aimed at pseudospectral numerical simulations" (G^3 2013):

* Equatorial symmetry.  p_{l,m}(-x) = (-1)^(l+m) p_{l,m}(x), so the
  tables hold the ceil(n_theta/2) northern nodes only.  Analysis folds
  each weighted longitude sum into an even part (north + mirrored
  south) and an odd part (north - mirrored south), an odd grid's
  equator row entering both once; degree l of order m reads the part
  of the parity of l + m.  Synthesis unfolds: north = even + odd,
  south = even - odd.  _fold and _unfold write these once for the
  general and the zonal transforms.  This needs the southern
  cos(theta) to be exactly the mirrored northern one, which
  SphericalGrid checks when a grid is built.  The tables are cached
  per (grid, L), and a grid equals only itself, so every grid gets the
  tables of its own nodes.
* Paired-m slabs.  Order m has L + 1 - m rows and order L - m has
  m + 1, so the two share one slab of L + 2 rows: a dense array of
  shape (L//2 + 1, ceil(n_theta/2), L + 2), padded only in the middle
  slab of an even L.  Each slab carries 8 lanes, (cos, sin) x (even,
  odd) x its two m, and each transform is one batched matrix product
  over all slabs, (8 x nodes)(nodes x rows) or (8 x rows)(rows x nodes),
  plus one gather (analysis) or scatter (synthesis) between the lanes
  and the flat l*l + l + m layout.  The node axis sits in the middle
  because OpenBLAS runs both products faster in that orientation than
  as a (rows x nodes)(nodes x 8) one.
* Zonal fields.  The bubble pairs, axis-pole Moebius factors and their
  pullbacks, the two-pole Green function and u = 0 are axisymmetric,
  so their rows are constant in phi, and ScalarField stores them as
  one column broadcast over phi (stride 0, the O(1) test _is_zonal).
  analyze takes such a field through m = 0 alone: one
  parity-folded Gauss-Legendre sum against a cached table of p_{l,0}
  at the northern nodes, with every m != 0 coefficient exactly 0.
  synthesize takes a spectrum whose m != 0 coefficients are all exactly
  0 the same way, to one column broadcast over phi.  Two column kernels
  do this work, _zonal_analysis (column to its L + 1 m = 0
  coefficients) and _zonal_synthesis (back, broadcast).  The
  field-level _field_dirichlet (the Dirichlet term at degree L) and
  _field_laplacian (the Laplacian's values at max_degree) are the one
  place a field's spectral terms choose the zonal path: a zonal field
  takes them on the column kernels without forming the (L+1)^2
  spectrum, with the l(l+1) weights, their sign rule and their
  square-then-weight sum shared with dirichlet_energy and laplacian;
  any other field goes through analyze.  One fill builds
  both tables: the slabs are its run over all L + 1 orders, and the
  m = 0 table is slab 0's columns 0..L of its run over order 0 alone,
  so it is bitwise the slabs' m = 0 rows and zonal work never builds
  the paired-m slabs.  Both skip the FFT, the lanes and the slab product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResolutionError
from .grid import ScalarField, SphericalGrid, _is_zonal

SQRT2 = np.sqrt(2.0)


def max_degree(grid: SphericalGrid) -> int:
    """Largest degree L the grid analyzes without aliasing.

    Products Y_lm * Y_l'm' up to degree 2L must be integrated exactly:
    Gauss-Legendre handles cos-theta degree 2*n_theta - 1 and the
    uniform longitude rule frequency n_phi - 1, with one extra degree
    of margin.
    """
    return (min(2 * grid.n_theta - 1, grid.n_phi - 1) - 2) // 2


def degrees(L: int) -> np.ndarray:
    """Degree l of each flat coefficient index (length (L+1)^2)."""
    l = np.arange(L + 1)
    return np.repeat(l, 2 * l + 1)


@lru_cache(maxsize=16)
def _zonal_weights(L: int) -> np.ndarray:
    """l(l+1) for l = 0..L, read-only, one per L: the weights at m = 0."""
    l = np.arange(L + 1)
    ll1 = l * (l + 1.0)
    ll1.setflags(write=False)
    return ll1


@lru_cache(maxsize=16)
def _degree_weights(L: int) -> np.ndarray:
    """l(l+1) of each flat coefficient index, read-only, one per L."""
    ll1 = _zonal_weights(L)[degrees(L)]
    ll1.setflags(write=False)
    return ll1


def _times_laplacian(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c times 0.0 - w for weights w = l(l+1).  The factor is +0.0 at
    l = 0: plain negation of l(l+1) gives -0.0 there, which flips the
    sign of the zero output coefficient at l = 0."""
    return (0.0 - w) * c


def _weighted_square_sum(w: np.ndarray, c: np.ndarray) -> float:
    """sum w c^2, squared and weighted in one buffer."""
    sq = c * c
    sq *= w
    return float(np.sum(sq))


def flat_index(l: int, m: int) -> int:
    """Position of coefficient (l, m) in the flat layout l*l + l + m."""
    return l * l + l + m


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Real spherical-harmonic coefficients up to degree L.

    coeff is flat with layout l*l + l + m, length (L+1)^2, and read-only.
    The given array is copied unless it is already read-only and owns its
    data, as the fresh results of analyze and laplacian are (_frozen), so
    those are held without a second allocation.
    """

    L: int
    coeff: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=float)
        n = (self.L + 1) ** 2
        if c.shape != (n,):
            raise ValueError(f"expected {n} coefficients for L={self.L}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite spectral coefficient")
        if c.flags.writeable or not c.flags.owndata:
            c = c.copy()
            c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    def __getitem__(self, lm) -> float:
        l, m = lm
        return float(self.coeff[flat_index(l, m)])


def _frozen(coeff: np.ndarray) -> np.ndarray:
    """A coefficient array just built, made read-only in place, so that
    HarmonicSpectrum holds it without a copy."""
    coeff.setflags(write=False)
    return coeff


def _legendre_offsets(grid: SphericalGrid, L: int, orders: int):
    """The one normalized recurrence: for each offset d = l - m = 0..L,
    yield p_{m+d,m} at the northern GL nodes, one row per order
    m < min(orders, L + 1 - d), every order at once.

    p_mm comes from the sequential product in m and each later offset
    from the three-term step, which at d = 1 has b = 0 and gives
    p_{m+1,m} = sqrt(2m+3) x p_mm.  orders = L + 1 fills the slabs,
    orders = 1 the m = 0 table; each row is computed elementwise, so it
    does not depend on orders bitwise.
    """
    h = (grid.n_theta + 1) // 2
    x, s = grid.cos_theta[:h], np.sin(grid.theta[:h])
    pmm = np.empty((orders, h))
    pmm[0] = 1.0 / np.sqrt(4.0 * np.pi)
    for m in range(orders - 1):
        pmm[m + 1] = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * pmm[m]
    yield pmm
    p_prev = p_cur = pmm
    for d in range(1, L + 1):
        n = min(orders, L + 1 - d)
        m = np.arange(n)
        l = m + d
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
                    / ((2.0 * l - 3.0) * (l * l - m * m)))
        p_prev, p_cur = p_cur, a[:, None] * x * p_cur[:n] - b[:, None] * p_prev[:n]
        yield p_cur


def _legendre_fill(grid: SphericalGrid, L: int, orders: int) -> np.ndarray:
    """The one fill of the paired-m slabs: p_{l,m}(x_j) at the northern
    GL nodes for the first `orders` orders, read-only.

    Shape (min(orders, L//2 + 1), ceil(n_theta/2), L + 2), p_{l,m} in slab
    slab_m[m], column col_m[m] + l - m of _slab_index; each offset
    d = l - m is written in place for every order at once.  The callers
    have checked L against the grid.
    """
    *_, slab_m, col_m = _slab_index(L)
    slabs = np.zeros((min(orders, L // 2 + 1), (grid.n_theta + 1) // 2, L + 2))
    for d, p in enumerate(_legendre_offsets(grid, L, orders)):
        slabs[slab_m[:len(p)], :, col_m[:len(p)] + d] = p
    slabs.setflags(write=False)
    return slabs


@lru_cache(maxsize=16)
def _legendre_tables(grid: SphericalGrid, L: int) -> np.ndarray:
    """The paired-m slabs of all L + 1 orders: _legendre_fill's whole table."""
    return _legendre_fill(grid, L, L + 1)


@lru_cache(maxsize=16)
def _zonal_table(grid: SphericalGrid, L: int) -> np.ndarray:
    """p_{l,0}(x_j) at the northern GL nodes, shape (ceil(n_theta/2), L + 1):
    slab 0's columns 0..L of the fill for order 0 alone, so bitwise those
    of _legendre_tables without building its other slabs.

    The slice keeps slab 0's L + 2 row stride: a contiguous (h, L + 1)
    array sends the parity products of analyze and synthesize down
    another matmul path, which moves bits.
    """
    return _legendre_fill(grid, L, 1)[0, :, : L + 1]


@lru_cache(maxsize=16)
def _slab_index(L: int):
    """Where each order m sits in the slabs, and the lanes' index arrays.

    Order m <= L/2 fills columns 0..L-m of slab m, order m > L/2 columns
    m+1..L+1 of slab L-m (the middle slab of an even L is zero-padded).
    Slab k has 8 lanes, two groups of (cos even, cos odd, sin even, sin
    odd): group 2k for m = k and 2k+1 for m = L-k, where even/odd is the
    parity of l + m.  Returns (flat, scale, pair_m, group_m, zonal,
    slab_m, col_m): flat[j] is the position of flat coefficient j in the
    (slabs, 8, L + 2) product, scale[j] its factor (1, sqrt 2 or
    -sqrt 2), pair_m the m of each group, group_m the group of each m,
    zonal the flat positions l*l + l of the m = 0 coefficients, and
    slab_m and col_m the slab and the column of p_{m,m} of each m.
    """
    k = np.arange(L + 1)
    upper = 2 * k > L
    slab_m = np.where(upper, L - k, k)
    col_m = np.where(upper, k + 1, 0)
    group_m = 2 * slab_m + upper
    l = degrees(L)
    m = np.arange((L + 1) ** 2) - l * l - l
    am = np.abs(m)
    flat = ((4 * group_m[am] + 2 * (m < 0) + (l + am) % 2) * (L + 2)
            + col_m[am] + l - am)
    scale = np.where(m == 0, 1.0, np.where(m > 0, SQRT2, -SQRT2))
    pair_m = np.stack((k, L - k), axis=1)[: L // 2 + 1].ravel()
    zonal = k * k + k
    out = (flat, scale, pair_m, group_m, zonal, slab_m, col_m)
    for a in out:
        a.flags.writeable = False
    return out


def _check_degree(grid: SphericalGrid, L: int):
    limit = max_degree(grid)
    if L > limit:
        raise ResolutionError(
            f"degree L={L} exceeds anti-aliasing bound {limit} "
            f"for grid ({grid.n_theta}, {grid.n_phi})")
    if L < 0:
        raise ValueError("degree must be non-negative")


def _fold(grid: SphericalGrid, a: np.ndarray) -> np.ndarray:
    """The (even, odd) parts of values a over the theta nodes (first
    axis), stacked on a new first axis: north + mirrored south and
    north - mirrored south over the ceil(n_theta/2) northern rows, an
    odd grid's equator row, its own mirror, entering both once."""
    nh, h = grid.n_theta // 2, (grid.n_theta + 1) // 2
    eo = np.array((a[:h], a[:h]))
    south = a[::-1][:nh]
    eo[0, :nh] += south
    eo[1, :nh] -= south
    return eo


def _unfold(grid: SphericalGrid, even: np.ndarray, odd: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """_fold undone into the n_theta rows of out (first axis):
    north = even + odd, south = even - odd, mirrored."""
    nh, h = grid.n_theta // 2, (grid.n_theta + 1) // 2
    out[:h] = even + odd
    out[::-1][:nh] = even[:nh] - odd[:nh]
    return out


def _zonal_analysis(grid: SphericalGrid, col: np.ndarray, L: int) -> np.ndarray:
    """The m = 0 coefficients c_{l,0}, l = 0..L, of the zonal field whose
    (n_theta,) column is col, as analyze gives them; checks L first.

    The phi sum of a constant row is n_phi at m = 0 and 0 at every
    0 < m < n_phi, so only m = 0 is left: one parity-folded
    Gauss-Legendre sum against _zonal_table.
    """
    _check_degree(grid, L)
    even, odd = _fold(grid, grid.n_phi * grid.weight * col)
    p = _zonal_table(grid, L)
    c = np.empty(L + 1)
    c[0::2] = even @ p[:, 0::2]
    c[1::2] = odd @ p[:, 1::2]
    return c


def _zonal_synthesis(grid: SphericalGrid, c: np.ndarray) -> np.ndarray:
    """The values of sum_l c_l Y_{l,0} for m = 0 coefficients c of a
    degree L = len(c) - 1 already checked against the grid, as
    synthesize gives them: one column, broadcast over phi."""
    p = _zonal_table(grid, len(c) - 1)
    col = _unfold(grid, p[:, 0::2] @ c[0::2], p[:, 1::2] @ c[1::2],
                  np.empty(grid.n_theta))
    return np.broadcast_to(col[:, None], (grid.n_theta, grid.n_phi))


def analyze(f: ScalarField, L: int) -> HarmonicSpectrum:
    """Project a field onto harmonics up to degree L: c_lm = integrate(f*Y_lm)."""
    grid = f.grid
    if _is_zonal(f.values):
        c = _zonal_analysis(grid, f.values[:, 0], L)
        _, _, _, _, zonal, *_ = _slab_index(L)
        coeff = np.zeros((L + 1) ** 2)
        coeff[zonal] = c
        return HarmonicSpectrum(L=L, coeff=_frozen(coeff))

    _check_degree(grid, L)
    flat, scale, pair_m, *_ = _slab_index(L)
    h = (grid.n_theta + 1) // 2
    slabs = _legendre_tables(grid, L)
    # (re, im) of sum_k w_j f_jk e^{-i m phi_k}: the weighted cos and -sin
    # sums (grid.weight already carries the 2*pi/n_phi of the phi rule)
    a = (np.fft.rfft(f.values, axis=1)[:, : L + 1].view(float)
         * grid.weight[:, None])
    # lanes (cos even, cos odd, sin even, sin odd) of each m
    eo = _fold(grid, a).reshape(2, h, L + 1, 2).transpose(2, 3, 0, 1)
    prod = np.matmul(eo[pair_m].reshape(-1, 8, h), slabs)
    return HarmonicSpectrum(L=L, coeff=_frozen(prod.reshape(-1)[flat] * scale))


def synthesize(s: HarmonicSpectrum, grid: SphericalGrid) -> ScalarField:
    """Evaluate sum_lm c_lm Y_lm at every grid node."""
    L = s.L
    _check_degree(grid, L)
    n, h = grid.n_theta, (grid.n_theta + 1) // 2
    flat, scale, _, group_m, zonal, *_ = _slab_index(L)
    c0 = s.coeff[zonal]
    if np.count_nonzero(s.coeff) == np.count_nonzero(c0):
        # every m != 0 coefficient is 0: one column, repeated over phi
        return ScalarField(grid, _zonal_synthesis(grid, c0))

    slabs = _legendre_tables(grid, L)
    # lanes hold c_{l,m} / sqrt 2 and -c_{l,-m} / sqrt 2 (c_{l,0} as is),
    # so the sums come out as irfft's F[:, m] = (g_c - i g_s) / sqrt 2
    lanes = np.zeros((slabs.shape[0], 8, L + 2))
    lanes.reshape(-1)[flat] = s.coeff / scale
    prod = np.matmul(lanes, slabs.transpose(0, 2, 1))
    # (even, odd) parts, each (nodes, m, cos/sin), unfolded into F.
    # L <= max_degree < n_phi / 2, so every m has its own rfft bin.
    even, odd = (prod.reshape(-1, 4, h)[group_m].reshape(L + 1, 2, 2, h)
                 .transpose(2, 3, 0, 1))
    F = np.zeros((n, grid.n_phi // 2 + 1), dtype=complex)
    _unfold(grid, even, odd, F.view(float).reshape(n, -1, 2)[:, : L + 1])
    # n= keeps the output length right for odd n_phi
    return ScalarField(grid, np.fft.irfft(F, n=grid.n_phi, axis=1) * grid.n_phi)


def laplacian(s: HarmonicSpectrum) -> HarmonicSpectrum:
    """Spectral Laplace-Beltrami operator: multiply c_lm by -l(l+1)
    (_times_laplacian)."""
    return HarmonicSpectrum(
        L=s.L, coeff=_frozen(_times_laplacian(_degree_weights(s.L), s.coeff)))


def dirichlet_energy(s: HarmonicSpectrum) -> float:
    """integral |grad u|^2 = sum l(l+1) c_lm^2 (Parseval)."""
    return _weighted_square_sum(_degree_weights(s.L), s.coeff)


def _field_dirichlet(f: ScalarField, L: int) -> float:
    """dirichlet_energy(analyze(f, L)); for a zonal f, the sum over its
    L + 1 m = 0 coefficients alone: the same value, not the same bits
    (fewer terms are added)."""
    if _is_zonal(f.values):
        c = _zonal_analysis(f.grid, f.values[:, 0], L)  # checks L first
        return _weighted_square_sum(_zonal_weights(L), c)
    return dirichlet_energy(analyze(f, L))


def _field_laplacian(f: ScalarField) -> np.ndarray:
    """Lap f at max_degree, synthesize(laplacian(analyze(f))).values; a
    zonal f takes the same products on its m = 0 coefficients alone,
    bitwise, without the (L+1)^2 spectrum, and broadcasts the column."""
    grid, L = f.grid, max_degree(f.grid)
    if _is_zonal(f.values):
        c = _zonal_analysis(grid, f.values[:, 0], L)
        return _zonal_synthesis(grid, _times_laplacian(_zonal_weights(L), c))
    return synthesize(laplacian(analyze(f, L)), grid).values
