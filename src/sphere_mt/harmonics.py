"""Real spherical-harmonic analysis and synthesis.

Basis convention: orthonormal real harmonics

    Y_{l,0}  = p_{l,0}(cos theta)
    Y_{l,m}  = sqrt(2) * p_{l,m}(cos theta) * cos(m phi)   (m > 0)
    Y_{l,-m} = sqrt(2) * p_{l,m}(cos theta) * sin(m phi)   (m > 0)

where p_{l,m} are the fully normalized associated Legendre functions
(no Condon-Shortley phase), so that integrate(Y_a * Y_b) = delta_ab.
One generator runs the stable normalized three-term recurrence for
p_{l,m} (accurate well beyond degree 128) in m-major row order: the
transform tables stack its rows at the grid's own nodes (grid.cos_theta),
and evaluate_at_points accumulates them point by point.

Longitude sums are real FFTs both ways: analysis takes rfft of the node
values, and synthesis fills the half-spectrum F[:, m] = (g_c - i g_s)/sqrt(2)
from the per-m Legendre sums and takes irfft(F) * n_phi (the layout of
Schaeffer, "Efficient spherical harmonic transforms aimed at
pseudospectral numerical simulations", G^3 2013).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ResolutionError
from .grid import ScalarField, SphericalGrid

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


def flat_index(l: int, m: int) -> int:
    """Position of coefficient (l, m) in the flat layout l*l + l + m."""
    return l * l + l + m


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Real spherical-harmonic coefficients up to degree L.

    coeff is flat with layout l*l + l + m, length (L+1)^2.
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
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    def __getitem__(self, lm) -> float:
        l, m = lm
        return float(self.coeff[flat_index(l, m)])


def _legendre_rows(x: np.ndarray, s: np.ndarray, L: int):
    """Yield p_{l,m}(x) for m = 0..L, l = m..L (m-major); s = sin(theta).

    Each yielded array is fresh and never written again.
    """
    pmm = np.full_like(x, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(L + 1):
        yield pmm
        if m == L:
            return
        p_prev, p_cur = pmm, np.sqrt(2.0 * m + 3.0) * x * pmm
        yield p_cur
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
                        / ((2.0 * l - 3.0) * (l * l - m * m)))
            p_prev, p_cur = p_cur, a * x * p_cur - b * p_prev
            yield p_cur
        pmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * pmm


@lru_cache(maxsize=16)
def _m_major_index(L: int):
    """Flat positions of c_{l,m} and c_{l,-m} for l = m..L, one array per m."""
    m, l = np.triu_indices(L + 1)
    pos, neg = l * l + l + m, l * l + l - m
    pos.flags.writeable = neg.flags.writeable = False
    blocks = np.cumsum(np.arange(L + 1, 1, -1))
    return np.split(pos, blocks), np.split(neg, blocks)


@lru_cache(maxsize=16)
def _legendre_tables(grid: SphericalGrid, L: int):
    """Normalized associated Legendre values p_{l,m}(x_j) at the GL nodes.

    Returns a list indexed by m; entry m has shape (L + 1 - m, n_theta)
    with rows l = m..L.  Cached per (grid, L); grids compare by shape.
    """
    x = grid.cos_theta
    rows = _legendre_rows(x, np.sqrt(1.0 - x * x), L)
    tables = []
    for m in range(L + 1):
        block = np.array(list(islice(rows, L + 1 - m)))
        block.setflags(write=False)
        tables.append(block)
    return tables


def _check_degree(grid: SphericalGrid, L: int):
    limit = max_degree(grid)
    if L > limit:
        raise ResolutionError(
            f"degree L={L} exceeds anti-aliasing bound {limit} "
            f"for grid ({grid.n_theta}, {grid.n_phi})")
    if L < 0:
        raise ValueError("degree must be non-negative")


def analyze(f: ScalarField, L: int) -> HarmonicSpectrum:
    """Project a field onto harmonics up to degree L: c_lm = integrate(f*Y_lm)."""
    grid = f.grid
    _check_degree(grid, L)
    # theta-weight only: the 2*pi/n_phi factor lives in the phi sums below.
    w_theta = grid.weight * (grid.n_phi / (2.0 * np.pi))
    dphi = 2.0 * np.pi / grid.n_phi

    F = np.fft.rfft(f.values, axis=1)
    n_m = min(L, grid.n_phi // 2)
    cos_part = F[:, : n_m + 1].real * dphi          # sum_k f cos(m phi_k) dphi
    sin_part = -F[:, : n_m + 1].imag * dphi         # sum_k f sin(m phi_k) dphi

    tables = _legendre_tables(grid, L)
    pos, neg = _m_major_index(L)
    coeff = np.zeros((L + 1) ** 2)
    coeff[pos[0]] = tables[0] @ (w_theta * cos_part[:, 0])
    for m in range(1, L + 1):
        coeff[pos[m]] = tables[m] @ (w_theta * cos_part[:, m]) * SQRT2
        coeff[neg[m]] = tables[m] @ (w_theta * sin_part[:, m]) * SQRT2
    return HarmonicSpectrum(L=L, coeff=coeff)


def synthesize(s: HarmonicSpectrum, grid: SphericalGrid) -> ScalarField:
    """Evaluate sum_lm c_lm Y_lm at every grid node."""
    _check_degree(grid, s.L)
    L = s.L
    tables = _legendre_tables(grid, L)
    pos, neg = _m_major_index(L)

    # L <= max_degree < n_phi / 2, so every m has its own rfft bin.
    F = np.zeros((grid.n_theta, grid.n_phi // 2 + 1), dtype=complex)
    F[:, 0] = s.coeff[pos[0]] @ tables[0]
    for m in range(1, L + 1):
        gc, gs = np.stack((s.coeff[pos[m]], s.coeff[neg[m]])) @ tables[m]
        F[:, m] = (gc - 1j * gs) * (SQRT2 / 2.0)
    # n= keeps the output length right for odd n_phi
    return ScalarField(grid, np.fft.irfft(F, n=grid.n_phi, axis=1) * grid.n_phi)


def evaluate_at_points(s: HarmonicSpectrum, theta: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """Evaluate the spectral sum at arbitrary points (exact resampling).

    The Legendre recurrence runs per point; memory stays O(n_points) by
    accumulating its rows without materializing the full table.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    L = s.L
    rows = _legendre_rows(np.cos(theta), np.sin(theta), L)
    pos, neg = _m_major_index(L)
    out = np.zeros_like(theta)
    for m in range(L + 1):
        acc_c = np.zeros_like(theta)
        acc_s = np.zeros_like(theta)
        for jc, js, p in zip(pos[m], neg[m], islice(rows, L + 1 - m)):
            acc_c += s.coeff[jc] * p
            if m > 0:
                acc_s += s.coeff[js] * p
        if m == 0:
            out += acc_c
        else:
            out += SQRT2 * (acc_c * np.cos(m * phi) + acc_s * np.sin(m * phi))
    return out


def laplacian(s: HarmonicSpectrum) -> HarmonicSpectrum:
    """Spectral Laplace-Beltrami operator: multiply c_lm by -l(l+1)."""
    l = degrees(s.L)
    return HarmonicSpectrum(L=s.L, coeff=-l * (l + 1.0) * s.coeff)


def dirichlet_energy(s: HarmonicSpectrum) -> float:
    """integral |grad u|^2 = sum l(l+1) c_lm^2 (Parseval)."""
    l = degrees(s.L)
    return float(np.sum(l * (l + 1.0) * s.coeff ** 2))

