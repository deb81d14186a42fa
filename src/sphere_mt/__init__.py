"""Spectral variational toolkit for the improved Moser-Trudinger
functional on the unit sphere.

Sub-modules:

    grid        Gauss-Legendre quadrature grids and scalar fields
    harmonics   real spherical-harmonic transforms and spectral operators
    conformal   Moebius dilations, bubbles, two-pole Green's function
    functional  functionals, gradients, Euler-Lagrange / Kazdan-Warner
                residuals, energy-expansion diagnostics
    optimize    augmented-Lagrangian minimization over the zero-moment class
    io          bit-stable field/report/CSV persistence
    cli         the sphere-mt command-line interface
"""

__version__ = "0.1.0"

from .errors import (FormatError, GridSizeError, InvariantViolation,
                     NonFiniteFieldError, RangeOverflowError,
                     ResolutionError, SphereMTError)
from .grid import (FOUR_PI, ScalarField, SphericalGrid, average, build_grid,
                   constant_field, integrate)
from .harmonics import (HarmonicSpectrum, analyze, dirichlet_energy,
                        laplacian, max_degree, synthesize)
from .conformal import (BubblePairField, MobiusMap, bubble_mass, bubble_pair,
                        green_two_pole, green_two_pole_value, max_bubble_t,
                        mobius_factor, mobius_pullback, planar_bubble)
from .functional import (OBSTRUCTION_CONSTANT, ExpansionReport,
                         FunctionalReport, ResidualReport,
                         el_residual, energy_expansion_report, evaluate,
                         kazdan_warner_residual, l2_gradient)
from .optimize import (ContinuationResult, MinimizeConfig, MinimizeResult,
                       continuation, minimize)

__all__ = [
    "FormatError", "GridSizeError", "InvariantViolation",
    "NonFiniteFieldError", "RangeOverflowError", "ResolutionError",
    "SphereMTError",
    "FOUR_PI", "ScalarField", "SphericalGrid", "average", "build_grid",
    "constant_field", "integrate",
    "HarmonicSpectrum", "analyze", "dirichlet_energy", "laplacian",
    "max_degree", "synthesize",
    "BubblePairField", "MobiusMap", "bubble_mass", "bubble_pair",
    "green_two_pole", "green_two_pole_value", "max_bubble_t",
    "mobius_factor", "mobius_pullback", "planar_bubble",
    "OBSTRUCTION_CONSTANT", "ExpansionReport", "FunctionalReport",
    "ResidualReport", "el_residual", "energy_expansion_report", "evaluate",
    "kazdan_warner_residual", "l2_gradient",
    "ContinuationResult", "MinimizeConfig", "MinimizeResult",
    "continuation", "minimize",
]
