"""Exception types shared across the toolkit.

Every error class maps onto one CLI exit code (see cli.EXIT_*), so the
hierarchy is deliberately flat.
"""


class SphereMTError(Exception):
    """Base class for all toolkit errors."""


class GridSizeError(SphereMTError, ValueError):
    """Grid dimensions below the supported minimums, or field values
    whose shape does not match their grid."""


class ResolutionError(SphereMTError, ValueError):
    """Requested degree or dilation exceeds what the grid resolves, or
    grid nodes lack the mirror symmetry the transforms need."""


class NonFiniteFieldError(SphereMTError, ValueError):
    """A field contains NaN or Inf samples."""


class RangeOverflowError(SphereMTError, ArithmeticError):
    """A pointwise map (typically exp) overflowed double precision; the
    message names the offending maximum input value and its node."""


class InvariantViolation(SphereMTError):
    """A runtime self-check (e.g. zero-mean of a residual field) failed."""


class FormatError(SphereMTError, ValueError):
    """A field or report file is corrupted or has the wrong schema."""
