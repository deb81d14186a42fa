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
    """A pointwise map (typically exp) overflowed double precision.

    Carries the offending maximum input value and the node where it
    occurs, so callers can treat it as a blow-up signal rather than a
    crash.
    """

    def __init__(self, message, max_value=None, node=None):
        super().__init__(message)
        self.max_value = max_value
        self.node = node


class InvariantViolation(SphereMTError):
    """A runtime self-check (e.g. zero-mean of a residual field) failed."""


class FormatError(SphereMTError, ValueError):
    """A field or report file is corrupted or has the wrong schema."""
