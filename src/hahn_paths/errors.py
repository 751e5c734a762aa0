"""Exception hierarchy shared across the package; each class carries its CLI exit code."""


class HahnPathsError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class ResourceLimitError(HahnPathsError):
    """The input's cost is above a fixed cap, so it is refused before any work."""

    exit_code = 3


class EnumerationCapExceeded(ResourceLimitError):
    """Counting families over the slice configurations would take more work than the cap."""


class SamplerSizeError(ResourceLimitError):
    """The exact sampler is limited to N <= 20 paths."""


class TransitionRowSumError(HahnPathsError):
    """A transition-table row does not carry its full mass Delta(x) (T-t)_N.

    Raised when the admissible moves out of a configuration do not sum to the
    row's exact total, as for a configuration outside its slice's support.
    """


class DegenerateParameterError(HahnPathsError):
    """A zero denominator Pochhammer was reached with a nonzero numerator."""


class BoundaryRegimeError(HahnPathsError):
    """The macroscopic regime point sits on the boundary of its admissible box."""


class PoleOnContourError(HahnPathsError):
    """The contour integrand has a pole on the integration arc (c = 1 with negative power)."""


class PrecisionLossError(HahnPathsError):
    """A closed-form float sum would cancel more digits than its error bound allows."""


class FloatRangeError(HahnPathsError):
    """An exact value is above the binary64 range, so it has no float form."""


class IncompatibleRadicalsError(HahnPathsError):
    """Two exact square-root numbers cannot be added inside the rational field."""
