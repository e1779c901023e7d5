"""Exception taxonomy shared across the package.

CLI exit-code mapping: ConfigError and FormatError are input problems
(exit 2); everything else derived from MathValidityError is a
mathematical-validity problem (exit 3).
"""


class RwsError(Exception):
    """Base class for all package errors."""


class ConfigError(RwsError):
    """Bad configuration file or CLI argument."""


class FormatError(RwsError):
    """Malformed input file (signal or CSV)."""


class MathValidityError(RwsError):
    """A mathematical precondition is violated."""


class UnsupportedOrderError(MathValidityError):
    """Wavelet order outside the embedded table range."""


class InvalidLengthError(MathValidityError):
    """Signal length is not a power of two (or too short)."""


class NonFiniteSampleError(MathValidityError):
    """A signal sample is NaN or infinite."""


class InvalidPyramidError(MathValidityError):
    """Coefficient pyramid has missing or mis-sized levels."""


class KernelValidityError(MathValidityError):
    """Kernel parameters violate their validity threshold."""


class UnsupportedVariantError(MathValidityError):
    """Operation not defined for this kernel variant."""


class AdmissibilityError(MathValidityError):
    """Spectrum curve fails the admissibility conditions."""


class InsufficientScalesError(MathValidityError):
    """Fewer than three usable scales for regression."""


class DegenerateLevelError(MathValidityError):
    """A scale inside the regression range has no nonzero coefficient."""
