"""Exception types shared across the package."""


class SpingateError(Exception):
    """Base class for all package-specific errors."""


class DimMismatch(SpingateError, ValueError):
    """Operands do not have compatible shapes."""


class NotHermitian(SpingateError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotUnitary(SpingateError, ValueError):
    """A matrix required to be unitary is not, beyond tolerance."""


class LengthMismatch(SpingateError, ValueError):
    """A parameter vector does not match the expected term count."""


class InvalidQubitCount(SpingateError, ValueError):
    """Chain length below the two-qubit minimum, or otherwise unusable."""


class InvalidDepth(SpingateError, ValueError):
    """Layer count must be a positive integer."""


class UnknownGate(SpingateError, ValueError):
    """Requested gate name is not in the catalogue."""


class OutOfRange(SpingateError, ValueError):
    """A probability or amplitude lies outside its admissible interval."""


class NegativeAmplitude(SpingateError, ValueError):
    """Noise amplitudes must be non-negative."""


class NoisyModeUnsupported(SpingateError, RuntimeError):
    """Analytic gradients are only defined for noiseless cost modes."""


class ConfigError(SpingateError, ValueError):
    """Malformed or unknown experiment configuration."""


class NumericalFailure(SpingateError, RuntimeError):
    """A run produced non-finite numbers or failed a numeric validity check."""
