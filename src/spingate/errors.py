"""Exception types shared across the package, and the checks of counts, amounts and reals."""

import math
import numbers


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


class ConfigError(SpingateError, ValueError):
    """Malformed or unknown experiment configuration."""


class NumericalFailure(SpingateError, RuntimeError):
    """A run produced non-finite numbers or failed a numeric validity check."""


def check_count(name: str, value, low: int, high: int | None = None, error=ConfigError) -> None:
    """Raise `error` unless value is an integer (a numpy one too, not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be at least {low}, got {value!r}")
    if high is not None and value > high:
        raise error(f"{name} must be at most {high}, got {value!r}")


def check_amount(name: str, value, error=ConfigError) -> None:
    """Raise `error` unless value is a finite real number >= 0 (a numpy one too, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
        raise error(f"{name} must be finite and >= 0, got {value!r}")


def check_real(name: str, value, error=ConfigError) -> None:
    """Raise `error` unless value is a finite real number (a numpy one too, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite real number, got {value!r}")
