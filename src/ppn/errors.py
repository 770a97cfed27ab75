"""Exception hierarchy shared across the package, and the checks of settings."""

import math
import numbers


class PpnError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PpnError):
    """A distribution or model parameter is out of its valid domain."""


class DataError(PpnError):
    """Input data is malformed (wrong kind, non-finite values, bad one-hot rows)."""


class DimensionError(PpnError):
    """Shapes or dimension counts are incompatible."""


class DomainError(PpnError):
    """A scalar argument is outside the function's domain."""


class SingularityError(PpnError):
    """A matrix required to be invertible is (numerically) singular."""


class StateError(PpnError):
    """A model state is invalid (e.g. non-positive variances)."""


class WiringError(PpnError):
    """Mismatched components were combined (wrong model for a diagnostic, etc.)."""


class DegenerateSampleError(PpnError):
    """A sample set has zero variance and cannot support density estimation."""


class CheckError(PpnError):
    """A check failed at some stage; carries provenance of model and stage."""

    def __init__(self, model_id: str, stage: str, cause: Exception):
        super().__init__(f"model {model_id!r} failed during {stage}: {cause}")
        self.model_id = model_id
        self.stage = stage
        self.cause = cause


def integer(value, what, low):
    """value as a plain int if it is an integer >= low, else a ParameterError
    naming what.  Floats, bools and numeric strings are refused, even 2.0,
    True and "2": a setting that counts something is written as an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{what} must be an integer, not {value!r}")
    value = int(value)
    if value < low:
        raise ParameterError(f"{what} must be >= {low}, not {value}")
    return value


def finite(value, what):
    """value as a plain float if it is a finite real number, else a
    ParameterError naming what.  Bools, numeric strings, NaN and inf are refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:           # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ParameterError(f"{what} must be a finite number, not {value!r}")
