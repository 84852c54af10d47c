"""Exception hierarchy, and the two rules a numeric setting is read by.
The CLI maps the exceptions onto stable exit codes."""

import math


class PvprofError(Exception):
    """Base class for all library errors."""


class ConfigError(PvprofError):
    """Invalid or incomplete configuration / metadata (exit code 2)."""


class DataError(PvprofError):
    """Malformed, misaligned or otherwise unusable input data (exit code 3)."""


class InsufficientDataError(DataError):
    """Not enough usable records for the requested operation."""


class NumericalError(PvprofError):
    """Numerical procedure failed (exit code 4)."""


class SolverError(NumericalError):
    """Root finding failed; carries the offending inputs."""

    def __init__(self, message, **inputs):
        super().__init__(message + (f" (inputs: {inputs})" if inputs else ""))
        self.inputs = inputs


class FitDegeneracyError(NumericalError):
    """A record of the window was unsolvable during a loss evaluation."""


class ExtractionError(NumericalError):
    """Datasheet parameter extraction did not converge."""


class TrainingError(NumericalError):
    """Regressor training failed (e.g. constant feature, singular system)."""


def finite_number(value, name):
    """``value`` as a float if it is a finite JSON number, an int or a
    float (``true`` and ``"3"`` are not), else ``ConfigError`` naming
    ``name``."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):   # not a number, or an int past 1e308
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def whole_number(value, name, low=1, high=math.inf):
    """``value`` as an int if it is a whole number from ``low`` to ``high``
    (an int, or a whole float such as 12.0; not a bool), else
    ``ConfigError`` naming ``name``."""
    try:
        if not isinstance(value, bool) and value == int(value) \
                and low <= value <= high:
            return int(value)
    except (TypeError, ValueError, OverflowError):   # NaN, inf, a list
        pass
    limit = "" if high == math.inf else f" (at most {high:g})"
    raise ConfigError(f"{name} must be a whole number >= {low}{limit}, got "
                      f"{value!r}")
