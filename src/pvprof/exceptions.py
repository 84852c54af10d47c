"""Exception hierarchy. The CLI maps these onto stable exit codes."""


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
