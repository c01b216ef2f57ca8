"""Exception types shared across the package.

The CLI maps ValidationError (and subclasses) to exit status 1 and
AccuracyError / ModelError / non-convergence to exit status 2.
"""


class ValidationError(ValueError):
    """Invalid input data or parameters (domain / contract violation)."""


class ConfigurationError(ValidationError):
    """Inconsistent configuration (grids, response widths, unknown tags)."""


class FssParseError(ValidationError):
    """Malformed final-state-spectrum table; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class AccuracyError(RuntimeError):
    """A numerical accuracy gate failed (e.g. grid convergence check)."""


class ModelError(ValueError):
    """Model evaluation produced an unusable value (e.g. negative expected counts)."""
