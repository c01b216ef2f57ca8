"""Exception types shared across the package, and the one JSON reader.

The CLI maps ValidationError (and subclasses) to exit status 1 and
AccuracyError / ModelError / non-convergence to exit status 2.

Every JSON document (model.json, fit.json, spectrum params, dataset
sidecars, the TRIBETA_CONSTANTS file) is read by `read_document` and
turned into objects inside `naming` blocks, so a malformed document, a
misspelt key or a bad value is a ConfigurationError whose message starts
with the file and, where there is one, the section it came from
(`fit.json response: sigma must be finite and positive`).
"""

import json
from contextlib import contextmanager


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


def read_document(path: str) -> dict:
    """The JSON object in `path`.  Malformed JSON, or a value that is not an
    object, is a ConfigurationError naming the file; OSError passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


@contextmanager
def naming(source: str):
    """Re-raise a TypeError (a misspelt key, a value of the wrong type) or a
    ValidationError from the block as a ConfigurationError starting with
    `source`, e.g. "fit.json response"."""
    try:
        yield
    except (TypeError, ValidationError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
