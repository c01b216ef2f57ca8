"""Exception types shared across the package, and the one reader and
writer of its files.

The CLI maps ValidationError (and subclasses) to exit status 1 and
AccuracyError / ModelError / non-convergence to exit status 2.

Every JSON document (model.json, fit.json, spectrum params, dataset
sidecars, the TRIBETA_CONSTANTS file) is read by `read_document` and
turned into objects inside `naming` blocks, so a malformed document, a
misspelt key, a missing section or a bad value is a ConfigurationError
whose message starts with the file and, where there is one, the section
it came from (`fit.json response: sigma must be finite and positive`).

Every output file is opened by `open_output`, which creates its parent
directory: JSON documents as `document_text` (`write_document`), in which
a non-finite number is a ValueError, not `NaN`; CSV tables with floats as
`.12g` (`write_table`); and the FSS table.

`FinalStateSpectrum`, `Lattice`, `PseudoDataset` and `FitModel` derive from
`ReadOnlyArrays`: each checks and keeps read-only copies of its arrays.
"""

import csv
import dataclasses
import json
import os
from contextlib import contextmanager

import numpy as np


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


def _read_only(value):
    """`value`, with a read-only copy of each array in it or in its tuple."""
    if isinstance(value, tuple):
        return tuple(map(_read_only, value))
    if isinstance(value, np.ndarray):
        value = np.array(value)
        value.setflags(write=False)
    return value


class ReadOnlyArrays:
    """Base of a frozen dataclass that holds arrays: each array field, or
    tuple of arrays, becomes the record's own read-only copy, so no edit of
    the caller's arrays, or of a view's base, reaches it.  A subclass checks
    the copies, after `super().__post_init__()`.  Unpickling calls the
    constructor with the `init` fields, so workers get checked copies too."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name)
                                  for f in dataclasses.fields(self) if f.init))


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
    `source`, e.g. "fit.json response"; a KeyError (a required section read
    as `doc["initial"]`) reads "<source>: missing"."""
    try:
        yield
    except KeyError:
        raise ConfigurationError(f"{source}: missing") from None
    except (TypeError, ValidationError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def open_output(path: str, newline=None):
    """`path` opened for UTF-8 writing, its parent directory created."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


def document_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_document(path: str, doc) -> None:
    """`doc` as `document_text` in `path`.  The text is rendered before the
    file is opened, so a document that does not serialize leaves no file
    and an existing one untouched."""
    text = document_text(doc)
    with open_output(path) as fh:
        fh.write(text)


def write_table(path: str, header, rows) -> None:
    """A CSV table: Python and numpy floats as `.12g` text, any other value
    (an integer, "absent") as it is."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [f"{v:.12g}" if isinstance(v, (float, np.floating)) else v
             for v in row] for row in rows)
