"""Final-state spectrum (FSS) data model, file I/O and cumulative moments.

An FSS is a discrete set of excitation energies E_n (eV, counted from the
daughter-molecule ground level) with population probabilities P_n, held
as read-only columns sorted by energy: energies, probabilities, channels,
rotations (J) and vibrations (v), with J and v -1 where a line has none.
The table file format is plain columnar text:

    # comment lines start with '#'
    E_n_eV  P_n  channel  J  v

with `J` and `v` optionally `-` (the channel is always an integer), E_n and
P_n finite, P_n >= 0, values written with 17 significant digits, and a
terminating newline.  The cumulative moments and the moment-form spectral
term read the open-line sums sum_{E_n < x} P_n (E_n - c)^k from prefix
sums over the sorted lines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FssParseError, ReadOnlyArrays, ValidationError, open_output

#: upper bound on the summed line probabilities; the slack above 1 absorbs
#: roundoff in generated spectra
_TOTAL_PROBABILITY_MAX = 1.000001


@dataclass(frozen=True)
class MomentSet:
    """Cumulative moments of the open channels at available energy eps.

    When no channel is open (p_open == 0) the moments are reported as
    absent (None), a distinguished state rather than 0 or NaN.
    """

    p_open: float
    mean_e: Optional[float]
    mean_e2: Optional[float]
    mean_e3: Optional[float]

    @property
    def open(self) -> bool:
        return self.p_open > 0.0


@dataclass(frozen=True, eq=False)
class FinalStateSpectrum(ReadOnlyArrays):
    """Immutable FSS: read-only line columns sorted by energy, with
    provenance metadata.  The labels are int64, the channel >= 0, and J and
    v >= 0 or -1 where a line has none: the rules `load_fss` applies to a
    file, checked here for every spectrum, unpickled ones included."""

    energies: np.ndarray
    probabilities: np.ndarray
    channels: np.ndarray
    rotations: np.ndarray
    vibrations: np.ndarray
    q_ref: Optional[float]
    provenance: dict

    def __post_init__(self):
        super().__post_init__()
        e, p = self.energies, self.probabilities
        labels = (self.channels, self.rotations, self.vibrations)
        if not e.size:
            raise ValidationError("final-state spectrum must contain lines")
        if any(column.shape != (e.size,) for column in (e, p, *labels)):
            raise ValidationError(
                "line columns must be 1-D with one entry per line, got shapes "
                f"{[column.shape for column in (e, p, *labels)]}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(p))):
            raise ValidationError(
                "line energies and probabilities must be finite")
        if np.any(p < 0.0):
            raise ValidationError(f"negative probability {p.min()}")
        if any(column.dtype != np.int64 for column in labels):
            raise ValidationError("channel, J and v labels must be int64, got "
                                  f"{[str(column.dtype) for column in labels]}")
        if np.any(self.channels < 0):
            raise ValidationError("channel index must be >= 0")
        if np.any(self.rotations < -1) or np.any(self.vibrations < -1):
            raise ValidationError("J and v must be >= 0, or -1 for none")
        if np.any(np.diff(e) < 0.0):
            raise ValidationError("lines must be sorted ascending in energy")
        total = float(p.sum())
        if not (0.0 < total <= _TOTAL_PROBABILITY_MAX):
            raise ValidationError(
                f"total probability {total} outside (0, {_TOTAL_PROBABILITY_MAX}]")

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())

    def __len__(self) -> int:
        return self.energies.size


def from_lines(blocks, q_ref: Optional[float] = None,
               provenance: Optional[dict] = None) -> FinalStateSpectrum:
    """Build a spectrum from (E, P, channel, J, v) blocks, each entry an
    array or a scalar, sorting the lines by energy (stable for ties)."""
    columns = [np.concatenate(c) for c in zip(
        *(np.broadcast_arrays(*np.atleast_1d(*block)) for block in blocks))]
    order = np.argsort(columns[0], kind="stable")
    return FinalStateSpectrum(*(c[order] for c in columns), q_ref=q_ref,
                              provenance=dict(provenance or {}))


# ---------------------------------------------------------------------------
# file I/O

def save_fss(fss: FinalStateSpectrum, path: str) -> None:
    """Write the columnar FSS table (UTF-8).

    Values carry 17 significant digits so that save -> load round-trips
    reproduce the spectrum bit-identically.
    """
    with open_output(path) as fh:
        fh.write("# E_n_eV  P_n  channel  J  v\n")
        if fss.q_ref is not None:
            fh.write(f"# q_ref_au = {fss.q_ref:.17g}\n")
        for e, p, c, j, v in zip(fss.energies.tolist(),
                                 fss.probabilities.tolist(),
                                 fss.channels.tolist(), fss.rotations.tolist(),
                                 fss.vibrations.tolist()):
            fh.write(f"{e:.16e} {p:.16e} {c} {'-' if j < 0 else j} "
                     f"{'-' if v < 0 else v}\n")


#: labels of a row with fewer than five columns: channel 0, no J, no v
_MISSING_LABELS = ["0", "-", "-"]
_LABEL_NAMES = ("channel", "J", "v")
_LABEL_MAX = int(np.iinfo(np.int64).max)


def _label(known: dict, token: str, what: str, lineno: int) -> int:
    """`known[token]`: the channel, J or v label `token` as an integer in
    [0, 2^63 - 1], converted and checked at the first file line that holds
    it."""
    if token not in known:
        if token == "-":
            raise FssParseError(f"{what} must be an integer, got '-'", lineno)
        try:
            value = int(token)
        except ValueError:
            raise FssParseError(f"bad {what} value {token!r}", lineno) from None
        if value < 0:
            raise FssParseError(f"{what} must be >= 0, got {value}", lineno)
        # labels are stored as int64
        if value > _LABEL_MAX:
            raise FssParseError(f"{what} must be <= {_LABEL_MAX}, got {value}",
                                lineno)
        known[token] = value
    return known[token]


def load_fss(path_or_file) -> FinalStateSpectrum:
    """Parse an FSS table file; q_ref comes from its `# q_ref_au` comment.

    Unsorted input is sorted silently, with a warning flag recorded in the
    provenance; non-finite values, negative probabilities, negative J or
    v, more than five columns and malformed rows raise, naming the file
    line.  A row is converted as it is read, each distinct label token
    once, and a field that does not convert raises at once; energies and
    probabilities are then checked once per column, naming the first
    offending line.
    """
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        fh = open(path_or_file, "r", encoding="utf-8")
        close = True
        name = str(path_or_file)
    else:
        fh, close, name = path_or_file, False, "<stream>"
    # the label tokens of each column read so far (`-` is a missing J or v):
    # a row whose labels are all known takes three dict lookups
    known = ({}, {"-": -1}, {"-": -1})
    linenos, energies, probs, channels, rotations, vibrations = (
        [] for _ in range(6))
    parsed_q = None
    try:
        for lineno, raw in enumerate(fh, start=1):
            cols = raw.split()
            if not cols:
                continue
            if cols[0][0] == "#":
                if "q_ref_au" in raw and "=" in raw:
                    try:
                        parsed_q = float(raw.split("=", 1)[1])
                    except ValueError:
                        pass
                continue
            n = len(cols)
            if not 2 <= n <= 5:
                raise FssParseError(
                    f"expected 2 to 5 columns (E_n P_n channel J v), got {n}",
                    lineno)
            if n < 5:
                cols += _MISSING_LABELS[n - 2:]
            try:
                energy, prob = float(cols[0]), float(cols[1])
            except ValueError:
                raise FssParseError(f"bad numeric field in {cols[:2]}", lineno) from None
            try:
                c, j, v = known[0][cols[2]], known[1][cols[3]], known[2][cols[4]]
            except KeyError:
                c, j, v = (_label(table, token, what, lineno) for table, token,
                           what in zip(known, cols[2:], _LABEL_NAMES))
            energies.append(energy)
            probs.append(prob)
            channels.append(c)
            rotations.append(j)
            vibrations.append(v)
            linenos.append(lineno)
    finally:
        if close:
            fh.close()
    if not linenos:
        raise FssParseError(f"no data rows in {name}")
    e, p = np.array(energies), np.array(probs)
    finite = np.isfinite(e) & np.isfinite(p)
    if not finite.all():
        row = int(np.argmin(finite))
        raise FssParseError("line energy and probability must be finite, got "
                            f"{float(e[row])} and {float(p[row])}", linenos[row])
    if np.any(p < 0.0):
        row = int(np.argmax(p < 0.0))
        raise FssParseError(f"negative probability {float(p[row])}", linenos[row])
    prov = {"source": name, "line_count": len(linenos)}
    if np.any(np.diff(e) < 0.0):
        prov["sorted_on_load"] = True
    return from_lines([(e, p, np.array(channels), np.array(rotations),
                        np.array(vibrations))],
                      q_ref=parsed_q, provenance=prov)


# ---------------------------------------------------------------------------
# cumulative moments

def _open_sums(fss: FinalStateSpectrum, x, origin: float) -> np.ndarray:
    """sum_{E_n < x} P_n (E_n - origin)^k for k = 0..3 (rows) at each x
    (columns).

    Prefix sums over the sorted lines, read at the count of lines below x
    (`searchsorted`, strict): one lookup per x, whatever the line count.
    """
    e, p = fss.energies - origin, fss.probabilities
    terms = np.stack([p, p * e, p * e * e, p * e * e * e])
    prefix = np.concatenate([np.zeros((4, 1)), np.cumsum(terms, axis=1)],
                            axis=1)
    return prefix[:, np.searchsorted(fss.energies, x, side="left")]


def cumulative_moments(fss: FinalStateSpectrum, eps_ev: float) -> MomentSet:
    """P_eps and the first three energy moments over open channels.

    A channel n is open when E_n < eps (strict).  With no open channel the
    moments are absent, not zero.
    """
    if not np.isfinite(eps_ev):
        raise ValidationError("eps must be finite")
    p_open, s1, s2, s3 = (float(s) for s in _open_sums(fss, eps_ev, 0.0))
    if p_open == 0.0:
        return MomentSet(0.0, None, None, None)
    return MomentSet(p_open, s1 / p_open, s2 / p_open, s3 / p_open)


def moment_form_spectrum_term(fss: FinalStateSpectrum, x,
                              m2nu_ev2: float) -> np.ndarray:
    """Moment-form spectral term (eV^3) at available energies x:

        P_x [ y^3 - 3<D> y^2 + 3<D^2> y - (3/2) m2nu (y - <D>) - <D^3> ]

    over the open lines E_n < x, with energies counted from the lowest line
    (D = E - E_0, y = x - E_0) so that the offset of the whole spectrum
    adds no cancellation, and each P_x <D^k> read as one open-line sum.  It
    is the line sum sum_n P_n [x_n^3 - (3/2) m2nu x_n] theta(x_n),
    x_n = x - E_n, and 0 where every line is closed.
    """
    origin = fss.energies[0]
    s0, s1, s2, s3 = _open_sums(fss, x, origin)
    y = np.asarray(x, dtype=float) - origin
    term = (s0 * y**3 - 3.0 * s1 * y**2 + 3.0 * s2 * y
            - 1.5 * m2nu_ev2 * (s0 * y - s1) - s3)
    return np.where(s0 > 0.0, term, 0.0)
