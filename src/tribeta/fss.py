"""Final-state spectrum (FSS) data model, file I/O and cumulative moments.

An FSS is a discrete set of excitation energies E_n (eV, counted from the
daughter-molecule ground level) with population probabilities P_n.  The
table file format is plain columnar text:

    # comment lines start with '#'
    E_n_eV  P_n  channel  J  v

with `J` and `v` optionally `-` (the channel is always an integer), E_n and
P_n finite, P_n >= 0, values written with 17 significant digits, and a
terminating newline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import FssParseError, ValidationError

#: upper bound on the summed line probabilities; the slack above 1 absorbs
#: roundoff in generated spectra
_TOTAL_PROBABILITY_MAX = 1.000001


@dataclass(frozen=True)
class FssLine:
    """One final-state line: energy, population and quantum labels."""

    energy_ev: float
    probability: float
    channel: int = 0
    rotation: Optional[int] = None   # J
    vibration: Optional[int] = None  # v

    def __post_init__(self):
        if not (math.isfinite(self.energy_ev) and math.isfinite(self.probability)):
            raise ValidationError(
                "line energy and probability must be finite, got "
                f"{self.energy_ev} and {self.probability}")
        if self.probability < 0.0:
            raise ValidationError(f"negative probability {self.probability}")
        if self.channel < 0:
            raise ValidationError("channel index must be >= 0")


@dataclass(frozen=True)
class MomentSet:
    """Cumulative moments of the open channels at available energy eps.

    When no channel is open (p_open == 0) the moments are reported as
    absent (None), a distinguished state rather than 0 or NaN.
    """

    energy_ev: float
    p_open: float
    mean_e: Optional[float]
    mean_e2: Optional[float]
    mean_e3: Optional[float]

    @property
    def open(self) -> bool:
        return self.p_open > 0.0


@dataclass(frozen=True)
class FinalStateSpectrum:
    """Immutable, sorted collection of FSS lines with provenance metadata."""

    lines: tuple[FssLine, ...]
    q_ref: Optional[float] = None
    provenance: dict = field(default_factory=dict)
    # cached column arrays, derived in __post_init__
    energies: np.ndarray = field(init=False, repr=False, compare=False)
    probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lines:
            raise ValidationError("final-state spectrum must contain lines")
        e = np.array([l.energy_ev for l in self.lines], dtype=float)
        p = np.array([l.probability for l in self.lines], dtype=float)
        if np.any(np.diff(e) < 0.0):
            raise ValidationError("lines must be sorted ascending in energy")
        total = float(p.sum())
        if not (0.0 < total <= _TOTAL_PROBABILITY_MAX):
            raise ValidationError(
                f"total probability {total} outside (0, {_TOTAL_PROBABILITY_MAX}]")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "probabilities", p)
        self.energies.setflags(write=False)
        self.probabilities.setflags(write=False)

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())

    def __len__(self) -> int:
        return len(self.lines)


def from_lines(lines: Sequence[FssLine], q_ref: Optional[float] = None,
               provenance: Optional[dict] = None) -> FinalStateSpectrum:
    """Build a spectrum, sorting lines by energy (stable for ties)."""
    ordered = tuple(sorted(lines, key=lambda l: l.energy_ev))
    return FinalStateSpectrum(ordered, q_ref=q_ref, provenance=dict(provenance or {}))


# ---------------------------------------------------------------------------
# file I/O

def _format_quantum(x: Optional[int]) -> str:
    return "-" if x is None else str(int(x))


def save_fss(fss: FinalStateSpectrum, path: str) -> None:
    """Write the columnar FSS table (UTF-8).

    Values carry 17 significant digits so that save -> load round-trips
    reproduce the spectrum bit-identically.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# E_n_eV  P_n  channel  J  v\n")
        if fss.q_ref is not None:
            fh.write(f"# q_ref_au = {fss.q_ref:.17g}\n")
        for line in fss.lines:
            fh.write(f"{line.energy_ev:.16e} {line.probability:.16e} "
                     f"{line.channel} {_format_quantum(line.rotation)} "
                     f"{_format_quantum(line.vibration)}\n")


def _parse_quantum(token: str, what: str, lineno: int) -> Optional[int]:
    if token == "-":
        return None
    try:
        value = int(token)
    except ValueError:
        raise FssParseError(f"bad {what} value {token!r}", lineno) from None
    if value < 0:
        raise FssParseError(f"{what} must be >= 0, got {value}", lineno)
    return value


def load_fss(path_or_file) -> FinalStateSpectrum:
    """Parse an FSS table file; q_ref comes from its `# q_ref_au` comment.

    Unsorted input is sorted silently, with a warning flag recorded in the
    provenance; non-finite values, negative probabilities, negative J or
    v, more than five columns and malformed rows raise, naming the file
    line.
    """
    if isinstance(path_or_file, (str, bytes)):
        fh = open(path_or_file, "r", encoding="utf-8")
        close = True
        name = str(path_or_file)
    else:
        fh, close, name = path_or_file, False, "<stream>"
    lines: list[FssLine] = []
    parsed_q = None
    try:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                if "q_ref_au" in text and "=" in text:
                    try:
                        parsed_q = float(text.split("=", 1)[1])
                    except ValueError:
                        pass
                continue
            cols = text.split()
            if not 2 <= len(cols) <= 5:
                raise FssParseError(
                    f"expected 2 to 5 columns (E_n P_n channel J v), got "
                    f"{len(cols)}", lineno)
            try:
                energy = float(cols[0])
                prob = float(cols[1])
            except ValueError:
                raise FssParseError(f"bad numeric field in {cols[:2]}", lineno) from None
            channel = 0
            if len(cols) >= 3:
                channel = _parse_quantum(cols[2], "channel", lineno)
                if channel is None:
                    raise FssParseError("channel must be an integer, got '-'",
                                        lineno)
            rot = _parse_quantum(cols[3], "J", lineno) if len(cols) >= 4 else None
            vib = _parse_quantum(cols[4], "v", lineno) if len(cols) >= 5 else None
            try:
                lines.append(FssLine(energy, prob, channel, rot, vib))
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
    finally:
        if close:
            fh.close()
    if not lines:
        raise FssParseError(f"no data rows in {name}")
    energies = [l.energy_ev for l in lines]
    was_sorted = all(a <= b for a, b in zip(energies, energies[1:]))
    prov = {"source": name, "line_count": len(lines)}
    if not was_sorted:
        prov["sorted_on_load"] = True
    return from_lines(lines, q_ref=parsed_q, provenance=prov)


# ---------------------------------------------------------------------------
# cumulative moments

def cumulative_moments(fss: FinalStateSpectrum, eps_ev: float) -> MomentSet:
    """P_eps and the first three energy moments over open channels.

    A channel n is open when E_n < eps (strict).  With no open channel the
    moments are absent, not zero.
    """
    if not np.isfinite(eps_ev):
        raise ValidationError("eps must be finite")
    open_mask = fss.energies < eps_ev
    p_open = float(fss.probabilities[open_mask].sum())
    if p_open == 0.0:
        return MomentSet(eps_ev, 0.0, None, None, None)
    e = fss.energies[open_mask]
    p = fss.probabilities[open_mask]
    m1 = float((p * e).sum() / p_open)
    m2 = float((p * e * e).sum() / p_open)
    m3 = float((p * e * e * e).sum() / p_open)
    return MomentSet(eps_ev, p_open, m1, m2, m3)


def moment_form_spectrum_term(fss: FinalStateSpectrum, eps_ev: float,
                              m2nu_ev2: float = 0.0) -> float:
    """Moment-form spectral term (eV^3):

        P_eps [ eps^3 - 3<E> eps^2 + 3<E^2> eps
                - (3/2) m2nu (eps - <E>) - <E^3> ]

    Algebraically identical to sum_n P_n [eps_n^3 - (3/2) m2nu eps_n]
    over open channels; returns 0 when all channels are closed.
    """
    m = cumulative_moments(fss, eps_ev)
    if not m.open:
        return 0.0
    eps = eps_ev
    return m.p_open * (eps**3 - 3.0 * m.mean_e * eps**2 + 3.0 * m.mean_e2 * eps
                       - 1.5 * m2nu_ev2 * (eps - m.mean_e) - m.mean_e3)


def direct_spectrum_term(fss: FinalStateSpectrum, eps_ev: float,
                         m2nu_ev2: float = 0.0) -> float:
    """Direct line sum sum_n P_n [eps_n^3 - (3/2) m2nu eps_n] theta(eps_n).

    The independent reference for the moment-form identity.
    """
    en = eps_ev - fss.energies
    gate = en > 0.0
    if not gate.any():
        return 0.0
    en = en[gate]
    p = fss.probabilities[gate]
    return float((p * (en**3 - 1.5 * m2nu_ev2 * en)).sum())
