"""Molecular model for synthetic final-state spectra.

The initial state is the ground rovibrational level of a Morse curve
(T2).  Final electronic channels are Morse wells, repulsive Z_eff/R
curves, or lumped single lines.  Morse parameters for the ionic ground
channel are calibrated against the published vibrational overlap pattern
rather than taken from any one ab initio surface.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from ..errors import (ConfigurationError, ValidationError, document_text,
                      naming)
from ..physics import CONSTANTS


@dataclass(frozen=True)
class MorseParams:
    """V(R) = D_e (1 - exp(-a (R - R_e)))^2, zero at the minimum."""

    depth_ev: float
    steepness_inv_bohr: float
    r_eq_bohr: float

    def __post_init__(self):
        # `not 0 < x < inf` so that NaN fails too
        if not all(0.0 < x < math.inf for x in (
                self.depth_ev, self.steepness_inv_bohr, self.r_eq_bohr)):
            raise ValidationError("Morse parameters must be finite and positive")

    def potential(self, radii: np.ndarray) -> np.ndarray:
        """V(R) on the given radii, in hartree."""
        return (self.depth_ev / CONSTANTS.hartree_ev) * (
            1.0 - np.exp(-self.steepness_inv_bohr * (radii - self.r_eq_bohr))) ** 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid (bohr); r_min > 0, where 1/R^2 is finite."""

    r_min_bohr: float = 0.3
    r_max_bohr: float = 12.0
    points: int = 768

    def __post_init__(self):
        if self.points < 256:
            raise ValidationError("grid must have at least 256 points")
        if not 0.0 < self.r_min_bohr < self.r_max_bohr < math.inf:
            raise ValidationError("grid radii need 0 < r_min < r_max < inf")

    def radii(self) -> np.ndarray:
        return np.linspace(self.r_min_bohr, self.r_max_bohr, self.points)


@dataclass(frozen=True)
class Channel:
    """One final electronic channel."""

    kind: str                 # 'morse' | 'coulomb' | 'line'
    weight: float             # electronic weight w_c
    offset_ev: float = 0.0    # electronic excitation offset Delta E_c
    morse: Optional[MorseParams] = None
    z_eff: float = 2.0        # for 'coulomb': V = z_eff / R (a.u.)
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValidationError("channel weight must lie in [0, 1]")
        if not (abs(self.offset_ev) < math.inf and abs(self.z_eff) < math.inf):
            raise ValidationError("channel offset_ev and z_eff must be finite")
        if self.kind == "morse":
            if self.morse is None:
                raise ConfigurationError("morse channel needs MorseParams")
        elif self.kind == "coulomb":
            if self.z_eff <= 0.0:
                raise ConfigurationError("coulomb channel needs z_eff > 0")
        elif self.kind != "line":
            raise ConfigurationError(f"unknown channel kind {self.kind!r}")


@dataclass(frozen=True)
class MoleculeModel:
    """Initial curve, final channels, masses and the radial grid.  The
    initial and every channel potential are finite on the grid."""

    initial: MorseParams
    channels: tuple[Channel, ...]
    initial_mass_au: float = CONSTANTS.t2_reduced
    final_mass_au: float = CONSTANTS.reduced_t_he3
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if not (0.0 < self.initial_mass_au < math.inf
                and 0.0 < self.final_mass_au < math.inf):
            raise ValidationError("reduced masses must be finite and positive")
        if not self.channels:
            raise ValidationError("at least one final channel is required")
        if self.channels[0].kind != "morse" or self.channels[0].weight == 0.0:
            raise ConfigurationError(
                "channel 0 must be a Morse well with weight > 0 (its v = 0, "
                "J = 0 level sets the energy reference)")
        total = sum(c.weight for c in self.channels)
        if total > 1.0 + 1e-9:
            raise ValidationError(f"channel weights sum to {total} > 1")
        for params in [self.initial] + [c.morse for c in self.channels
                                        if c.kind == "morse"]:
            reach = params.r_eq_bohr + 10.0 / params.steepness_inv_bohr
            if self.grid.r_max_bohr <= reach:
                raise ValidationError(
                    f"grid r_max {self.grid.r_max_bohr} too small; "
                    f"need > R_e + 10/a = {reach:.2f} bohr")
        with np.errstate(all="ignore"):  # a steep Morse wall overflows
            curves = [("initial", self.initial.potential(self.grid.radii()))]
            curves += [(f"channel {i} ({c.label or c.kind})", self.potential(i))
                       for i, c in enumerate(self.channels) if c.kind != "line"]
        for name, values in curves:
            if not np.isfinite(values).all():
                raise ValidationError(
                    f"{name} potential is not finite on the grid")

    def potential(self, channel: int) -> np.ndarray:
        """Channel potential on the grid, in hartree."""
        ch = self.channels[channel]
        r = self.grid.radii()
        if ch.kind == "morse":
            return ch.morse.potential(r)
        if ch.kind == "coulomb":
            return ch.z_eff / r
        raise ConfigurationError(f"channel {channel} has no potential (kind 'line')")

    def parameter_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return document_text(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict, source: str) -> "MoleculeModel":
        """The model in a `to_dict` document; a bad key or value is a
        ConfigurationError naming `source` and the section it is in."""
        with naming(f"{source} initial"):
            initial = MorseParams(**d["initial"])
        with naming(f"{source} channels"):
            entries = [{"morse": None, **c} for c in d.get("channels", ())]
        channels = []
        for i, c in enumerate(entries):
            with naming(f"{source} channels[{i}] morse"):
                morse = None if c["morse"] is None else MorseParams(**c["morse"])
            with naming(f"{source} channels[{i}]"):
                channels.append(Channel(**{**c, "morse": morse}))
        with naming(f"{source} grid"):
            grid = GridSpec(**d.get("grid", {}))
        with naming(source):
            return cls(**{**d, "initial": initial, "channels": tuple(channels),
                          "grid": grid})


# T2 ground curve: D_e and R_e from the hydrogen BO surface, a matched to
# omega_e(T2) = 2546 cm^-1.  Ionic ground channel: HeH+-like depth and
# steepness; R_e calibrated to the published v=0..3 overlap pattern and the
# commutator spectral-power bound.  Excited electronic weight lumped into
# two lines around the 25-45 eV group.
T2_INITIAL = MorseParams(depth_ev=4.747, steepness_inv_bohr=1.0298,
                         r_eq_bohr=1.4011)
IONIC_GROUND = MorseParams(depth_ev=2.04, steepness_inv_bohr=1.30,
                           r_eq_bohr=1.290)
GROUND_CHANNEL_WEIGHT = 0.574


def default_model() -> MoleculeModel:
    """Calibrated T2 -> T3He+ model with a lumped excited-electronic tail,
    on the default 768-point grid."""
    return MoleculeModel(
        initial=T2_INITIAL,
        channels=(
            Channel(kind="morse", weight=GROUND_CHANNEL_WEIGHT, offset_ev=0.0,
                    morse=IONIC_GROUND, label="ionic ground"),
            Channel(kind="line", weight=0.330, offset_ev=27.0,
                    label="excited group"),
            Channel(kind="line", weight=0.096, offset_ev=42.0,
                    label="excited tail"),
        ),
    )
