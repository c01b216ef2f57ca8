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
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..physics import CONSTANTS


@dataclass(frozen=True)
class MorseParams:
    """V(R) = D_e (1 - exp(-a (R - R_e)))^2, zero at the minimum."""

    depth_ev: float
    steepness_inv_bohr: float
    r_eq_bohr: float

    def __post_init__(self):
        if self.depth_ev <= 0 or self.steepness_inv_bohr <= 0 or self.r_eq_bohr <= 0:
            raise ValidationError("Morse parameters must be positive")

    def potential(self, radii: np.ndarray) -> np.ndarray:
        """V(R) on the given radii, in hartree."""
        return (self.depth_ev / CONSTANTS.hartree_ev) * (
            1.0 - np.exp(-self.steepness_inv_bohr * (radii - self.r_eq_bohr))) ** 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid (bohr)."""

    r_min_bohr: float = 0.3
    r_max_bohr: float = 12.0
    points: int = 768

    def __post_init__(self):
        if self.points < 256:
            raise ValidationError("grid must have at least 256 points")
        if self.r_max_bohr <= self.r_min_bohr:
            raise ValidationError("r_max must exceed r_min")

    def radii(self) -> np.ndarray:
        return np.linspace(self.r_min_bohr, self.r_max_bohr, self.points)

    @property
    def step(self) -> float:
        return (self.r_max_bohr - self.r_min_bohr) / (self.points - 1)


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
    """Initial curve, final channels, masses and the radial grid."""

    initial: MorseParams
    channels: tuple[Channel, ...]
    initial_mass_au: float = CONSTANTS.t2_reduced
    final_mass_au: float = CONSTANTS.reduced_t_he3
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.initial_mass_au <= 0 or self.final_mass_au <= 0:
            raise ValidationError("reduced masses must be positive")
        if not self.channels:
            raise ValidationError("at least one final channel is required")
        if self.channels[0].kind != "morse":
            raise ConfigurationError(
                "channel 0 must be a Morse well (it sets the energy reference)")
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
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "MoleculeModel":
        try:
            initial = MorseParams(**d["initial"])
            channels = []
            for c in d["channels"]:
                c = dict(c)
                morse = c.pop("morse", None)
                channels.append(Channel(
                    morse=MorseParams(**morse) if morse else None, **c))
            grid = GridSpec(**d.get("grid", {}))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"bad molecule model document: {exc}") from exc
        return cls(initial=initial, channels=tuple(channels),
                   initial_mass_au=d.get("initial_mass_au", CONSTANTS.t2_reduced),
                   final_mass_au=d.get("final_mass_au", CONSTANTS.reduced_t_he3),
                   grid=grid)

    @classmethod
    def from_json(cls, text: str) -> "MoleculeModel":
        return cls.from_dict(json.loads(text))


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


def default_model(grid: Optional[GridSpec] = None) -> MoleculeModel:
    """Calibrated T2 -> T3He+ model with a lumped excited-electronic tail."""
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
        grid=grid or GridSpec(),
    )
