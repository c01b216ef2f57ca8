"""Physical constants, kinematics and the Fermi Coulomb factor.

Energies on external interfaces are in eV; overlap integrals and radial
grids use atomic units (hartree, bohr).  Conversions are centralized here.

Constant values are pinned literals (CODATA 2018) rather than runtime
lookups so that results are reproducible independent of the installed
scipy version.  Every computation reads the one module-level `CONSTANTS`;
no function takes a constants argument.  The one way to change the values
is the TRIBETA_CONSTANTS environment variable, naming a JSON file with
`Constants` field names (read by `load_constants` at import; a bad file
is a ConfigurationError naming it, which `tribeta.cli` turns into exit 1
and one `error:` line).  It is process-wide, and process-pool workers
inherit it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError, naming, read_document

#: environment variable naming an alternative constants JSON file
CONSTANTS_ENV_VAR = "TRIBETA_CONSTANTS"


@dataclass(frozen=True)
class Constants:
    """Versioned physical constants (CODATA 2018 unless overridden)."""

    version: str = "codata2018-r1"
    # electron rest energy (eV)
    electron_mass_ev: float = 510998.95000
    # fine-structure constant
    fine_structure: float = 7.2973525693e-3
    # hartree -> eV
    hartree_ev: float = 27.211386245988
    # bohr radius (m)
    bohr_m: float = 5.29177210903e-11
    # nuclear masses in electron-mass units
    triton_electron_ratio: float = 5496.92153573
    helion_electron_ratio: float = 5495.88528007
    proton_electron_ratio: float = 1836.15267343

    def __post_init__(self):
        if not (510998.0 <= self.electron_mass_ev <= 511000.0):
            raise ValidationError(
                f"electron rest energy {self.electron_mass_ev} eV outside [510998, 511000]")
        for name in ("triton_electron_ratio", "helion_electron_ratio",
                     "proton_electron_ratio"):
            if getattr(self, name) <= 1000.0:
                raise ValidationError(f"{name} must exceed 1000")

    @property
    def reduced_t_he3(self) -> float:
        """Reduced nuclear mass of the T-3He pair (electron masses)."""
        mt, mh = self.triton_electron_ratio, self.helion_electron_ratio
        return mt * mh / (mt + mh)

    @property
    def t2_reduced(self) -> float:
        """Reduced nuclear mass of T2 (electron masses)."""
        return self.triton_electron_ratio / 2.0

    @property
    def momentum_au_ev(self) -> float:
        """One atomic unit of momentum expressed as p*c in eV."""
        return self.electron_mass_ev * self.fine_structure

    def as_dict(self) -> dict:
        d = asdict(self)
        d["derived"] = {
            "reduced_t_he3": self.reduced_t_he3,
            "t2_reduced": self.t2_reduced,
            "momentum_au_ev": self.momentum_au_ev,
        }
        return d


def load_constants(path: str) -> Constants:
    """Load a constants override file (JSON with the Constants field names).

    A missing, malformed or invalid file is a ConfigurationError naming it.
    """
    try:
        raw = read_document(path)
    except OSError as exc:
        raise ConfigurationError(f"constants file {path}: {exc}") from None
    except ConfigurationError as exc:  # its message starts with the path
        raise ConfigurationError(f"constants file {exc}") from None
    raw.pop("derived", None)
    with naming(f"constants file {path}"):
        return Constants(**raw)


def _default_constants() -> Constants:
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        return load_constants(path)
    return Constants()


#: single authoritative instance used everywhere by default
CONSTANTS = _default_constants()


class Kinematics(NamedTuple):
    """Relativistic kinematics of a beta electron."""

    total_energy_ev: float    # E_beta = epsilon_beta + m_e c^2
    momentum_ev: float        # p_beta * c in eV
    recoil_q_au: float        # q = p_beta/2 in atomic units


def momentum_from_kinetic(kinetic_ev: float) -> Kinematics:
    """Momentum (eV/c) and recoil q (a.u.) for a given kinetic energy.

    (p c)^2 = eps (eps + 2 m_e c^2) exactly; the recoil momentum q is half
    the electron momentum, converted to atomic units.
    """
    if kinetic_ev < 0.0:
        raise ValidationError(f"kinetic energy must be >= 0, got {kinetic_ev}")
    me = CONSTANTS.electron_mass_ev
    pc = math.sqrt(kinetic_ev * (kinetic_ev + 2.0 * me))
    return Kinematics(
        total_energy_ev=kinetic_ev + me,
        momentum_ev=pc,
        recoil_q_au=0.5 * pc / CONSTANTS.momentum_au_ev,
    )


def fermi_factor(momentum_ev, z_daughter: int = 2):
    """Nonrelativistic Coulomb (Fermi) factor F = 2 pi eta / (1 - exp(-2 pi eta)).

    eta = Z alpha E_beta / (p_beta c) is the Sommerfeld parameter built from
    the electron velocity beta = p c / E.  Vectorized over momentum.
    """
    p = np.asarray(momentum_ev, dtype=float)
    if np.any(p <= 0.0):
        raise ValidationError("fermi_factor requires p > 0 (diverges at rest)")
    if z_daughter < 1:
        raise ValidationError("nuclear charge must be >= 1")
    me = CONSTANTS.electron_mass_ev
    energy = np.sqrt(p * p + me * me)
    eta = z_daughter * CONSTANTS.fine_structure * energy / p
    x = 2.0 * np.pi * eta
    out = x / (-np.expm1(-x))
    if np.ndim(momentum_ev) == 0:
        return float(out)
    return out

