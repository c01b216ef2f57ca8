"""Synthetic final-state spectra from sudden-approximation recoil overlaps."""

from .bessel import spherical_jn_table
from .molecule import (Channel, GridSpec, MoleculeModel, MorseParams,
                       default_model, GROUND_CHANNEL_WEIGHT, IONIC_GROUND,
                       T2_INITIAL)
from .overlaps import (TRUNCATION_WARN_FRACTION, RecoilEngine,
                       check_recoil_momentum, rotational_shift_ev,
                       truncation_warned)
from .radial import (CONVERGENCE_TOL_EV, RadialEigenbasis, RotationalBases,
                     kinetic_matrix, rotational_bases, solve_initial,
                     solve_radial)

__all__ = [
    "Channel", "GridSpec", "MoleculeModel", "MorseParams", "RadialEigenbasis",
    "RecoilEngine", "RotationalBases", "check_recoil_momentum",
    "default_model", "kinetic_matrix", "rotational_bases",
    "rotational_shift_ev", "solve_initial", "solve_radial",
    "spherical_jn_table", "truncation_warned", "CONVERGENCE_TOL_EV",
    "GROUND_CHANNEL_WEIGHT", "IONIC_GROUND", "T2_INITIAL",
    "TRUNCATION_WARN_FRACTION",
]
