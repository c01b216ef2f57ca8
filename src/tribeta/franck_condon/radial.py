"""Radial bound/pseudo-state solver on a sinc-DVR grid.

The kinetic operator is the standard uniform-grid sinc DVR matrix, which
converges exponentially for smooth potentials; eigenvalues approach the
exact ones from above as the grid is refined.  States above the channel
dissociation threshold are box-discretized continuum pseudo-states and
are flagged as resonant rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh, toeplitz

from ..errors import AccuracyError, ValidationError
from ..physics import CONSTANTS
from .molecule import GridSpec, MoleculeModel

#: default N-doubling eigenvalue gate (eV) on the lowest 10 states
CONVERGENCE_TOL_EV = 1e-8


@dataclass(frozen=True)
class RadialEigenbasis:
    """Eigenpairs of a 1-D radial Hamiltonian on the grid.

    Wavefunctions are columns, normalized so that sum(chi^2) * dr = 1.
    Energies are in eV, measured from the channel potential minimum.
    """

    radii: np.ndarray
    energies_ev: np.ndarray
    wavefunctions: np.ndarray
    n_bound: int
    channel: int
    rotation: int

    @property
    def step(self) -> float:
        return float(self.radii[1] - self.radii[0])


def kinetic_matrix(n: int, step: float, mass_au: float) -> np.ndarray:
    """Sinc-DVR kinetic energy matrix (hartree)."""
    k = np.arange(1, n)
    column = np.concatenate(([np.pi * np.pi / 3.0], 2.0 * (-1.0) ** k / k**2))
    return toeplitz(column) / (2.0 * mass_au * step * step)


def _solve_grid(potential: np.ndarray, radii: np.ndarray, mass_au: float,
                n_states: int) -> tuple[np.ndarray, np.ndarray]:
    n = radii.size
    step = radii[1] - radii[0]
    h = kinetic_matrix(n, step, mass_au)
    h[np.diag_indices(n)] += potential
    n_states = min(n_states, n)
    w, v = eigh(h, subset_by_index=[0, n_states - 1])
    # unit norm with the grid measure
    return w, v / np.sqrt(step)


def solve_radial(model: MoleculeModel, channel: int = 0, rotation: int = 0,
                 n_states: int = 31, convergence_check: bool = False,
                 convergence_tol_ev: float = CONVERGENCE_TOL_EV
                 ) -> RadialEigenbasis:
    """Eigenbasis of channel potential + centrifugal term J(J+1)/(2 M R^2).

    With convergence_check=True the grid is doubled and the lowest 10
    eigenvalues must agree within convergence_tol_ev, else AccuracyError.
    """
    if rotation < 0:
        raise ValidationError("rotation quantum number must be >= 0")
    hart = CONSTANTS.hartree_ev

    def eigenpairs(grid_model: MoleculeModel, k: int):
        radii = grid_model.grid.radii()
        pot = grid_model.potential(channel)
        if rotation:
            pot = pot + rotation * (rotation + 1) / (
                2.0 * grid_model.final_mass_au * radii**2)
        return _solve_grid(pot, radii, grid_model.final_mass_au, k)

    w, v = eigenpairs(model, n_states)

    if convergence_check:
        fine = replace(model, grid=GridSpec(
            model.grid.r_min_bohr, model.grid.r_max_bohr, 2 * model.grid.points))
        k = min(10, n_states)
        wf, _ = eigenpairs(fine, k)
        drift = np.abs(w[:k] - wf[:k]).max() * hart
        if drift > convergence_tol_ev:
            raise AccuracyError(
                f"grid too coarse: eigenvalues moved {drift:.3e} eV on doubling "
                f"(tolerance {convergence_tol_ev:.1e} eV)")

    ch = model.channels[channel]
    if ch.kind == "morse":
        dissociation = ch.morse.depth_ev / hart
    else:
        dissociation = 0.0  # repulsive: everything is a boxed pseudo-state
    n_bound = int(np.searchsorted(w, dissociation))
    return RadialEigenbasis(radii=model.grid.radii(), energies_ev=w * hart,
                            wavefunctions=v, n_bound=n_bound, channel=channel,
                            rotation=rotation)


def solve_initial(model: MoleculeModel,
                  n_states: int = 1) -> RadialEigenbasis:
    """Eigenbasis of the initial (T2 ground) curve at J = 0."""
    hart = CONSTANTS.hartree_ev
    radii = model.grid.radii()
    pot = model.initial.potential(radii)
    w, v = _solve_grid(pot, radii, model.initial_mass_au, n_states)
    n_bound = int(np.searchsorted(w, model.initial.depth_ev / hart))
    return RadialEigenbasis(radii=radii, energies_ev=w * hart, wavefunctions=v,
                            n_bound=n_bound, channel=-1, rotation=0)
