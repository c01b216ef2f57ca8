"""Radial bound/pseudo-state solver on a sinc-DVR grid.

The kinetic operator is the standard uniform-grid sinc DVR matrix, which
converges exponentially for smooth potentials; eigenvalues approach the
exact ones from above as the grid is refined.  States above the channel
dissociation threshold are box-discretized continuum pseudo-states and
are flagged as resonant rather than dropped.

Every J of a channel comes from one dense J = 0 solve (`rotational_bases`):
sequential diagonalization and truncation, Bacic & Light, Annu. Rev. Phys.
Chem. 40 (1989) 469.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh, toeplitz

from ..errors import AccuracyError
from ..physics import CONSTANTS
from .molecule import GridSpec, MoleculeModel

#: N-doubling eigenvalue gate (eV) on the lowest 10 states
CONVERGENCE_TOL_EV = 1e-8
#: floor on the J = 0 pairs that rotational bases are projected from; with
#: 2 (v_max + 1) alone the default model's J <= 12 levels missed a dense
#: solve per J by 5e-4 eV at v_max 12, with the floor by 8e-14 eV
PROJECTION_STATES = 200


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


def _channel_basis(model: MoleculeModel, channel: int, energies_ev: np.ndarray,
                   wavefunctions: np.ndarray) -> RadialEigenbasis:
    ch = model.channels[channel]
    # repulsive: everything is a boxed pseudo-state
    dissociation = ch.morse.depth_ev if ch.kind == "morse" else 0.0
    return RadialEigenbasis(
        radii=model.grid.radii(), energies_ev=energies_ev,
        wavefunctions=wavefunctions,
        n_bound=int(np.searchsorted(energies_ev, dissociation)))


def solve_radial(model: MoleculeModel, channel: int = 0, n_states: int = 31,
                 convergence_check: bool = False) -> RadialEigenbasis:
    """Lowest eigenpairs of the J = 0 channel Hamiltonian on the grid.

    With convergence_check=True the grid is doubled and the lowest 10
    eigenvalues must agree within CONVERGENCE_TOL_EV, else AccuracyError.
    """
    def eigenpairs(grid_model: MoleculeModel, k: int):
        return _solve_grid(grid_model.potential(channel), grid_model.grid.radii(),
                           grid_model.final_mass_au, k)

    w, v = eigenpairs(model, n_states)

    if convergence_check:
        fine = replace(model, grid=GridSpec(
            model.grid.r_min_bohr, model.grid.r_max_bohr, 2 * model.grid.points))
        k = min(10, n_states)
        wf, _ = eigenpairs(fine, k)
        drift = np.abs(w[:k] - wf[:k]).max() * CONSTANTS.hartree_ev
        if drift > CONVERGENCE_TOL_EV:
            raise AccuracyError(
                f"grid too coarse: eigenvalues moved {drift:.3e} eV on doubling "
                f"(tolerance {CONVERGENCE_TOL_EV:.1e} eV)")
    return _channel_basis(model, channel, w * CONSTANTS.hartree_ev, v)


def rotational_bases(model: MoleculeModel, channel: int, j_max: int,
                     v_max: int, convergence_check: bool
                     ) -> list[RadialEigenbasis]:
    """Lowest v_max + 1 eigenpairs of channel potential + J(J+1)/(2 M R^2)
    for J = 0 ... j_max, indexed by J.

    One dense J = 0 solve (with the N-doubling gate when convergence_check)
    gives the K = min(N, max(PROJECTION_STATES, 2 (v_max + 1))) lowest pairs
    (E_K, chi_K); with j_max = 0 it solves for v_max + 1 pairs only.  The
    centrifugal term is projected once, U_K = chi_K^T diag(1/(2 M R^2)) chi_K
    dR, and each J >= 1 takes the lowest pairs of the K x K problem
    diag(E_K) + J(J+1) U_K, mapped back to the grid with chi_K.
    """
    n_states = v_max + 1
    k = n_states if j_max == 0 else min(model.grid.points, max(
        PROJECTION_STATES, 2 * n_states))
    base = solve_radial(model, channel=channel, n_states=k,
                        convergence_check=convergence_check)
    chi = base.wavefunctions
    centrifugal = CONSTANTS.hartree_ev / (2.0 * model.final_mass_au
                                          * base.radii**2)
    projected = chi.T @ (centrifugal[:, None] * chi) * base.step
    bases = [_channel_basis(model, channel, base.energies_ev[:n_states],
                            chi[:, :n_states])]
    for j in range(1, j_max + 1):
        # all K pairs by divide and conquer: faster here than a subset solve
        w, c = eigh(np.diag(base.energies_ev) + j * (j + 1) * projected,
                    driver="evd")
        bases.append(_channel_basis(model, channel, w[:n_states],
                                    chi @ c[:, :n_states]))
    return bases


def solve_initial(model: MoleculeModel,
                  n_states: int = 1) -> RadialEigenbasis:
    """Eigenbasis of the initial (T2 ground) curve at J = 0."""
    hart = CONSTANTS.hartree_ev
    radii = model.grid.radii()
    pot = model.initial.potential(radii)
    w, v = _solve_grid(pot, radii, model.initial_mass_au, n_states)
    n_bound = int(np.searchsorted(w, model.initial.depth_ev / hart))
    return RadialEigenbasis(radii=radii, energies_ev=w * hart, wavefunctions=v,
                            n_bound=n_bound)
