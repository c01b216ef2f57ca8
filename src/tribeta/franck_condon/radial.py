"""Radial bound/pseudo-state solver on a sinc-DVR grid.

The kinetic operator is the standard uniform-grid sinc DVR matrix, which
converges exponentially for smooth potentials; eigenvalues approach the
exact ones from above as the grid is refined.  States above the channel
dissociation threshold are box-discretized continuum pseudo-states and
are kept rather than dropped.

Every J of a channel comes from one dense J = 0 solve (`rotational_bases`):
sequential diagonalization and truncation, Bacic & Light, Annu. Rev. Phys.
Chem. 40 (1989) 469.  Each J is kept as coefficients in the J = 0 basis,
never mapped back to the grid.  The J >= 1 solves are independent, so odd J
run on one worker thread while the caller solves even J.  They go through
`numpy.linalg.eigh`, which calls the same LAPACK routine as scipy's
divide-and-conquer driver but releases the GIL for it; with BLAS on one
thread the results do not depend on which thread solved a J.  The worker
runs nothing but eigh and array writes.

The N-doubling gate needs only the lowest eigenvalues of the doubled grid
and gets them by shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35
(1980) 1251), not a dense solve.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve, toeplitz

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

    @property
    def step(self) -> float:
        return float(self.radii[1] - self.radii[0])


@dataclass(frozen=True)
class RotationalBases:
    """J = 0 ... j_max eigenpairs of one channel in its J = 0 basis.

    The grid wavefunctions of J are chi @ coefficients[J] (N x (v_max + 1));
    energies_ev[J] are measured from the channel potential minimum.
    """

    chi: np.ndarray             # N x K, J = 0 eigenvectors, grid-normalized
    energies_ev: np.ndarray     # (j_max + 1) x (v_max + 1)
    coefficients: np.ndarray    # (j_max + 1) x K x (v_max + 1)


def kinetic_matrix(n: int, step: float, mass_au: float) -> np.ndarray:
    """Sinc-DVR kinetic energy matrix (hartree)."""
    k = np.arange(1, n)
    column = np.concatenate(([np.pi * np.pi / 3.0], 2.0 * (-1.0) ** k / k**2))
    return toeplitz(column) / (2.0 * mass_au * step * step)


def _hamiltonian(potential: np.ndarray, radii: np.ndarray,
                 mass_au: float) -> np.ndarray:
    """Dense grid Hamiltonian (hartree), exactly symmetric."""
    h = kinetic_matrix(radii.size, radii[1] - radii[0], mass_au)
    h[np.diag_indices(radii.size)] += potential
    return h


def _solve_grid(potential: np.ndarray, radii: np.ndarray, mass_au: float,
                n_states: int) -> tuple[np.ndarray, np.ndarray]:
    h = _hamiltonian(potential, radii, mass_au)
    n_states = min(n_states, radii.size)
    # h is exactly symmetric: LAPACK overwrites its F-ordered view h.T in
    # place, where a C-ordered h would be copied first (4.7 MB at N = 768)
    w, v = eigh(h.T, subset_by_index=[0, n_states - 1], overwrite_a=True)
    # unit norm with the grid measure
    return w, v / np.sqrt(radii[1] - radii[0])


def _lowest_levels(potential: np.ndarray, radii: np.ndarray, mass_au: float,
                   k: int) -> np.ndarray:
    """Lowest k eigenvalues (hartree) by shift-invert Lanczos about
    sigma = min V, a strict lower bound of the spectrum because the sinc-DVR
    kinetic matrix is positive definite.  Non-convergence is AccuracyError.
    """
    # imported here: at module level it adds about 0.03 s to every command
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
    n = radii.size
    h = _hamiltonian(potential, radii, mass_au)
    sigma = potential.min()
    h[np.diag_indices(n)] -= sigma
    # h is exactly symmetric, so its F-ordered view h.T is the same matrix
    # and LAPACK factors it in place; a C-ordered h would be copied (19 MB)
    lu = lu_factor(h.T, overwrite_a=True)
    # lu_factor checked h for non-finite entries; ARPACK supplies the x
    inverse = LinearOperator(
        (n, n), dtype=float,
        matvec=lambda x: lu_solve(lu, x, check_finite=False))
    try:
        # in shift-invert mode eigsh reads only the shape and dtype of A
        w = eigsh(inverse, k, sigma=sigma, OPinv=inverse, v0=np.ones(n),
                  return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise AccuracyError(
            f"grid check failed: shift-invert Lanczos on the doubled grid "
            f"did not converge ({exc})") from None
    return np.sort(w)


def solve_radial(model: MoleculeModel, channel: int = 0, n_states: int = 31,
                 convergence_check: bool = False) -> RadialEigenbasis:
    """Lowest eigenpairs of the J = 0 channel Hamiltonian on the grid.

    With convergence_check=True the grid is doubled and the lowest 10
    eigenvalues must agree within CONVERGENCE_TOL_EV, else AccuracyError;
    the doubled grid is solved for those eigenvalues only (`_lowest_levels`).
    """
    radii = model.grid.radii()
    w, v = _solve_grid(model.potential(channel), radii, model.final_mass_au,
                       n_states)

    if convergence_check:
        fine = replace(model, grid=GridSpec(
            model.grid.r_min_bohr, model.grid.r_max_bohr, 2 * model.grid.points))
        k = min(10, n_states)
        wf = _lowest_levels(fine.potential(channel), fine.grid.radii(),
                            fine.final_mass_au, k)
        drift = np.abs(w[:k] - wf).max() * CONSTANTS.hartree_ev
        if drift > CONVERGENCE_TOL_EV:
            raise AccuracyError(
                f"grid too coarse: eigenvalues moved {drift:.3e} eV on doubling "
                f"(tolerance {CONVERGENCE_TOL_EV:.1e} eV)")
    return RadialEigenbasis(radii=radii, energies_ev=w * CONSTANTS.hartree_ev,
                            wavefunctions=v)


def rotational_bases(model: MoleculeModel, channel: int, j_max: int,
                     v_max: int, convergence_check: bool) -> RotationalBases:
    """Lowest v_max + 1 eigenpairs of channel potential + J(J+1)/(2 M R^2)
    for J = 0 ... j_max, as coefficients in the J = 0 basis.

    One dense J = 0 solve (with the N-doubling gate when convergence_check)
    gives the K = min(N, max(PROJECTION_STATES, 2 (v_max + 1))) lowest pairs
    (E_K, chi_K); with j_max = 0 it solves for v_max + 1 pairs only.  The
    centrifugal term is projected once, U_K = chi_K^T diag(1/(2 M R^2)) chi_K
    dR, and each J >= 1 takes the lowest pairs of the K x K problem
    diag(E_K) + J(J+1) U_K.  J = 0 has identity columns.  Odd J are solved
    on one worker thread and even J on the calling thread, each writing its
    own rows of the result; an error in either reaches the caller.
    """
    n_states = v_max + 1
    k = n_states if j_max == 0 else min(model.grid.points, max(
        PROJECTION_STATES, 2 * n_states))
    base = solve_radial(model, channel=channel, n_states=k,
                        convergence_check=convergence_check)
    chi = base.wavefunctions
    n_states = min(n_states, chi.shape[1])
    centrifugal = CONSTANTS.hartree_ev / (2.0 * model.final_mass_au
                                          * base.radii**2)
    projected = chi.T @ (centrifugal[:, None] * chi) * base.step
    energies = np.empty((j_max + 1, n_states))
    coefficients = np.empty((j_max + 1, chi.shape[1], n_states))
    energies[0] = base.energies_ev[:n_states]
    coefficients[0] = np.eye(chi.shape[1], n_states)

    def solve(j: int) -> None:
        # all K pairs by divide and conquer (dsyevd): faster here than a
        # subset solve; numpy's eigh releases the GIL, scipy's does not
        w, c = np.linalg.eigh(np.diag(base.energies_ev)
                              + j * (j + 1) * projected)
        energies[j] = w[:n_states]
        coefficients[j] = c[:, :n_states]

    # odd J on one worker thread, even J here; each J writes only its rows
    with ThreadPoolExecutor(max_workers=1) as worker:
        odd = worker.map(solve, range(1, j_max + 1, 2))
        for j in range(2, j_max + 1, 2):
            solve(j)
        list(odd)  # waits for the worker and re-raises its error
    return RotationalBases(chi, energies, coefficients)


def solve_initial(model: MoleculeModel) -> RadialEigenbasis:
    """The initial (T2) ground state at J = 0, as a one-state eigenbasis."""
    radii = model.grid.radii()
    w, v = _solve_grid(model.initial.potential(radii), radii,
                       model.initial_mass_au, 1)
    return RadialEigenbasis(radii=radii, energies_ev=w * CONSTANTS.hartree_ev,
                            wavefunctions=v)
