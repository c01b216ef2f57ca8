"""Radial bound/pseudo-state solver on a sinc-DVR grid.

The kinetic operator is the standard uniform-grid sinc DVR matrix, which
converges exponentially for smooth potentials; eigenvalues approach the
exact ones from above as the grid is refined.  States above the channel
dissociation threshold are box-discretized continuum pseudo-states and
are kept rather than dropped.

Every J of a channel comes from one dense J = 0 solve (`rotational_bases`):
sequential diagonalization and truncation, Bacic & Light, Annu. Rev. Phys.
Chem. 40 (1989) 469.  Each J is kept as coefficients in the J = 0 basis,
never mapped back to the grid.  The basis holds K = min(N, max(120,
2 (v_max + 1), 2 (j_max + 1))) J = 0 states.  Each J >= 1 solve costs
O(K^3); this K keeps every level for v_max <= 80 and j_max <= 120 within
2e-10 eV of a 420-state projection.  The J >= 1 solves are independent,
so odd J run on one worker thread while the caller solves even J.  They
go through `numpy.linalg.eigh`, which calls the same LAPACK routine as
scipy's divide-and-conquer driver but releases the GIL for it; with BLAS
on one thread the results do not depend on which thread solved a J.  The
worker runs nothing but eigh and array writes.

The grid check solves the lowest levels again, densely, on every other
point of the grid (its half grid, at twice the step) and requires the two
grids to agree.  With the DVR's exponential convergence (Colbert & Miller,
J. Chem. Phys. 96 (1992) 1982), agreement between N/2 and N points bounds
the N-point error far below either's.  A grid converged at N but not at N/2
fails: the check fails closed.  It never changes the grid's solve.

The initial (T2) ground state lives on the inner part of the grid, so
`solve_initial` solves it on the leading block of the grid Hamiltonian
that holds it.  By Cauchy interlacing (Parlett, The Symmetric Eigenvalue
Problem, 1998) the block's level bounds the grid's from above, and the
zero-padded eigenvector's full-grid residual certifies how close it is.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, toeplitz

from ..errors import AccuracyError
from ..physics import CONSTANTS
from .molecule import MoleculeModel

#: grid check (eV): the lowest 10 J = 0 levels on the grid and on its half
CONVERGENCE_TOL_EV = 1e-8
#: floor on the J = 0 pairs that rotational bases are projected from; with
#: 2 (v_max + 1) alone the default model's J <= 12 levels missed a dense
#: solve per J by 5e-4 eV at v_max 12, with this floor by 7.5e-14 eV and
#: with a floor of 80 by 2.7e-9 eV
PROJECTION_STATES = 120
#: `solve_initial` stops growing its block once the zero-padded ground
#: state chi has |H chi - E chi| / |chi| below this (hartree).  For a
#: residual rho, E lies within rho^2 / gap of the grid's ground level and
#: chi within an angle rho / gap of its eigenvector (Kato-Temple,
#: Davis-Kahan).  The default T2 well's gap is 0.0112 hartree, so the angle
#: is below 1e-11, and so is the change of each normalized overlap
#: <chi_vJ| j_J(qR) |chi_0>, since |j_J| <= 1.  The dense full-grid solve's
#: own residual is 4.9e-15 on the default grid and grows as 1/dR^2, so
#: this bound still certifies blocks on grids with a 4x finer step.
INITIAL_RESIDUAL_HARTREE = 1e-13


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


def _kinetic_column(n: int, step: float, mass_au: float) -> np.ndarray:
    """First column of the sinc-DVR kinetic energy matrix (hartree)."""
    k = np.arange(1, n)
    column = np.concatenate(([np.pi * np.pi / 3.0], 2.0 * (-1.0) ** k / k**2))
    return column / (2.0 * mass_au * step * step)


def kinetic_matrix(n: int, step: float, mass_au: float) -> np.ndarray:
    """Sinc-DVR kinetic energy matrix (hartree), Toeplitz in i - j."""
    return toeplitz(_kinetic_column(n, step, mass_au))


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


def solve_radial(model: MoleculeModel, channel: int = 0, n_states: int = 31,
                 convergence_check: bool = False) -> RadialEigenbasis:
    """Lowest eigenpairs of the J = 0 channel Hamiltonian on the grid.

    With convergence_check=True the lowest k = min(10, n_states) levels are
    also solved densely on the half grid radii[::2], every other grid point
    at twice the step, and must agree with the grid's within
    CONVERGENCE_TOL_EV, else AccuracyError.  The half grid reuses the
    model's potential values, which the model has checked to be finite.
    The basis is the same with or without the check.
    """
    radii = model.grid.radii()
    potential = model.potential(channel)
    w, v = _solve_grid(potential, radii, model.final_mass_au, n_states)
    if convergence_check:
        k = min(10, w.size)
        half, _ = _solve_grid(potential[::2], radii[::2],
                              model.final_mass_au, k)
        drift = np.abs(half - w[:k]).max() * CONSTANTS.hartree_ev
        # `not drift <= tol` so that NaN fails too
        if not drift <= CONVERGENCE_TOL_EV:
            raise AccuracyError(
                f"grid too coarse: the lowest {k} eigenvalues moved "
                f"{drift:.3e} eV between {radii.size} points and its half "
                f"grid (tolerance {CONVERGENCE_TOL_EV:.1e} eV)")
    return RadialEigenbasis(radii=radii, energies_ev=w * CONSTANTS.hartree_ev,
                            wavefunctions=v)


def rotational_bases(model: MoleculeModel, channel: int, j_max: int,
                     v_max: int, convergence_check: bool) -> RotationalBases:
    """Lowest v_max + 1 eigenpairs of channel potential + J(J+1)/(2 M R^2)
    for J = 0 ... j_max, as coefficients in the J = 0 basis.

    One dense J = 0 solve (checked against its half grid when
    convergence_check, `solve_radial`)
    gives the K = min(N, max(PROJECTION_STATES, 2 (v_max + 1),
    2 (j_max + 1))) lowest pairs (E_K, chi_K); with j_max = 0 it solves for
    v_max + 1 pairs only.  The centrifugal term is projected once,
    U_K = chi_K^T diag(1/(2 M R^2)) chi_K dR, and each J >= 1 takes the
    lowest pairs of the K x K problem diag(E_K) + J(J+1) U_K.  J = 0 has
    identity columns.  Odd J are solved on one worker thread and even J on
    the calling thread, each writing its own rows of the result; an error
    in either reaches the caller.

    Largest |E| error (eV) over J <= j_max, v <= v_max on the default
    model, against a 420-state projection; the 2 (j_max + 1) term keeps
    large j_max accurate, where a floor of 120 alone misses by 1.8e-8 eV:

        v_max, j_max    K     |dE|        v_max, j_max    K     |dE|
          12,  12     120   5.7e-14         80,  60     162   9.9e-11
          40,  60     122   1.3e-10         80, 100     202   1.7e-10
          40, 120     242   1.6e-11         80, 120     242   7.4e-11
    """
    n_states = v_max + 1
    k = n_states if j_max == 0 else min(model.grid.points, max(
        PROJECTION_STATES, 2 * n_states, 2 * (j_max + 1)))
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
    """The initial (T2) ground state at J = 0, as a one-state eigenbasis.

    Solved on the leading blocks H[:n, :n] of the grid Hamiltonian for
    n = N/8, N/4, ... up to N; the first whose eigenvector chi, zero-padded
    to the grid, has |H chi - E chi| / |chi| <= INITIAL_RESIDUAL_HARTREE is
    kept (n = 192 of 768 on the default model).  Beyond the block only the
    kinetic coupling T[n:, :n] acts on chi, so the residual needs the N x n
    Toeplitz block, not H.  The wavefunction has N rows, exactly zero beyond
    the block; at n = N this is the full-grid solve, so the rule fails safe.
    """
    radii = model.grid.radii()
    potential = model.initial.potential(radii)
    mass = model.initial_mass_au
    column = _kinetic_column(radii.size, radii[1] - radii[0], mass)
    n = radii.size // 8
    while True:
        w, v = _solve_grid(potential[:n], radii[:n], mass, 1)
        if n == radii.size:
            break
        # (H - E) chi: the N x n kinetic block, then V - E on the block rows
        residual = toeplitz(column, column[:n]) @ v[:, 0]
        residual[:n] += (potential[:n] - w[0]) * v[:, 0]
        if np.linalg.norm(residual) <= INITIAL_RESIDUAL_HARTREE \
                * np.linalg.norm(v):
            v = np.concatenate((v, np.zeros((radii.size - n, 1))))
            break
        n = min(2 * n, radii.size)
    return RadialEigenbasis(radii=radii, energies_ev=w * CONSTANTS.hartree_ev,
                            wavefunctions=v)
