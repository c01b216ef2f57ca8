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

The N-doubling gate needs only the lowest eigenvalues of the doubled grid
and gets them by a shift-invert block Lanczos (Ericsson & Ruhe, Math.
Comp. 35 (1980) 1251; Golub & Underwood, Mathematical Software III, 1977),
not a dense solve.  Seeded with the coarse eigenvectors it needs 4 block
solves with the doubled grid's LU factors on the default grid.  The LU
runs on one worker thread while the calling thread solves the coarse grid.
Its Ritz values bound the doubled-grid levels from above, index by index,
and its residuals bound them from below, so the gate fails closed: a
coarse level above its Ritz level by more than the tolerance fails at
once, and a pass needs drift plus residual bound within the tolerance at
every level.  The gate never changes the coarse solve.

The initial (T2) ground state lives on the inner part of the grid, so
`solve_initial` solves it on the leading block of the grid Hamiltonian
that holds it.  By Cauchy interlacing (Parlett, The Symmetric Eigenvalue
Problem, 1998) the block's level bounds the grid's from above, and the
zero-padded eigenvector's full-grid residual certifies how close it is.
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
#: the gate's Lanczos stops once every level's residual bound is within
#: this (eV); the bound floors near 2-3e-9 eV at 2048 points
LANCZOS_STOP_EV = 5e-9
#: block Lanczos steps before the gate reports non-convergence
LANCZOS_MAX_STEPS = 20
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


def _lowest_levels(lu: tuple, sigma: float, seed: np.ndarray,
                   coarse: np.ndarray) -> np.ndarray:
    """The N-doubling gate: the lowest k = seed.shape[1] eigenvalues
    (hartree) of the doubled-grid Hamiltonian H against the coarse levels.

    Block Lanczos on (H - sigma)^-1, `lu` its factors and sigma = min V a
    strict lower bound of the spectrum (the sinc-DVR kinetic matrix is
    positive definite), from the coarse eigenvectors interpolated onto the
    doubled grid.  Every step adds the next block of the Krylov space,
    orthogonalized twice against the whole basis, and takes Ritz pairs
    (theta_i, y_i) of the basis (Rayleigh-Ritz).  theta_i lies below the
    i-th largest eigenvalue of (H - sigma)^-1 (Cauchy interlacing) and
    within the residual norm |(H - sigma)^-1 y_i - theta_i y_i| of some
    eigenvalue, which from a seed this close to the lowest levels is the
    i-th.  So the level sigma + 1/theta_i bounds the i-th doubled-grid
    level from above and lies above it by at most |residual| / theta_i^2.

    Fails as soon as a coarse level lies more than CONVERGENCE_TOL_EV above
    its Ritz level; stops once every bound is within LANCZOS_STOP_EV, and
    passes when every coarse level's drift plus its bound is within
    CONVERGENCE_TOL_EV.  AccuracyError on failure, and when the bounds are
    not met within LANCZOS_MAX_STEPS steps or before the basis would
    outgrow the grid.
    """
    n, k = seed.shape
    block = np.linalg.qr(seed)[0]
    basis = np.empty((n, 0))
    images = np.empty((n, 0))  # (H - sigma)^-1 basis
    for _ in range(LANCZOS_MAX_STEPS):
        image = lu_solve(lu, block, check_finite=False)
        basis = np.hstack((basis, block))
        images = np.hstack((images, image))
        projected = basis.T @ images
        theta, ritz = np.linalg.eigh(0.5 * (projected + projected.T))
        # the k largest, so the k lowest levels in ascending order
        theta, ritz = theta[::-1][:k], ritz[:, ::-1][:, :k]
        residual = np.linalg.norm(images @ ritz - basis @ ritz * theta, axis=0)
        levels = sigma + 1.0 / theta
        moved = (coarse - levels) * CONSTANTS.hartree_ev
        bound = residual / theta**2 * CONSTANTS.hartree_ev
        done = bound.max() <= LANCZOS_STOP_EV
        drift = (np.abs(moved) + bound).max() if done else moved.max()
        if drift > CONVERGENCE_TOL_EV:
            raise AccuracyError(
                f"grid too coarse: eigenvalues moved {drift:.3e} eV on "
                f"doubling (tolerance {CONVERGENCE_TOL_EV:.1e} eV)")
        if done:
            return levels
        if basis.shape[1] + k > n:
            break
        for _ in range(2):
            image -= basis @ (basis.T @ image)
        block = np.linalg.qr(image)[0]
    raise AccuracyError(
        f"grid check failed: block Lanczos on the doubled grid did not "
        f"converge (residual bound {bound.max():.1e} eV after "
        f"{basis.shape[1]} vectors)")


def solve_radial(model: MoleculeModel, channel: int = 0, n_states: int = 31,
                 convergence_check: bool = False) -> RadialEigenbasis:
    """Lowest eigenpairs of the J = 0 channel Hamiltonian on the grid.

    With convergence_check=True the grid is doubled and the lowest
    min(10, n_states) eigenvalues must agree within CONVERGENCE_TOL_EV, else
    AccuracyError (`_lowest_levels`).  This thread builds the doubled grid's
    shifted Hamiltonian, hands its in-place LU to one worker thread and
    solves the coarse grid meanwhile.  scipy's LU (getrf) releases the GIL
    and its eigh (syevr) holds it, so the worker must enter getrf first: it
    does, since `submit` waits for the new thread to start and the worker
    reaches getrf within microseconds of that.  Every large array is
    allocated on this thread; allocated on the worker, the coarse solve's
    arrays would sit in a second malloc arena and add about 4 MB of RSS.
    The basis is the same with or without the check.
    """
    radii = model.grid.radii()
    potential = model.potential(channel)
    if not convergence_check:
        w, v = _solve_grid(potential, radii, model.final_mass_au, n_states)
    else:
        fine = replace(model, grid=GridSpec(
            model.grid.r_min_bohr, model.grid.r_max_bohr, 2 * model.grid.points))
        fine_radii, fine_potential = fine.grid.radii(), fine.potential(channel)
        h = _hamiltonian(fine_potential, fine_radii, fine.final_mass_au)
        sigma = fine_potential.min()
        h[np.diag_indices(fine_radii.size)] -= sigma
        with ThreadPoolExecutor(max_workers=1) as worker:
            # h is exactly symmetric, so its F-ordered view h.T is the same
            # matrix and LAPACK factors it in place; a C-ordered h would be
            # copied (19 MB at 2N = 1536).  A MoleculeModel's potentials
            # are finite on its grid, so h is finite and needs no check.
            factors = worker.submit(lu_factor, h.T, overwrite_a=True,
                                    check_finite=False)
            w, v = _solve_grid(potential, radii, model.final_mass_au,
                               n_states)
            lu = factors.result()
        k = min(10, w.size)
        seed = np.column_stack([np.interp(fine_radii, radii, v[:, i])
                                for i in range(k)])
        _lowest_levels(lu, sigma, seed, w[:k])
    return RadialEigenbasis(radii=radii, energies_ev=w * CONSTANTS.hartree_ev,
                            wavefunctions=v)


def rotational_bases(model: MoleculeModel, channel: int, j_max: int,
                     v_max: int, convergence_check: bool) -> RotationalBases:
    """Lowest v_max + 1 eigenpairs of channel potential + J(J+1)/(2 M R^2)
    for J = 0 ... j_max, as coefficients in the J = 0 basis.

    One dense J = 0 solve (with the N-doubling gate when convergence_check)
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
