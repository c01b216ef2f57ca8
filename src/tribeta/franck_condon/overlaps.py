"""Sudden-approximation recoil overlaps and the operator-moment machinery.

The recoil factor exp(i q.R) is expanded in partial waves; with a J=0
initial state the angular average leaves one radial integral per final
(v, J):

    P_{v,J} = w_c (2J+1) | int chi_vJ(R) j_J(qR) chi_0(R) dR |^2

Eliminating the recoil exponent instead gives the vibrational-only
pseudo-spectrum, a uniform rotational shift q^2/2M, and gradient /
commutator corrections evaluated on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from ..errors import ValidationError
from ..fss import FinalStateSpectrum, FssLine, MomentSet, from_lines
from ..physics import CONSTANTS, Constants
from .bessel import spherical_jn_table
from .molecule import MoleculeModel
from .radial import RadialEigenbasis, kinetic_matrix, solve_initial, solve_radial

#: generated spectra warn when a channel captures less than this fraction
TRUNCATION_WARN_FRACTION = 0.99


class RecoilEngine:
    """Caches radial eigenbases so overlaps at many q are cheap.

    Eigenbases are q-independent; a generation run is deterministic given
    the model and grid.  convergence_check runs the N-doubling gate at J = 0
    only: above it, boxed continuum pseudo-states move on doubling however
    good the grid is (measurements in README).
    """

    def __init__(self, model: MoleculeModel, j_max: int = 60, v_max: int = 80,
                 constants: Constants = CONSTANTS,
                 convergence_check: bool = False):
        if j_max < 0 or v_max < 0:
            raise ValidationError("j_max and v_max must be >= 0")
        self.model = model
        self.j_max = j_max
        self.v_max = v_max
        self.constants = constants
        init = solve_initial(model, constants=constants)
        self.radii = init.radii
        self.step = init.step
        self.chi0 = init.wavefunctions[:, 0]
        self.bases: dict[tuple[int, int], RadialEigenbasis] = {}
        for ic, ch in enumerate(model.channels):
            if ch.kind == "line" or ch.weight == 0.0:
                continue
            for j in range(j_max + 1):
                self.bases[(ic, j)] = solve_radial(
                    model, channel=ic, rotation=j, n_states=v_max + 1,
                    convergence_check=(convergence_check and j == 0),
                    constants=constants)
        self.reference_ev = self.bases[(0, 0)].energies_ev[0]

    def overlaps(self, q_au: float) -> FinalStateSpectrum:
        """Full recoil FSS at recoil momentum q (atomic units)."""
        if q_au < 0.0:
            raise ValidationError("recoil momentum must be >= 0")
        jtab = spherical_jn_table(self.j_max, q_au * self.radii)
        lines: list[FssLine] = []
        deficits: dict[str, float] = {}
        warned = False
        for ic, ch in enumerate(self.model.channels):
            if ch.weight == 0.0:
                continue
            if ch.kind == "line":
                lines.append(FssLine(ch.offset_ev, ch.weight, channel=ic))
                deficits[ch.label or f"channel{ic}"] = 0.0
                continue
            total = 0.0
            for j in range(self.j_max + 1):
                basis = self.bases[(ic, j)]
                radial = jtab[j] * self.chi0
                integrals = basis.wavefunctions.T @ radial * self.step
                probs = ch.weight * (2 * j + 1) * integrals**2
                energies = ch.offset_ev + basis.energies_ev - self.reference_ev
                total += float(probs.sum())
                for v in range(probs.size):
                    if probs[v] > 0.0:
                        lines.append(FssLine(float(energies[v]), float(probs[v]),
                                             channel=ic, rotation=j, vibration=v))
            deficit = 1.0 - total / ch.weight
            deficits[ch.label or f"channel{ic}"] = deficit
            if total < TRUNCATION_WARN_FRACTION * ch.weight:
                warned = True
        provenance = {
            "q_au": q_au,
            "j_max": self.j_max,
            "v_max": self.v_max,
            "model_hash": self.model.parameter_hash(),
            "grid": [self.model.grid.r_min_bohr, self.model.grid.r_max_bohr,
                     self.model.grid.points],
            "truncation_deficit": deficits,
        }
        if warned:
            provenance["truncation_warning"] = True
        return from_lines(lines, q_ref=q_au, provenance=provenance)


@dataclass(frozen=True)
class PseudoSpectrum:
    """Vibrational-only final-state expansion with the uniform recoil shift."""

    weights: np.ndarray        # w_c |<v|T2>|^2
    energies_ev: np.ndarray    # E_v - E_0, vibrational only
    rotational_shift_ev: float
    channel_weight: float

    def shifted_energies(self) -> np.ndarray:
        return self.energies_ev + self.rotational_shift_ev


def rotational_shift_ev(model: MoleculeModel, q_au: float,
                        constants: Constants = CONSTANTS) -> float:
    """Uniform rotational recoil shift q^2 / 2M in eV."""
    return q_au * q_au / (2.0 * model.final_mass_au) * constants.hartree_ev


def pseudo_spectrum(model: MoleculeModel, q_au: float, v_max: int = 30,
                    constants: Constants = CONSTANTS) -> PseudoSpectrum:
    """Vibrational overlaps |<T2|v>|^2 of the ground channel at J = 0."""
    init = solve_initial(model, constants=constants)
    chi0 = init.wavefunctions[:, 0]
    basis = solve_radial(model, channel=0, rotation=0, n_states=v_max + 1,
                         constants=constants)
    integrals = basis.wavefunctions.T @ chi0 * init.step
    w_c = model.channels[0].weight
    return PseudoSpectrum(
        weights=w_c * integrals**2,
        energies_ev=basis.energies_ev - basis.energies_ev[0],
        rotational_shift_ev=rotational_shift_ev(model, q_au, constants),
        channel_weight=w_c,
    )


def laplacian_expectation(model: MoleculeModel,
                          constants: Constants = CONSTANTS) -> float:
    """<T2| d^2/dR^2 |T2> in bohr^-2 (negative for a normalized bound state)."""
    init = solve_initial(model, constants=constants)
    chi0 = init.wavefunctions[:, 0]
    grad = _derivative_matrix(init.radii.size, init.step) @ chi0
    return -float(np.sum(grad * grad) * init.step)


def operator_moments(model: MoleculeModel, q_au: float, eps_ev: float,
                     v_max: int = 30,
                     constants: Constants = CONSTANTS) -> MomentSet:
    """Cumulative moments from the pseudo-spectrum operator expressions.

    P_eps gates each vibrational pseudo-line at E_v + q^2/2M; the first
    moment adds the uniform shift, and the second carries the gradient
    correction -(q/M)^2 <T2|Lap|T2> (a positive contribution, since the
    Laplacian expectation of a bound state is negative).
    """
    ps = pseudo_spectrum(model, q_au, v_max=v_max, constants=constants)
    shifted = ps.shifted_energies()
    open_mask = shifted < eps_ev
    p_open = float(ps.weights[open_mask].sum())
    if p_open == 0.0:
        return MomentSet(eps_ev, 0.0, None, None, None)
    w = ps.weights[open_mask]
    e_vib = ps.energies_ev[open_mask]
    shift = ps.rotational_shift_ev
    mean_e = shift + float((w * e_vib).sum()) / p_open
    grad_term = -(q_au / model.final_mass_au) ** 2 * laplacian_expectation(
        model, constants) * constants.hartree_ev ** 2
    mean_e2 = float((w * (e_vib + shift) ** 2).sum()) / p_open + grad_term / p_open
    mean_e3 = float((w * (e_vib + shift) ** 3).sum()) / p_open
    return MomentSet(eps_ev, p_open, mean_e, mean_e2, mean_e3)


def _derivative_matrix(n: int, step: float) -> np.ndarray:
    """Antisymmetric 4th-order central d/dR with zero (Dirichlet) padding."""
    row = np.zeros(n)
    row[1:3] = 8.0, -1.0
    # 0.0 - row, not -row: the zeros stay +0.0
    return toeplitz(0.0 - row, row) / (12.0 * step)


def c_term_bound(model: MoleculeModel, q_au: float,
                 constants: Constants = CONSTANTS) -> float:
    """|<T2| C |T2>| in eV^3 for the ground final channel, where

        C = -1/3 (q/M)^2 ( [[H, d/dR], d/dR] - (d/dR)[H, d/dR] ).

    H is the final ground-channel Hamiltonian; all operators act on the
    grid (dense kinetic matrix, finite-difference derivative).
    """
    init = solve_initial(model, constants=constants)
    chi0 = init.wavefunctions[:, 0]
    radii, step = init.radii, init.step
    n = radii.size
    tmat = kinetic_matrix(n, step, model.final_mass_au)
    pot = model.potential(0, constants.hartree_ev)
    dmat = _derivative_matrix(n, step)

    def apply_h(vec: np.ndarray) -> np.ndarray:
        return tmat @ vec + pot * vec

    def commutator(vec: np.ndarray) -> np.ndarray:
        return apply_h(dmat @ vec) - dmat @ apply_h(vec)

    # ([[H,D],D] - D[H,D]) chi = comm(D chi) - 2 D comm(chi)
    vec = commutator(dmat @ chi0) - 2.0 * (dmat @ commutator(chi0))
    expectation = float(np.sum(chi0 * vec) * step)
    c_hartree3 = -(q_au / model.final_mass_au) ** 2 / 3.0 * expectation
    return abs(c_hartree3) * constants.hartree_ev ** 3
