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

from dataclasses import replace

import numpy as np
from scipy.linalg import toeplitz

from ..errors import ValidationError
from ..fss import (FinalStateSpectrum, FssLine, MomentSet, cumulative_moments,
                   from_lines)
from ..physics import CONSTANTS
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
                 convergence_check: bool = False):
        if j_max < 0 or v_max < 0:
            raise ValidationError("j_max and v_max must be >= 0")
        self.model = model
        self.j_max = j_max
        self.v_max = v_max
        init = solve_initial(model)
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
                    convergence_check=(convergence_check and j == 0))
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


def rotational_shift_ev(model: MoleculeModel, q_au: float) -> float:
    """Uniform rotational recoil shift q^2 / 2M in eV."""
    return q_au * q_au / (2.0 * model.final_mass_au) * CONSTANTS.hartree_ev


def pseudo_spectrum(model: MoleculeModel, q_au: float,
                    v_max: int = 30) -> FinalStateSpectrum:
    """Ground-channel vibrational pseudo-spectrum: lines w_c |<v|T2>|^2 of
    the J = 0 basis at E_v - E_0 + q^2/2M, labelled by v (P > 0 only)."""
    init = solve_initial(model)
    basis = solve_radial(model, channel=0, rotation=0, n_states=v_max + 1)
    integrals = basis.wavefunctions.T @ init.wavefunctions[:, 0] * init.step
    probs = model.channels[0].weight * integrals**2
    energies = (basis.energies_ev - basis.energies_ev[0]) \
        + rotational_shift_ev(model, q_au)
    return from_lines([FssLine(float(e), float(p), vibration=v)
                       for v, (e, p) in enumerate(zip(energies, probs))
                       if p > 0.0], q_ref=q_au)


def laplacian_expectation(model: MoleculeModel) -> float:
    """<T2| d^2/dR^2 |T2> in bohr^-2 (negative for a normalized bound state)."""
    init = solve_initial(model)
    chi0 = init.wavefunctions[:, 0]
    grad = _derivative_matrix(init.radii.size, init.step) @ chi0
    return -float(np.sum(grad * grad) * init.step)


def operator_moments(model: MoleculeModel, q_au: float, eps_ev: float,
                     v_max: int = 30) -> MomentSet:
    """Cumulative ground-channel moments from the operator expressions.

    P_eps, <E> and <E^3> are the cumulative moments of the pseudo-spectrum;
    <E^2> adds the gradient term w_c (1/3) (q/M)^2 <T2| -d^2/dR^2 |T2> / P_eps,
    the angular average of the rotational broadening that the pseudo-spectrum
    lacks (positive, since the Laplacian expectation of a bound state is
    negative).
    """
    moments = cumulative_moments(
        pseudo_spectrum(model, q_au, v_max=v_max), eps_ev)
    if not moments.open:
        return moments
    grad_term = -(q_au / model.final_mass_au) ** 2 / 3.0 * laplacian_expectation(
        model) * CONSTANTS.hartree_ev ** 2
    return replace(moments, mean_e2=moments.mean_e2
                   + model.channels[0].weight * grad_term / moments.p_open)


def _derivative_matrix(n: int, step: float) -> np.ndarray:
    """Antisymmetric 4th-order central d/dR with zero (Dirichlet) padding."""
    row = np.zeros(n)
    row[1:3] = 8.0, -1.0
    # 0.0 - row, not -row: the zeros stay +0.0
    return toeplitz(0.0 - row, row) / (12.0 * step)


def c_term_bound(model: MoleculeModel, q_au: float) -> float:
    """|<T2| C |T2>| in eV^3 for the ground final channel, where

        C = -1/3 (q/M)^2 ( [[H, d/dR], d/dR] - (d/dR)[H, d/dR] ).

    H is the final ground-channel Hamiltonian; all operators act on the
    grid (dense kinetic matrix, finite-difference derivative).
    """
    init = solve_initial(model)
    chi0 = init.wavefunctions[:, 0]
    radii, step = init.radii, init.step
    n = radii.size
    tmat = kinetic_matrix(n, step, model.final_mass_au)
    pot = model.potential(0)
    dmat = _derivative_matrix(n, step)

    def apply_h(vec: np.ndarray) -> np.ndarray:
        return tmat @ vec + pot * vec

    def commutator(vec: np.ndarray) -> np.ndarray:
        return apply_h(dmat @ vec) - dmat @ apply_h(vec)

    # ([[H,D],D] - D[H,D]) chi = comm(D chi) - 2 D comm(chi)
    vec = commutator(dmat @ chi0) - 2.0 * (dmat @ commutator(chi0))
    expectation = float(np.sum(chi0 * vec) * step)
    c_hartree3 = -(q_au / model.final_mass_au) ** 2 / 3.0 * expectation
    return abs(c_hartree3) * CONSTANTS.hartree_ev ** 3
