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
from ..fss import FinalStateSpectrum, MomentSet, cumulative_moments, from_lines
from ..physics import CONSTANTS
from .bessel import spherical_jn_table
from .molecule import MoleculeModel
from .radial import (RotationalBases, _hamiltonian, rotational_bases,
                     solve_initial)

#: generated spectra warn when a channel captures less than this fraction
TRUNCATION_WARN_FRACTION = 0.99


def truncation_warned(deficit: float) -> bool:
    """Whether a channel whose lines miss `deficit` of its weight keeps
    less than TRUNCATION_WARN_FRACTION of it."""
    return deficit > 1.0 - TRUNCATION_WARN_FRACTION


def check_recoil_momentum(q_au: float) -> None:
    """Raise unless q (atomic units) is finite and >= 0; NaN fails too."""
    if not 0.0 <= q_au < np.inf:
        raise ValidationError(
            f"recoil momentum must be finite and >= 0, got {q_au}")


class RecoilEngine:
    """Caches radial eigenbases so overlaps at many q are cheap.

    Each non-line channel's J = 0 ... j_max bases come from one dense J = 0
    solve (`rotational_bases`) and are kept as coefficients C_J in that
    solve's K states chi_K.  `overlaps` projects onto chi_K once for all J,
    B = chi_K^T (j_J(qR) chi_0)^T dR, and reads integrals_J = C_J^T B[:, J].
    chi_0 is exactly zero beyond the leading grid block it was solved on
    (`solve_initial`), so the Bessel table and that projection run on its
    support only: 192 of 768 points on the default model.
    Eigenbases are q-independent; a generation run is deterministic given
    the model and grid.  convergence_check runs the N-doubling gate on that
    J = 0 solve only: above it, boxed continuum pseudo-states move on
    doubling however good the grid is (measurements in README).

    The engine's T2 ground state chi_0 and channel-0 J = 0 basis are the
    only ones: `pseudo_spectrum`, `operator_moments` and `c_term_bound` read
    them and solve nothing.
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
        self.bases: dict[int, RotationalBases] = {
            ic: rotational_bases(model, ic, j_max, v_max,
                                 convergence_check=convergence_check)
            for ic, ch in enumerate(model.channels)
            if ch.kind != "line" and ch.weight > 0.0}
        self.reference_ev = self.bases[0].energies_ev[0, 0]

    def overlaps(self, q_au: float) -> FinalStateSpectrum:
        """Full recoil FSS at recoil momentum q (atomic units): one block of
        (J, v) lines per Morse or Coulomb channel, one line per lumped
        channel.  j_J(qR) is tabulated and projected on chi_0's support
        only, since every term beyond it is zero.  The provenance holds each
        channel's truncation deficit 1 - sum P / w_c and
        `truncation_warning`, whether any channel keeps less than
        TRUNCATION_WARN_FRACTION of its weight."""
        check_recoil_momentum(q_au)
        # j_J(0) = delta_J0: at rest every J >= 1 line has P = 0
        j_top = self.j_max if q_au > 0.0 else 0
        # (j_top + 1) x support: row J is j_J(qR) chi_0
        support = np.flatnonzero(self.chi0)[-1] + 1
        radial = spherical_jn_table(j_top, q_au * self.radii[:support]) \
            * self.chi0[:support]
        blocks = []
        deficits: dict[str, float] = {}
        warned = False
        for ic, ch in enumerate(self.model.channels):
            if ch.weight == 0.0:
                continue
            if ch.kind == "line":
                blocks.append((ch.offset_ev, ch.weight, ic, -1, -1))
                deficits[ch.label or f"channel{ic}"] = 0.0
                continue
            bases = self.bases[ic]
            projected = bases.chi[:support].T @ radial.T * self.step
            # integrals[J] = C_J^T projected[:, J]
            integrals = np.matmul(projected.T[:, None, :],
                                  bases.coefficients[:j_top + 1])[:, 0, :]
            # (J, v) arrays; the mask reads them row-major, J by J
            probs = ch.weight * (2 * np.arange(j_top + 1)[:, None] + 1) \
                * integrals**2
            energies = (ch.offset_ev + bases.energies_ev[:j_top + 1]
                        - self.reference_ev)
            keep = probs > 0.0
            blocks.append((energies[keep], probs[keep], ic, *np.nonzero(keep)))
            # summed J by J, in J order
            total = sum(probs.sum(axis=1).tolist())
            deficit = 1.0 - total / ch.weight
            deficits[ch.label or f"channel{ic}"] = deficit
            warned = warned or truncation_warned(deficit)
        provenance = {
            "q_au": q_au,
            "j_max": self.j_max,
            "v_max": self.v_max,
            "model_hash": self.model.parameter_hash(),
            "grid": [self.model.grid.r_min_bohr, self.model.grid.r_max_bohr,
                     self.model.grid.points],
            "truncation_deficit": deficits,
            "truncation_warning": warned,
        }
        return from_lines(blocks, q_ref=q_au, provenance=provenance)

    def pseudo_spectrum(self, q_au: float) -> FinalStateSpectrum:
        """Ground-channel vibrational pseudo-spectrum: lines w_c |<v|T2>|^2 of
        the J = 0 basis at E_v - E_0 + q^2/2M, labelled by v (P > 0 only).

        These are the channel-0 lines of overlaps(0), where j_J(0) = delta_J0
        leaves J = 0 only.
        """
        check_recoil_momentum(q_au)
        at_rest = self.overlaps(0.0)
        ground = at_rest.channels == 0
        return from_lines([(at_rest.energies[ground]
                            + rotational_shift_ev(self.model, q_au),
                            at_rest.probabilities[ground], 0, -1,
                            at_rest.vibrations[ground])], q_ref=q_au)

    def operator_moments(self, q_au: float, eps_ev: float) -> MomentSet:
        """Cumulative ground-channel moments from the operator expressions.

        P_eps, <E> and <E^3> are the cumulative moments of the
        pseudo-spectrum; <E^2> adds the gradient term
        w_c (1/3) (q/M)^2 <T2| -d^2/dR^2 |T2> / P_eps, the angular average of
        the rotational broadening that the pseudo-spectrum lacks (positive:
        <T2| -d^2/dR^2 |T2> = |d chi_0/dR|^2 for a bound state).
        """
        moments = cumulative_moments(self.pseudo_spectrum(q_au), eps_ev)
        if not moments.open:
            return moments
        grad = _derivative_matrix(self.radii.size, self.step) @ self.chi0
        grad_term = (q_au / self.model.final_mass_au) ** 2 / 3.0 * float(
            np.sum(grad * grad) * self.step) * CONSTANTS.hartree_ev ** 2
        weight = self.model.channels[0].weight
        return replace(moments, mean_e2=moments.mean_e2
                       + weight * grad_term / moments.p_open)

    def c_term_bound(self, q_au: float) -> float:
        """|<T2| C |T2>| in eV^3 for the ground final channel, where

            C = -1/3 (q/M)^2 ( [[H, d/dR], d/dR] - (d/dR)[H, d/dR] ).

        H is the final ground-channel Hamiltonian; all operators act on the
        grid (dense sinc-DVR Hamiltonian, finite-difference derivative).
        """
        check_recoil_momentum(q_au)
        mass = self.model.final_mass_au
        hmat = _hamiltonian(self.model.potential(0), self.radii, mass)
        dmat = _derivative_matrix(self.radii.size, self.step)

        def commutator(vec: np.ndarray) -> np.ndarray:
            return hmat @ (dmat @ vec) - dmat @ (hmat @ vec)

        # ([[H,D],D] - D[H,D]) chi = comm(D chi) - 2 D comm(chi)
        vec = commutator(dmat @ self.chi0) \
            - 2.0 * (dmat @ commutator(self.chi0))
        expectation = float(np.sum(self.chi0 * vec) * self.step)
        return (q_au / mass) ** 2 / 3.0 * abs(expectation) \
            * CONSTANTS.hartree_ev ** 3


def rotational_shift_ev(model: MoleculeModel, q_au: float) -> float:
    """Uniform rotational recoil shift q^2 / 2M in eV."""
    return q_au * q_au / (2.0 * model.final_mass_au) * CONSTANTS.hartree_ev


def _derivative_matrix(n: int, step: float) -> np.ndarray:
    """Antisymmetric 4th-order central d/dR with zero (Dirichlet) padding."""
    row = np.zeros(n)
    row[1:3] = 8.0, -1.0
    # 0.0 - row, not -row: the zeros stay +0.0
    return toeplitz(0.0 - row, row) / (12.0 * step)
