"""Radial solver against the Morse closed form; grid and model contracts."""

import math

import numpy as np
import pytest

from tribeta.errors import AccuracyError, ConfigurationError, ValidationError
from tribeta.franck_condon import (Channel, GridSpec, MoleculeModel,
                                   MorseParams, default_model, kinetic_matrix,
                                   solve_initial, solve_radial)
from tribeta.franck_condon.overlaps import _derivative_matrix
from tribeta.physics import CONSTANTS

HART = CONSTANTS.hartree_ev


def morse_levels(depth_ev, a, mass, n):
    """E_v = -D_e + omega(v+1/2) - omega^2 (v+1/2)^2 / (4 D_e), from dissociation."""
    de = depth_ev / HART
    omega = a * math.sqrt(2.0 * de / mass)
    v = np.arange(n)
    return (-de + omega * (v + 0.5) - omega**2 * (v + 0.5) ** 2 / (4.0 * de)) * HART


class TestGridOperators:
    """Both grid operators are Toeplitz; pin them to their elementwise
    definitions in the index difference i - j."""

    @pytest.mark.parametrize("n", [256, 1536])
    def test_kinetic_matrix(self, n):
        step, mass = 0.0123, 2734.5
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        off = diff != 0
        ref = np.full((n, n), np.pi * np.pi / 3.0)
        ref[off] = 2.0 * (-1.0) ** diff[off] / diff[off] ** 2
        ref /= 2.0 * mass * step * step
        assert np.array_equal(kinetic_matrix(n, step, mass), ref)

    @pytest.mark.parametrize("n", [256, 1536])
    def test_derivative_matrix(self, n):
        step = 0.0123
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        ref = np.zeros((n, n))
        for offset, coeff in ((-1, 8.0), (1, -8.0), (-2, -1.0), (2, 1.0)):
            ref[diff == offset] = coeff
        ref /= 12.0 * step
        assert np.array_equal(_derivative_matrix(n, step), ref)


class TestMorseOracle:
    def test_closed_form_eigenvalues(self, model):
        basis = solve_radial(model, channel=0, rotation=0, n_states=8)
        exact = morse_levels(2.04, 1.30, model.final_mass_au, 6)
        # grid eigenvalues are measured from the potential minimum
        numeric = basis.energies_ev[:6] - 2.04
        rel = np.abs((numeric - exact) / exact)
        assert rel.max() < 1e-6

    def test_initial_curve_levels(self, model):
        basis = solve_initial(model, n_states=6)
        exact = morse_levels(model.initial.depth_ev,
                             model.initial.steepness_inv_bohr,
                             model.initial_mass_au, 4)
        rel = np.abs((basis.energies_ev[:4] - model.initial.depth_ev - exact) / exact)
        assert rel.max() < 1e-6

    def test_harmonic_limit(self):
        # deep well: level spacing omega (1 - anharmonic correction)
        deep = MoleculeModel(
            initial=MorseParams(40.0, 1.0, 1.4),
            channels=(Channel(kind="morse", weight=1.0,
                              morse=MorseParams(40.0, 1.0, 1.4)),),
            grid=GridSpec(0.3, 12.0, 1024))
        basis = solve_radial(deep, n_states=3)
        # omega = a sqrt(2 D_e / M)
        omega = 1.0 * math.sqrt(2.0 * 40.0 / HART / deep.final_mass_au) * HART
        spacing = basis.energies_ev[1] - basis.energies_ev[0]
        anharm = omega * omega / (2.0 * 40.0)
        assert spacing == pytest.approx(omega - anharm, rel=1e-6)


class TestBasisContracts:
    def test_orthonormality(self, model):
        basis = solve_radial(model, channel=0, rotation=7, n_states=12)
        gram = basis.wavefunctions.T @ basis.wavefunctions * basis.step
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_eigenvalues_strictly_increasing(self, model):
        basis = solve_radial(model, channel=0, rotation=0, n_states=25)
        assert np.all(np.diff(basis.energies_ev) > 0.0)

    def test_variational_monotone_with_grid(self):
        levels = []
        for n in (256, 512, 1024):
            m = default_model(grid=GridSpec(0.3, 12.0, n))
            levels.append(solve_radial(m, n_states=5).energies_ev)
        # refining the grid never raises an eigenvalue (to roundoff)
        assert np.all(levels[0] >= levels[1] - 1e-10)
        assert np.all(levels[1] >= levels[2] - 1e-10)

    def test_bound_state_count_flags(self, model):
        basis = solve_radial(model, channel=0, rotation=0, n_states=31)
        assert 0 < basis.n_bound < 31
        assert np.all(basis.energies_ev[: basis.n_bound] < 2.04)
        assert np.all(basis.energies_ev[basis.n_bound:] > 2.04)

    def test_centrifugal_shift_j25(self, model):
        r_eq = model.channels[0].morse.r_eq_bohr
        two_m_r2 = 2.0 * model.final_mass_au * r_eq**2
        estimate = 25 * 26 / two_m_r2 * HART
        # the (J+1/2)^2 estimate form differs by exactly the algebraic 1/4
        alt = 25.5**2 / two_m_r2 * HART
        assert alt - estimate == pytest.approx(0.25 / two_m_r2 * HART, rel=1e-12)
        # solver shift agrees in order: at J=25 the ~1.9 eV centrifugal term
        # reshapes the 2 eV well, so the rigid-rotor value is an upper bound
        e0 = solve_radial(model, rotation=0, n_states=1).energies_ev[0]
        e25 = solve_radial(model, rotation=25, n_states=1).energies_ev[0]
        assert 0.5 * estimate < (e25 - e0) < 1.05 * estimate

    def test_centrifugal_shift_small_j(self, model):
        # negligible well distortion at J=2: rigid-rotor estimate good to %
        e0 = solve_radial(model, rotation=0, n_states=1).energies_ev[0]
        e2 = solve_radial(model, rotation=2, n_states=1).energies_ev[0]
        r_eq = model.channels[0].morse.r_eq_bohr
        estimate = 2 * 3 / (2.0 * model.final_mass_au * r_eq**2) * HART
        assert (e2 - e0) == pytest.approx(estimate, rel=0.05)

    def test_convergence_gate_passes_on_default_grid(self, model):
        solve_radial(model, n_states=10, convergence_check=True)

    def test_convergence_gate_rejects_coarse_grid(self):
        # a very stiff well is unresolved at the minimum point count
        stiff = MoleculeModel(
            initial=MorseParams(4.747, 1.0298, 1.4011),
            channels=(Channel(kind="morse", weight=1.0,
                              morse=MorseParams(60.0, 40.0, 1.0)),),
            grid=GridSpec(0.3, 12.0, 256))
        with pytest.raises(AccuracyError):
            solve_radial(stiff, n_states=10, convergence_check=True)


class TestModelValidation:
    def test_grid_minimum_points(self):
        with pytest.raises(ValidationError):
            GridSpec(points=128)

    def test_grid_reach(self):
        with pytest.raises(ValidationError, match="r_max"):
            MoleculeModel(
                initial=MorseParams(4.747, 1.0298, 1.4011),
                channels=(Channel(kind="morse", weight=0.5,
                                  morse=MorseParams(2.0, 1.3, 1.3)),),
                grid=GridSpec(0.3, 6.0, 512))

    def test_weights_bounded(self):
        with pytest.raises(ValidationError):
            MoleculeModel(
                initial=MorseParams(4.747, 1.0298, 1.4011),
                channels=(
                    Channel(kind="morse", weight=0.9,
                            morse=MorseParams(2.0, 1.3, 1.3)),
                    Channel(kind="line", weight=0.2, offset_ev=25.0),
                ))

    def test_reference_channel_must_be_morse(self):
        with pytest.raises(ConfigurationError):
            MoleculeModel(
                initial=MorseParams(4.747, 1.0298, 1.4011),
                channels=(Channel(kind="line", weight=0.5, offset_ev=20.0),))

    def test_json_round_trip(self, model):
        back = MoleculeModel.from_json(model.to_json())
        assert back == model
        assert back.parameter_hash() == model.parameter_hash()

    def test_line_channel_has_no_potential(self, model):
        with pytest.raises(ConfigurationError):
            model.potential(1)
