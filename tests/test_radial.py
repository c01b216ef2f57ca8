"""Radial solver against the Morse closed form; grid and model contracts."""

import json
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import eigh, eigvalsh

from tribeta.errors import AccuracyError, ConfigurationError, ValidationError
from tribeta.franck_condon import (CONVERGENCE_TOL_EV, Channel, GridSpec,
                                   MoleculeModel, MorseParams, RecoilEngine,
                                   default_model, kinetic_matrix,
                                   rotational_bases, solve_initial,
                                   solve_radial, spherical_jn_table)
from tribeta.franck_condon import radial
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
        basis = solve_radial(model, channel=0, n_states=8)
        exact = morse_levels(2.04, 1.30, model.final_mass_au, 6)
        # grid eigenvalues are measured from the potential minimum
        numeric = basis.energies_ev[:6] - 2.04
        rel = np.abs((numeric - exact) / exact)
        assert rel.max() < 1e-6

    def test_initial_curve_levels(self, model):
        # the T2 curve as the one final channel, at the T2 reduced mass
        t2 = replace(model, channels=(
            Channel(kind="morse", weight=1.0, morse=model.initial),),
            final_mass_au=model.initial_mass_au)
        basis = solve_radial(t2, n_states=6)
        exact = morse_levels(model.initial.depth_ev,
                             model.initial.steepness_inv_bohr,
                             model.initial_mass_au, 4)
        rel = np.abs((basis.energies_ev[:4] - model.initial.depth_ev - exact) / exact)
        assert rel.max() < 1e-6
        # solve_initial returns that curve's ground state
        ground = solve_initial(model)
        assert ground.wavefunctions.shape == (model.grid.points, 1)
        assert ground.energies_ev[0] == pytest.approx(basis.energies_ev[0],
                                                      rel=1e-12)

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


class TestInitialBlock:
    """solve_initial solves the T2 ground state on a leading grid block."""

    @staticmethod
    def padded_residual(model, n):
        """|H chi - E chi| / |chi| (hartree) of the ground state of
        H[:n, :n], zero-padded, with H the dense full-grid Hamiltonian."""
        radii = model.grid.radii()
        h = radial._hamiltonian(model.initial.potential(radii), radii,
                                model.initial_mass_au)
        w, v = eigh(h[:n, :n], subset_by_index=[0, 0])
        chi = np.zeros(radii.size)
        chi[:n] = v[:, 0]
        return np.linalg.norm(h @ chi - w[0] * chi)

    def test_block_matches_the_dense_solve(self, model):
        radii = model.grid.radii()
        w, v = radial._solve_grid(model.initial.potential(radii), radii,
                                  model.initial_mass_au, 1)
        ground = solve_initial(model)
        chi = ground.wavefunctions[:, 0]
        n = np.flatnonzero(chi)[-1] + 1
        assert n == radii.size // 4
        assert not chi[n:].any()
        # measured: |dE| 1.2e-14 eV, |d chi| 1.4e-13 against max |chi| 1.78
        assert abs(ground.energies_ev[0] - w[0] * HART) <= 1e-12
        assert np.abs(np.abs(chi) - np.abs(v[:, 0])).max() <= 1e-12
        # the kept block passes the certificate and the next smaller fails
        assert self.padded_residual(model, n) \
            <= radial.INITIAL_RESIDUAL_HARTREE
        assert self.padded_residual(model, n // 2) \
            > radial.INITIAL_RESIDUAL_HARTREE

    def test_a_wide_well_takes_the_full_grid_solve(self, model):
        # a 0.05 eV well: the ground state reaches the end of the grid
        wide = replace(model, initial=replace(model.initial, depth_ev=0.05))
        radii = wide.grid.radii()
        w, v = radial._solve_grid(wide.initial.potential(radii), radii,
                                  wide.initial_mass_au, 1)
        ground = solve_initial(wide)
        assert np.array_equal(ground.wavefunctions, v)
        assert np.array_equal(ground.energies_ev,
                              w * CONSTANTS.hartree_ev)
        assert self.padded_residual(wide, radii.size // 2) \
            > radial.INITIAL_RESIDUAL_HARTREE


def grid_wavefunctions(bases, j):
    """Grid wavefunctions of J, chi_K C_J (N x (v_max + 1))."""
    return bases.chi @ bases.coefficients[j]


class TestBasisContracts:
    def test_orthonormality(self, model):
        # J = 60 is 81 combinations of the 162 projected J = 0 vectors
        bases = rotational_bases(model, 0, j_max=60, v_max=80,
                                 convergence_check=False)
        step = model.grid.radii()[1] - model.grid.radii()[0]
        for j in (7, 60):
            chi = grid_wavefunctions(bases, j)
            gram = chi.T @ chi * step
            assert np.abs(gram - np.eye(81)).max() < 1e-10

    def test_eigenvalues_strictly_increasing(self, model):
        basis = solve_radial(model, channel=0, n_states=25)
        assert np.all(np.diff(basis.energies_ev) > 0.0)

    def test_variational_monotone_with_grid(self):
        levels = []
        for n in (256, 512, 1024):
            m = replace(default_model(), grid=GridSpec(0.3, 12.0, n))
            levels.append(solve_radial(m, n_states=5).energies_ev)
        # refining the grid never raises an eigenvalue (to roundoff)
        assert np.all(levels[0] >= levels[1] - 1e-10)
        assert np.all(levels[1] >= levels[2] - 1e-10)

    def test_bound_state_count_flags(self, model):
        # the lowest 31 levels hold bound states below the dissociation limit
        # D_e = 2.04 eV and boxed continuum pseudo-states above it; the box
        # only raises levels, so there are at most the Morse well's
        # floor(sqrt(2 M D_e) / a - 1/2) + 1 bound states
        energies = solve_radial(model, channel=0, n_states=31).energies_ev
        n_bound = int(np.searchsorted(energies, 2.04))
        morse = math.floor(math.sqrt(2.0 * model.final_mass_au * 2.04 / HART)
                           / 1.30 - 0.5) + 1
        assert 0 < n_bound <= morse < 31
        assert energies[n_bound] > 2.04

    def test_centrifugal_shift_j25(self, model):
        r_eq = model.channels[0].morse.r_eq_bohr
        two_m_r2 = 2.0 * model.final_mass_au * r_eq**2
        estimate = 25 * 26 / two_m_r2 * HART
        # the (J+1/2)^2 estimate form differs by exactly the algebraic 1/4
        alt = 25.5**2 / two_m_r2 * HART
        assert alt - estimate == pytest.approx(0.25 / two_m_r2 * HART, rel=1e-12)
        # solver shift agrees in order: at J=25 the ~1.9 eV centrifugal term
        # reshapes the 2 eV well, so the rigid-rotor value is an upper bound
        bases = rotational_bases(model, 0, j_max=25, v_max=0,
                                 convergence_check=False)
        e0, e25 = bases.energies_ev[0, 0], bases.energies_ev[25, 0]
        assert 0.5 * estimate < (e25 - e0) < 1.05 * estimate

    def test_centrifugal_shift_small_j(self, model):
        # negligible well distortion at J=2: rigid-rotor estimate good to %
        bases = rotational_bases(model, 0, j_max=2, v_max=0,
                                 convergence_check=False)
        e0, e2 = bases.energies_ev[0, 0], bases.energies_ev[2, 0]
        r_eq = model.channels[0].morse.r_eq_bohr
        estimate = 2 * 3 / (2.0 * model.final_mass_au * r_eq**2) * HART
        assert (e2 - e0) == pytest.approx(estimate, rel=0.05)

    def test_convergence_gate_passes_on_default_grid(self, model):
        solve_radial(model, n_states=10, convergence_check=True)

    def test_convergence_gate_passes_at_the_minimum_grid(self):
        # 256 points: the lowest 10 levels move 2.0e-9 eV against the half
        # grid, within CONVERGENCE_TOL_EV
        small = replace(default_model(), grid=GridSpec(0.3, 12.0, 256))
        solve_radial(small, n_states=10, convergence_check=True)

    @pytest.mark.parametrize("points", [768, 1024])
    def test_gate_levels_match_dense_solve(self, model, monkeypatch, points):
        # the check's half-grid levels against a dense eigvalsh of the
        # Hamiltonian on every other grid point, built here
        seen = []
        solve_grid = radial._solve_grid

        def recorded(potential, radii, mass_au, n_states):
            seen.append(solve_grid(potential, radii, mass_au, n_states))
            return seen[-1]

        monkeypatch.setattr(radial, "_solve_grid", recorded)
        coarse = replace(model, grid=GridSpec(0.3, 12.0, points))
        radii = coarse.grid.radii()[::2]
        h = kinetic_matrix(radii.size, radii[1] - radii[0],
                           coarse.final_mass_au)
        h[np.diag_indices(radii.size)] += coarse.potential(0)[::2]
        dense = eigvalsh(h, subset_by_index=[0, 9]) * HART
        for n_states in (1, 3, 31):
            seen.clear()
            solve_radial(coarse, n_states=n_states, convergence_check=True)
            k = min(10, n_states)
            (_, grid), (half, vectors) = seen
            assert grid.shape == (points, n_states)
            assert half.size == k and vectors.shape == (points // 2, k)
            assert np.abs(half * HART - dense[:k]).max() <= 1e-11

    def test_gated_basis_equals_ungated(self, model):
        # the gate only checks the coarse solve; it never changes it
        gated = solve_radial(model, n_states=200, convergence_check=True)
        plain = solve_radial(model, n_states=200, convergence_check=False)
        assert np.array_equal(gated.radii, plain.radii)
        assert np.array_equal(gated.energies_ev, plain.energies_ev)
        assert np.array_equal(gated.wavefunctions, plain.wavefunctions)

    def test_convergence_gate_rejects_coarse_grid(self):
        # a very stiff well is unresolved at the minimum point count
        stiff = MoleculeModel(
            initial=MorseParams(4.747, 1.0298, 1.4011),
            channels=(Channel(kind="morse", weight=1.0,
                              morse=MorseParams(60.0, 40.0, 1.0)),),
            grid=GridSpec(0.3, 12.0, 256))
        with pytest.raises(AccuracyError, match="grid too coarse"):
            solve_radial(stiff, n_states=10, convergence_check=True)

    def test_gate_rejects_a_non_finite_potential(self, model):
        # the check's half grid reuses the model's potential values, and no
        # model holds a potential that overflows on its grid (without a
        # RuntimeWarning)
        steep = replace(model.channels[0],
                        morse=MorseParams(2.04, 800.0, 1.29))
        with pytest.raises(ValidationError, match=r"channel 0 \(ionic ground\) "
                           "potential is not finite on the grid"):
            replace(model, channels=(steep,) + model.channels[1:])


def coulomb_model():
    ground = default_model().channels[0]
    return replace(default_model(), channels=(
        ground, Channel(kind="coulomb", weight=0.2, z_eff=2.0)))


def small_grid_model():
    return replace(default_model(), grid=GridSpec(0.3, 12.0, 256))


class TestRotationalBases:
    """Bases projected from one J = 0 solve against a dense solve per J."""

    @staticmethod
    def dense_levels(model, channel, j, n_states):
        radii = model.grid.radii()
        step = radii[1] - radii[0]
        h = kinetic_matrix(radii.size, step, model.final_mass_au)
        h[np.diag_indices(radii.size)] += model.potential(channel) + j * (
            j + 1) / (2.0 * model.final_mass_au * radii**2)
        w, v = eigh(h, subset_by_index=[0, n_states - 1])
        return w * HART, v / np.sqrt(step)

    # K = min(N, max(120, 2 (v_max + 1), 2 (j_max + 1))) projected states,
    # all at q(W0).  v12-j12, every J: K = 2 (v_max + 1) alone misses by
    # 5e-4 eV, a floor of 80 by 3e-9 eV, and a floor of 100 misses the
    # probabilities by 3.3e-12, though it passes at q = 4.  v80-j100:
    # K = 162 without the j_max term misses the J = 100 levels by 3e-9 eV.
    # grid-cap: 2 (j_max + 1) > N.
    @pytest.mark.parametrize("build,channel,j_max,v_max,every_j,k", [
        (default_model, 0, 60, 80, False, 162),
        (default_model, 0, 60, 120, False, 242),
        (default_model, 0, 12, 12, True, 120),
        (coulomb_model, 1, 60, 80, False, 162),
        (default_model, 0, 100, 80, False, 202),
        (small_grid_model, 0, 130, 12, False, 256),
    ], ids=["v80", "v120", "v12-j12", "coulomb", "v80-j100", "grid-cap"])
    def test_matches_dense_solve_at_j_max(self, q_endpoint, build, channel,
                                          j_max, v_max, every_j, k):
        model = build()
        bases = rotational_bases(model, channel, j_max, v_max,
                                 convergence_check=False)
        assert bases.chi.shape[1] == k
        init = solve_initial(model)
        bessel = spherical_jn_table(j_max, q_endpoint * init.radii)
        for j in range(j_max + 1) if every_j else (j_max,):
            energies, vectors = self.dense_levels(model, channel, j,
                                                  v_max + 1)
            assert np.abs(bases.energies_ev[j] - energies).max() \
                <= CONVERGENCE_TOL_EV / 10
            integrand = bessel[j] * init.wavefunctions[:, 0] * init.step
            probs = (grid_wavefunctions(bases, j).T @ integrand) ** 2
            assert np.abs(probs - (vectors.T @ integrand) ** 2).max() <= 1e-12

    @staticmethod
    def rotational_problem(model, k):
        """E_K and U_K of the J >= 1 problems diag(E_K) + J(J+1) U_K of
        channel 0, built as rotational_bases builds them."""
        base = solve_radial(model, n_states=k)
        chi = base.wavefunctions
        centrifugal = HART / (2.0 * model.final_mass_au * base.radii**2)
        return (base.energies_ev,
                chi.T @ (centrifugal[:, None] * chi) * base.step)

    def test_threaded_solves_match_a_serial_loop(self, model):
        # a short switch interval interleaves the two threads' array writes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first, second = [rotational_bases(model, 0, 60, 80,
                                              convergence_check=False)
                             for _ in range(2)]
        finally:
            sys.setswitchinterval(interval)
        energies, projected = self.rotational_problem(model,
                                                      first.chi.shape[1])
        for j in range(1, 61):
            w, c = np.linalg.eigh(np.diag(energies) + j * (j + 1) * projected)
            assert np.array_equal(first.energies_ev[j], w[:81])
            assert np.array_equal(first.coefficients[j], c[:, :81])
        for name in ("chi", "energies_ev", "coefficients"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_worker_error_reaches_the_caller(self, model, monkeypatch):
        k = rotational_bases(model, 0, 12, 12,
                             convergence_check=False).chi.shape[1]
        energies, projected = self.rotational_problem(model, k)
        failing = np.diag(energies) + 7 * 8 * projected
        eigh, raised_on = np.linalg.eigh, []

        def eigh_failing_at_j7(a, *args, **kwargs):
            if np.array_equal(a, failing):
                raised_on.append(threading.current_thread())
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_at_j7)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            RecoilEngine(model, j_max=12, v_max=12)
        # odd J are solved off the calling thread
        assert len(raised_on) == 1
        assert raised_on[0] is not threading.main_thread()

    @pytest.mark.parametrize("j_max,dense_states", [(0, 81), (3, 162)])
    def test_j0_is_the_dense_solve(self, model, j_max, dense_states):
        # with j_max = 0 nothing is projected: only v_max + 1 states are solved
        dense = solve_radial(model, n_states=dense_states)
        bases = rotational_bases(model, 0, j_max, 80, convergence_check=False)
        assert np.array_equal(bases.chi, dense.wavefunctions)
        assert np.array_equal(bases.energies_ev[0], dense.energies_ev[:81])
        assert np.array_equal(bases.coefficients[0],
                              np.eye(dense_states, 81))


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

    def test_reference_channel_needs_weight(self, model):
        ground = replace(model.channels[0], weight=0.0)
        with pytest.raises(ConfigurationError, match="weight > 0"):
            replace(model, channels=(ground,) + model.channels[1:])

    def test_json_round_trip(self, model):
        back = MoleculeModel.from_dict(json.loads(model.to_json()),
                                      "model.json")
        assert back == model
        assert back.parameter_hash() == model.parameter_hash()

    def test_line_channel_has_no_potential(self, model):
        with pytest.raises(ConfigurationError):
            model.potential(1)
