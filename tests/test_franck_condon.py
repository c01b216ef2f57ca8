"""Recoil overlaps, pseudo-spectrum and the operator-moment machinery."""

from dataclasses import replace

import numpy as np
import pytest

import scipy.linalg

from tribeta.errors import ValidationError
from tribeta.franck_condon import (Channel, GridSpec, MoleculeModel,
                                   MorseParams, RecoilEngine, default_model,
                                   kinetic_matrix, rotational_shift_ev,
                                   solve_radial, spherical_jn_table)
from tribeta.franck_condon import overlaps, radial
from tribeta.franck_condon.overlaps import _derivative_matrix
from tribeta.fss import cumulative_moments, from_lines
from tribeta.physics import CONSTANTS

HART = CONSTANTS.hartree_ev


@pytest.fixture(scope="module")
def ground_engine(model):
    """J = 0 only: the pseudo-spectrum and operator moments need no more."""
    return RecoilEngine(model, j_max=0, v_max=40)


def identical_curves_model():
    curve = MorseParams(4.747, 1.0298, 1.4011)
    m = replace(default_model(), grid=GridSpec(points=512))
    return MoleculeModel(initial=curve,
                         channels=(Channel(kind="morse", weight=0.8, morse=curve),),
                         initial_mass_au=m.initial_mass_au,
                         final_mass_au=m.initial_mass_au,
                         grid=GridSpec(points=512))


class TestRecoilOverlaps:
    def test_q_zero_only_j0(self, small_model):
        engine = RecoilEngine(small_model, j_max=6, v_max=20)
        fss = engine.overlaps(0.0)
        assert set(fss.rotations[fss.channels == 0].tolist()) == {0}

    def test_q_zero_matches_plain_franck_condon(self, small_model):
        # w_c |<v|T2>|^2 from a separate dense J = 0 solve of 21 states
        engine = RecoilEngine(small_model, j_max=2, v_max=20)
        fss = engine.overlaps(0.0)
        basis = solve_radial(small_model, n_states=21)
        plain = small_model.channels[0].weight * (
            basis.wavefunctions.T @ engine.chi0 * engine.step) ** 2
        ground = fss.channels == 0
        order = np.argsort(fss.vibrations[ground], kind="stable")
        probs = fss.probabilities[ground][order]
        assert np.allclose(probs, plain, rtol=1e-10)

    def test_identical_potentials_orthonormality(self):
        engine = RecoilEngine(identical_curves_model(), j_max=2, v_max=10)
        fss = engine.overlaps(0.0)
        ground = (fss.vibrations == 0) & (fss.rotations == 0)
        assert fss.probabilities[ground].tolist() == pytest.approx([0.8],
                                                                   abs=1e-9)
        assert np.all(fss.probabilities[~ground] < 1e-12)

    def test_sum_rule_moderate_q(self, small_engine, small_model):
        fss = small_engine.overlaps(5.0)
        total = fss.probabilities[fss.channels == 0].sum()
        w_c = small_model.channels[0].weight
        assert total / w_c > 0.995

    def test_rotational_closure_moderate_q(self, small_engine):
        # closure over (v, J) from a J = 0 state: <J(J+1)> = (2/3) q^2 <R^2>
        q = 5.0
        fss = small_engine.overlaps(q)
        ground = fss.channels == 0
        p = fss.probabilities[ground]
        j = fss.rotations[ground]
        mean_jj = float(np.sum(j * (j + 1) * p) / p.sum())
        density = small_engine.chi0**2 * small_engine.step
        mean_r2 = float(np.sum(density * small_engine.radii**2))
        assert mean_jj == pytest.approx(2.0 / 3.0 * q**2 * mean_r2, rel=1e-6)

    def test_line_channels_pass_through(self, small_engine):
        fss = small_engine.overlaps(5.0)
        lumped = fss.channels == 1
        assert lumped.sum() == 1
        assert fss.energies[lumped][0] == pytest.approx(27.0)
        assert fss.probabilities[lumped][0] == pytest.approx(0.330)
        assert fss.rotations[lumped][0] == fss.vibrations[lumped][0] == -1

    def test_continuity_in_q(self, small_engine):
        q = 10.0
        delta = 1e-4
        a = small_engine.overlaps(q)
        b = small_engine.overlaps(q + delta)
        pa, pb = ({(j, v): p for c, j, v, p in zip(
            s.channels.tolist(), s.rotations.tolist(), s.vibrations.tolist(),
            s.probabilities.tolist()) if c == 0} for s in (a, b))
        # channel sums and a populated line both move smoothly
        assert abs(sum(pa.values()) - sum(pb.values())) < 1e-6
        key = max(pa, key=pa.get)
        assert abs(pa[key] - pb[key]) < 1e-3

    def test_one_dense_solve_per_channel(self, model, monkeypatch):
        # every J of a channel comes from one J = 0 solve; its check solves
        # the half grid, N/2 points, and nothing larger than the grid is
        # solved.  The T2 ground state is solved on leading blocks of N/8
        # and N/4 points
        sizes, dense = {}, []
        solve_grid, eigh = radial._solve_grid, radial.eigh

        def counted(potential, radii, mass_au, n_states):
            sizes.setdefault(mass_au, []).append(radii.size)
            return solve_grid(potential, radii, mass_au, n_states)

        def counted_eigh(a, *args, **kwargs):
            dense.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(radial, "_solve_grid", counted)
        monkeypatch.setattr(radial, "eigh", counted_eigh)
        RecoilEngine(model, j_max=60, v_max=80, convergence_check=True)
        n = model.grid.points
        assert sizes == {model.initial_mass_au: [n // 8, n // 4],
                         model.final_mass_au: [n, n // 2]}
        assert max(dense) == n

    def test_overlaps_match_grid_space_product(self, model, q_endpoint):
        # P_vJ from the J = 0 coefficient space against the grid-space
        # integral of (chi_K C_J)^T (j_J chi_0) dR; J = 60 holds P > 1e-6
        # only at q = 35, J = 0 only at q(W0)
        engine = RecoilEngine(model, j_max=60, v_max=80)
        bases = engine.bases[0]
        weight = model.channels[0].weight
        compared = set()
        for q in (q_endpoint, 35.0):
            fss = engine.overlaps(q)
            jtab = spherical_jn_table(60, q * engine.radii)
            for j in (0, 7, 60):
                integrals = (bases.chi @ bases.coefficients[j]).T \
                    @ (jtab[j] * engine.chi0) * engine.step
                expected = weight * (2 * j + 1) * integrals**2
                lines = (fss.channels == 0) & (fss.rotations == j)
                got = np.zeros_like(expected)
                got[fss.vibrations[lines]] = fss.probabilities[lines]
                big = expected > 1e-6
                if big.any():
                    compared.add(j)
                    assert np.abs(got[big] / expected[big] - 1.0).max() \
                        <= 1e-13
        assert compared == {0, 7, 60}

    def test_provenance_records_truncation(self, small_engine):
        fss = small_engine.overlaps(5.0)
        assert fss.q_ref == 5.0
        assert "truncation_deficit" in fss.provenance
        assert "model_hash" in fss.provenance

    def test_truncation_warning_is_always_recorded(self, small_engine, model):
        # a converged engine keeps > 99% of every channel; j_max 4, v_max 6
        # keeps about 65% of the ground channel at q = 4
        assert small_engine.overlaps(5.0).provenance[
            "truncation_warning"] is False
        truncated = RecoilEngine(model, j_max=4, v_max=6).overlaps(4.0)
        assert truncated.provenance["truncation_warning"] is True

    def test_generated_spectrum_file_round_trip(self, small_engine, tmp_path):
        from tribeta.fss import load_fss, save_fss
        fss = small_engine.overlaps(7.3)
        path = tmp_path / "gen.fss"
        save_fss(fss, str(path))
        back = load_fss(str(path))
        assert np.array_equal(back.energies, fss.energies)
        assert np.array_equal(back.probabilities, fss.probabilities)
        assert back.q_ref == fss.q_ref


class TestPseudoSpectrum:
    def test_hierarchy_and_calibration(self, ground_engine, model, q_endpoint):
        ps = ground_engine.pseudo_spectrum(q_endpoint)
        assert ps.vibrations.tolist() == list(range(len(ps)))
        shares = ps.probabilities / model.channels[0].weight
        assert shares[0] > shares[1] > shares[2] > shares[3]
        # v=0 share within a factor 2 of 52.2/57.4
        assert 0.522 / 0.574 / 2.0 <= shares[0] <= 1.0
        # v0/v1 ratio within a factor 2 of 52.2/4.62
        ratio = shares[0] / shares[1]
        assert 52.2 / 4.62 / 2.0 <= ratio <= 52.2 / 4.62 * 2.0

    def test_completeness(self, ground_engine, model, q_endpoint):
        ps = ground_engine.pseudo_spectrum(q_endpoint)
        assert ps.q_ref == q_endpoint
        assert ps.total_probability == pytest.approx(model.channels[0].weight,
                                                     abs=1e-3)

    def test_lines_carry_the_rotational_shift(self, ground_engine, model,
                                              q_endpoint):
        at_rest = ground_engine.pseudo_spectrum(0.0)
        recoiled = ground_engine.pseudo_spectrum(q_endpoint)
        assert at_rest.energies[0] == 0.0
        assert np.array_equal(recoiled.probabilities, at_rest.probabilities)
        assert np.allclose(recoiled.energies - at_rest.energies,
                           rotational_shift_ev(model, q_endpoint), rtol=1e-12)

    def test_at_rest_builds_only_j_zero(self, small_engine, small_model,
                                        q_endpoint, monkeypatch):
        # j_J(0) = delta_J0: every J >= 1 line of overlaps(0) has P = 0
        asked = []
        table = overlaps.spherical_jn_table

        def recording(l_max, x):
            asked.append(l_max)
            return table(l_max, x)

        monkeypatch.setattr(overlaps, "spherical_jn_table", recording)
        ps = small_engine.pseudo_spectrum(q_endpoint)
        assert asked == [0]
        assert ps.vibrations.tolist() == list(range(len(ps)))
        assert ps.total_probability == pytest.approx(
            small_model.channels[0].weight, abs=1e-3)
        small_engine.overlaps(q_endpoint)
        assert asked == [0, small_engine.j_max]

    def test_rotational_shift_value(self, model):
        shift = rotational_shift_ev(model, 18.6)
        assert shift == pytest.approx(1.72, rel=0.02)


class TestOperatorMoments:
    def test_high_energy_mean(self, ground_engine, model, q_endpoint):
        m = ground_engine.operator_moments(q_endpoint, 1e6)
        assert m.open
        assert m.p_open == pytest.approx(model.channels[0].weight, abs=1e-3)
        assert m.mean_e == pytest.approx(1.75, abs=0.05)

    def test_q_zero_reduces_to_vibrational(self, ground_engine):
        m = ground_engine.operator_moments(0.0, 1e6)
        ps = ground_engine.pseudo_spectrum(0.0)
        vib_mean = float((ps.probabilities * ps.energies).sum()
                         / ps.total_probability)
        assert m.mean_e == pytest.approx(vib_mean, abs=1e-9)

    def test_closed_below_first_line(self, ground_engine, q_endpoint):
        m = ground_engine.operator_moments(q_endpoint, 0.5)
        assert not m.open

    def test_gradient_correction_positive(self, ground_engine, q_endpoint):
        # <Lap> < 0, so the Eq-style correction adds to <E^2>
        ps = ground_engine.pseudo_spectrum(q_endpoint)
        plain = float((ps.probabilities * ps.energies ** 2).sum()
                      / ps.total_probability)
        m = ground_engine.operator_moments(q_endpoint, 1e6)
        assert m.mean_e2 > plain

    def test_consistency_with_full_fss(self, small_engine, q_endpoint):
        # mean excitation from the recoil FSS vs the operator expression
        fss = small_engine.overlaps(q_endpoint)
        ground = fss.channels == 0
        p = fss.probabilities[ground]
        e = fss.energies[ground]
        full_mean = float((p * e).sum() / p.sum())
        op_mean = small_engine.operator_moments(q_endpoint, 1e6).mean_e
        assert abs(op_mean - full_mean) / full_mean < 0.01

    @pytest.mark.parametrize("q", [5.0, 10.0])
    def test_second_moment_matches_full_fss(self, small_engine, q):
        # <E^2> of the full recoil FSS, channel 0: the pseudo-spectrum plus
        # the angular-averaged gradient term w_c (1/3) (q/M)^2 <-d^2/dR^2>
        fss = small_engine.overlaps(q)
        ground = fss.channels == 0
        full = cumulative_moments(
            from_lines([(fss.energies[ground], fss.probabilities[ground], 0,
                         -1, -1)]), 1e6)
        op = small_engine.operator_moments(q, 1e6)
        assert op.mean_e2 == pytest.approx(full.mean_e2, rel=1e-4)


class TestCommutatorTerm:
    def test_zero_at_q_zero(self, ground_engine):
        assert ground_engine.c_term_bound(0.0) == 0.0

    def test_bounded_at_physical_q(self, ground_engine, q_endpoint):
        assert ground_engine.c_term_bound(q_endpoint) <= 0.1

    def test_scales_as_q_squared(self, ground_engine):
        c1 = ground_engine.c_term_bound(5.0)
        c2 = ground_engine.c_term_bound(10.0)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-9)

    def test_analytic_cross_check(self, ground_engine, model, q_endpoint):
        # <C> = -1/2 (q/M)^2 <V''> for a real bound state (integration by
        # parts); finite differences of V give an independent estimate
        chi0 = ground_engine.chi0
        r, h = ground_engine.radii, ground_engine.step
        v = model.potential(0)
        vpp = np.gradient(np.gradient(v, r), r)
        expected = 0.5 * (q_endpoint / model.final_mass_au) ** 2 \
            * float((chi0**2 * vpp).sum() * h) * HART**3
        assert ground_engine.c_term_bound(q_endpoint) == pytest.approx(
            expected, rel=0.05)

    def test_commutator_order_consistency(self, small_engine, small_model):
        # [H, D] chi via matrix-free application vs explicit matrix product
        chi0 = small_engine.chi0
        n, h = small_engine.radii.size, small_engine.step
        tmat = kinetic_matrix(n, h, small_model.final_mass_au)
        hmat = tmat + np.diag(small_model.potential(0))
        dmat = _derivative_matrix(n, h)
        via_products = (hmat @ dmat - dmat @ hmat) @ chi0
        via_vectors = hmat @ (dmat @ chi0) - dmat @ (hmat @ chi0)
        scale = np.abs(via_products).max()
        assert np.abs(via_products - via_vectors).max() < 1e-8 * scale


MOMENT_METHODS = ("pseudo_spectrum", "operator_moments", "c_term_bound")


def call_moment_method(engine, name, q):
    if name == "operator_moments":
        return engine.operator_moments(q, 1e6)
    return getattr(engine, name)(q)


class TestEngineMomentMethods:
    @pytest.mark.parametrize("name", MOMENT_METHODS)
    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -1.0])
    def test_bad_q_rejected(self, small_engine, name, q):
        with pytest.raises(ValidationError,
                           match="recoil momentum must be finite and >= 0"):
            call_moment_method(small_engine, name, q)

    def test_no_eigensolve(self, small_engine, q_endpoint, monkeypatch):
        # chi_0 and the channel-0 J = 0 basis are the engine's: the moment
        # methods read them and solve nothing
        def unreachable(*args, **kwargs):
            raise AssertionError("eigensolve after the engine set-up")

        for module, names in ((overlaps, ("solve_initial", "rotational_bases")),
                              (radial, ("solve_initial", "rotational_bases",
                                        "solve_radial", "eigh")),
                              (scipy.linalg, ("eigh",)),
                              (np.linalg, ("eigh",))):
            for name in names:
                monkeypatch.setattr(module, name, unreachable)
        for name in MOMENT_METHODS:
            call_moment_method(small_engine, name, q_endpoint)
