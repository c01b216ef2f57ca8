"""Recoil overlaps, pseudo-spectrum and the operator-moment machinery."""

import numpy as np
import pytest

from tribeta.franck_condon import (Channel, GridSpec, MoleculeModel,
                                   MorseParams, RecoilEngine, c_term_bound,
                                   default_model, kinetic_matrix,
                                   laplacian_expectation, operator_moments,
                                   pseudo_spectrum, rotational_shift_ev,
                                   solve_initial)
from tribeta.franck_condon.overlaps import _derivative_matrix
from tribeta.fss import cumulative_moments, from_lines
from tribeta.physics import CONSTANTS

HART = CONSTANTS.hartree_ev


def identical_curves_model():
    curve = MorseParams(4.747, 1.0298, 1.4011)
    m = default_model(grid=GridSpec(points=512))
    return MoleculeModel(initial=curve,
                         channels=(Channel(kind="morse", weight=0.8, morse=curve),),
                         initial_mass_au=m.initial_mass_au,
                         final_mass_au=m.initial_mass_au,
                         grid=GridSpec(points=512))


class TestRecoilOverlaps:
    def test_q_zero_only_j0(self, small_model):
        engine = RecoilEngine(small_model, j_max=6, v_max=20)
        fss = engine.overlaps(0.0)
        rotations = {l.rotation for l in fss.lines if l.channel == 0}
        assert rotations == {0}

    def test_q_zero_matches_plain_franck_condon(self, small_model):
        engine = RecoilEngine(small_model, j_max=2, v_max=20)
        fss = engine.overlaps(0.0)
        ps = pseudo_spectrum(small_model, 0.0, v_max=20)
        probs = [l.probability for l in sorted(
            (l for l in fss.lines if l.channel == 0),
            key=lambda l: l.vibration)]
        assert np.allclose(probs, ps.probabilities, rtol=1e-10)

    def test_identical_potentials_orthonormality(self):
        engine = RecoilEngine(identical_curves_model(), j_max=2, v_max=10)
        fss = engine.overlaps(0.0)
        lines = {(l.vibration, l.rotation): l.probability for l in fss.lines}
        assert lines[(0, 0)] == pytest.approx(0.8, abs=1e-9)
        others = [p for (v, j), p in lines.items() if (v, j) != (0, 0)]
        assert max(others, default=0.0) < 1e-12

    def test_sum_rule_moderate_q(self, small_engine, small_model):
        fss = small_engine.overlaps(5.0)
        total = sum(l.probability for l in fss.lines if l.channel == 0)
        w_c = small_model.channels[0].weight
        assert total / w_c > 0.995

    def test_rotational_closure_moderate_q(self, small_engine):
        # closure over (v, J) from a J = 0 state: <J(J+1)> = (2/3) q^2 <R^2>
        q = 5.0
        fss = small_engine.overlaps(q)
        lines = [l for l in fss.lines if l.channel == 0]
        p = np.array([l.probability for l in lines])
        j = np.array([l.rotation for l in lines])
        mean_jj = float(np.sum(j * (j + 1) * p) / p.sum())
        density = small_engine.chi0**2 * small_engine.step
        mean_r2 = float(np.sum(density * small_engine.radii**2))
        assert mean_jj == pytest.approx(2.0 / 3.0 * q**2 * mean_r2, rel=1e-6)

    def test_line_channels_pass_through(self, small_engine):
        fss = small_engine.overlaps(5.0)
        lumped = [l for l in fss.lines if l.channel == 1]
        assert len(lumped) == 1
        assert lumped[0].energy_ev == pytest.approx(27.0)
        assert lumped[0].probability == pytest.approx(0.330)

    def test_continuity_in_q(self, small_engine):
        q = 10.0
        delta = 1e-4
        a = small_engine.overlaps(q)
        b = small_engine.overlaps(q + delta)
        pa = {(l.rotation, l.vibration): l.probability
              for l in a.lines if l.channel == 0}
        pb = {(l.rotation, l.vibration): l.probability
              for l in b.lines if l.channel == 0}
        # channel sums and a populated line both move smoothly
        assert abs(sum(pa.values()) - sum(pb.values())) < 1e-6
        key = max(pa, key=pa.get)
        assert abs(pa[key] - pb[key]) < 1e-3

    def test_provenance_records_truncation(self, small_engine):
        fss = small_engine.overlaps(5.0)
        assert fss.q_ref == 5.0
        assert "truncation_deficit" in fss.provenance
        assert "model_hash" in fss.provenance

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
    def test_hierarchy_and_calibration(self, model, q_endpoint):
        ps = pseudo_spectrum(model, q_endpoint)
        assert [l.vibration for l in ps.lines] == list(range(len(ps)))
        shares = ps.probabilities / model.channels[0].weight
        assert shares[0] > shares[1] > shares[2] > shares[3]
        # v=0 share within a factor 2 of 52.2/57.4
        assert 0.522 / 0.574 / 2.0 <= shares[0] <= 1.0
        # v0/v1 ratio within a factor 2 of 52.2/4.62
        ratio = shares[0] / shares[1]
        assert 52.2 / 4.62 / 2.0 <= ratio <= 52.2 / 4.62 * 2.0

    def test_completeness(self, model, q_endpoint):
        ps = pseudo_spectrum(model, q_endpoint, v_max=40)
        assert ps.q_ref == q_endpoint
        assert ps.total_probability == pytest.approx(model.channels[0].weight,
                                                     abs=1e-3)

    def test_lines_carry_the_rotational_shift(self, model, q_endpoint):
        at_rest = pseudo_spectrum(model, 0.0)
        recoiled = pseudo_spectrum(model, q_endpoint)
        assert at_rest.energies[0] == 0.0
        assert np.array_equal(recoiled.probabilities, at_rest.probabilities)
        assert np.allclose(recoiled.energies - at_rest.energies,
                           rotational_shift_ev(model, q_endpoint), rtol=1e-12)

    def test_rotational_shift_value(self, model):
        shift = rotational_shift_ev(model, 18.6)
        assert shift == pytest.approx(1.72, rel=0.02)


class TestOperatorMoments:
    def test_high_energy_mean(self, model, q_endpoint):
        m = operator_moments(model, q_endpoint, 1e6)
        assert m.open
        assert m.p_open == pytest.approx(model.channels[0].weight, abs=1e-3)
        assert m.mean_e == pytest.approx(1.75, abs=0.05)

    def test_q_zero_reduces_to_vibrational(self, model):
        m = operator_moments(model, 0.0, 1e6)
        ps = pseudo_spectrum(model, 0.0)
        vib_mean = float((ps.probabilities * ps.energies).sum()
                         / ps.total_probability)
        assert m.mean_e == pytest.approx(vib_mean, abs=1e-9)

    def test_closed_below_first_line(self, model, q_endpoint):
        m = operator_moments(model, q_endpoint, 0.5)
        assert not m.open

    def test_gradient_correction_positive(self, model, q_endpoint):
        # <Lap> < 0, so the Eq-style correction adds to <E^2>
        lap = laplacian_expectation(model)
        assert lap < 0.0
        ps = pseudo_spectrum(model, q_endpoint)
        plain = float((ps.probabilities * ps.energies ** 2).sum()
                      / ps.total_probability)
        m = operator_moments(model, q_endpoint, 1e6)
        assert m.mean_e2 > plain

    def test_consistency_with_full_fss(self, small_engine, small_model,
                                       q_endpoint):
        # mean excitation from the recoil FSS vs the operator expression
        fss = small_engine.overlaps(q_endpoint)
        ground = [l for l in fss.lines if l.channel == 0]
        p = np.array([l.probability for l in ground])
        e = np.array([l.energy_ev for l in ground])
        full_mean = float((p * e).sum() / p.sum())
        op_mean = operator_moments(small_model, q_endpoint, 1e6, v_max=40).mean_e
        assert abs(op_mean - full_mean) / full_mean < 0.01

    @pytest.mark.parametrize("q", [5.0, 10.0])
    def test_second_moment_matches_full_fss(self, small_engine, small_model, q):
        # <E^2> of the full recoil FSS, channel 0: the pseudo-spectrum plus
        # the angular-averaged gradient term w_c (1/3) (q/M)^2 <-d^2/dR^2>
        ground = [l for l in small_engine.overlaps(q).lines if l.channel == 0]
        full = cumulative_moments(from_lines(ground), 1e6)
        op = operator_moments(small_model, q, 1e6)
        assert op.mean_e2 == pytest.approx(full.mean_e2, rel=1e-4)


class TestCommutatorTerm:
    def test_zero_at_q_zero(self, model):
        assert c_term_bound(model, 0.0) == 0.0

    def test_bounded_at_physical_q(self, model, q_endpoint):
        assert c_term_bound(model, q_endpoint) <= 0.1

    def test_scales_as_q_squared(self, model):
        c1 = c_term_bound(model, 5.0)
        c2 = c_term_bound(model, 10.0)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-9)

    def test_analytic_cross_check(self, model, q_endpoint):
        # <C> = -1/2 (q/M)^2 <V''> for a real bound state (integration by
        # parts); finite differences of V give an independent estimate
        init = solve_initial(model)
        chi0 = init.wavefunctions[:, 0]
        r, h = init.radii, init.step
        v = model.potential(0)
        vpp = np.gradient(np.gradient(v, r), r)
        expected = 0.5 * (q_endpoint / model.final_mass_au) ** 2 \
            * float((chi0**2 * vpp).sum() * h) * HART**3
        assert c_term_bound(model, q_endpoint) == pytest.approx(expected, rel=0.05)

    def test_commutator_order_consistency(self, small_model):
        # [H, D] chi via matrix-free application vs explicit matrix product
        init = solve_initial(small_model)
        chi0 = init.wavefunctions[:, 0]
        n, h = init.radii.size, init.step
        tmat = kinetic_matrix(n, h, small_model.final_mass_au)
        hmat = tmat + np.diag(small_model.potential(0))
        dmat = _derivative_matrix(n, h)
        via_products = (hmat @ dmat - dmat @ hmat) @ chi0
        via_vectors = hmat @ (dmat @ chi0) - dmat @ (hmat @ chi0)
        scale = np.abs(via_products).max()
        assert np.abs(via_products - via_vectors).max() < 1e-8 * scale
