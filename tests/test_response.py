"""Convolution quadrature and seeded Poisson pseudo-data."""

import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import tribeta.response
from tribeta.errors import ConfigurationError, ModelError, ValidationError
from tribeta.kernel import (SpectrumParams, integral_spectrum,
                            integral_spectrum_derivatives, spectrum_prefactor)
from tribeta.response import (Lattice, PseudoDataset, ResponseModel, convolve,
                              draw_pseudodata, expected_counts,
                              expected_dataset, generate_pseudodata,
                              load_dataset, poisson_sample, save_dataset)

W0 = 18575.0


class TestResponseModel:
    def test_kernel_unit_normalization(self):
        r = ResponseModel(sigma_ev=2.5)
        assert r.weights().sum() == pytest.approx(1.0, abs=1e-15)
        # trapezoid integral of the unnormalized Gaussian on the same grid
        x = r.offsets()
        raw = np.exp(-x * x / (2.0 * r.sigma_ev**2)) \
            / (math.sqrt(2.0 * math.pi) * r.sigma_ev)
        assert abs(1.0 - np.trapezoid(raw, x)) < 1e-8

    def test_too_coarse_rejected(self):
        with pytest.raises(ConfigurationError):
            ResponseModel(sigma_ev=2.5, step_fraction=0.5)

    def test_too_narrow_rejected(self):
        with pytest.raises(ConfigurationError):
            ResponseModel(sigma_ev=2.5, half_width_sigmas=3.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            ResponseModel(sigma_ev=0.0)


class TestConvolve:
    def test_constant_passes_through(self):
        smeared = convolve(lambda e: np.full_like(np.asarray(e, float), 4.25),
                           ResponseModel(sigma_ev=3.0))
        out = smeared(np.array([10.0, 50.0, 91.7]))
        assert np.allclose(out, 4.25, rtol=1e-14)

    def test_delta_limit_identity(self):
        f = lambda e: np.sin(np.asarray(e) / 37.0) + 2.0
        smeared = convolve(f, ResponseModel(sigma_ev=1e-3))
        x = np.array([12.0, 40.0, 333.0])
        assert np.allclose(smeared(x), f(x), atol=1e-6)

    def test_step_matches_erf_profile(self):
        # fine quadrature resolves the jump to the requested accuracy
        sigma, edge = 2.0, 100.0
        step_fn = lambda e: np.where(np.asarray(e) > edge, 1.0, 0.0)
        response = ResponseModel(sigma_ev=sigma, step_fraction=5e-6)
        smeared = convolve(step_fn, response)
        for x in (edge - 2.7, edge, edge + 1.3, edge + 5.1):
            exact = 0.5 * (1.0 + erf((x - edge) / (sigma * math.sqrt(2.0))))
            assert smeared(x) == pytest.approx(exact, abs=1e-6)

    def test_preserves_integral(self):
        # compactly supported bump keeps its area under smearing
        bump = lambda e: np.exp(-0.5 * ((np.asarray(e) - 50.0) / 3.0) ** 2)
        smeared = convolve(bump, ResponseModel(sigma_ev=2.0))
        x = np.linspace(0.0, 100.0, 4001)
        h = x[1] - x[0]
        raw = np.trapezoid(bump(x), dx=h)
        conv = np.trapezoid(smeared(x), dx=h)
        assert conv == pytest.approx(raw, rel=1e-8)

    def test_no_negative_output(self):
        f = lambda e: np.where(np.asarray(e) > 10.0, 1.0, 0.0)
        smeared = convolve(f, ResponseModel(sigma_ev=1.0))
        assert np.all(smeared(np.linspace(0.0, 20.0, 100)) >= 0.0)

    def test_translation_equivariance(self):
        f = lambda e: np.exp(-0.5 * ((np.asarray(e) - 40.0) / 5.0) ** 2)
        g = lambda e: np.exp(-0.5 * ((np.asarray(e) - 47.0) / 5.0) ** 2)
        r = ResponseModel(sigma_ev=1.5)
        assert convolve(f, r)(40.0) == pytest.approx(convolve(g, r)(47.0),
                                                     rel=1e-12)

    def test_linearity(self):
        f = lambda e: np.sin(np.asarray(e) / 11.0)
        g = lambda e: np.cos(np.asarray(e) / 7.0)
        combo = lambda e: 2.5 * f(e) - 0.75 * g(e)
        r = ResponseModel(sigma_ev=2.0)
        x = np.array([3.0, 25.0, 60.0])
        expected = 2.5 * convolve(f, r)(x) - 0.75 * convolve(g, r)(x)
        assert np.allclose(convolve(combo, r)(x), expected, rtol=1e-12)

    def test_each_grid_energy_evaluated_once(self):
        # 2 eV bins on the 0.25 eV offset lattice share most grid energies
        r = ResponseModel(sigma_ev=2.5)
        centers = W0 + np.arange(-200.0, 11.0) * 2.0
        grid = centers[:, None] - r.offsets()[None, :]
        calls = []

        def spectrum(e):
            calls.append(np.array(e))
            return (e - W0) ** 2  # correctly rounded: same bits on any path

        out = convolve(spectrum, r)(centers)
        assert len(calls) == 1
        assert calls[0].ndim == 1
        assert np.array_equal(calls[0], np.unique(grid))
        assert calls[0].size == 1801 < grid.size
        assert np.array_equal(out, ((grid - W0) ** 2) @ r.weights())

    @pytest.mark.parametrize("drift", [False, True])
    def test_expected_counts_is_the_direct_grid_sum(self, study_fss, drift):
        p = SpectrumParams(amplitude=1.3, endpoint_ev=W0, m2nu_ev2=0.2,
                           background=7.0, endpoint_drift=drift)
        r = ResponseModel(sigma_ev=2.5)
        centers = W0 + np.arange(-200.0, 11.0) * 2.0
        exposure = 3.0e3
        grid = centers[:, None] - r.offsets()[None, :]
        direct = integral_spectrum(grid.ravel(), p, study_fss).reshape(grid.shape)
        expected = exposure * (direct @ r.weights()) + p.background
        mu = expected_counts(p, study_fss, r, centers, exposure)
        assert np.array_equal(mu, expected)

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("depth", [100.0, 200.0, 400.0])
    def test_shared_lattice_is_bit_identical(self, study_fss, depth, drift):
        # one lattice per window, reused across parameter points as a fit does
        r = ResponseModel(sigma_ev=2.5)
        centers = np.arange(W0 - depth, W0 + 20.0 + 1e-9, 2.0)
        lattice = Lattice.build(r, centers)
        grid = centers[:, None] - r.offsets()[None, :]
        assert np.array_equal(lattice.energies[lattice.inverse], grid)
        exposure = 3.0e3
        for m2nu, w0 in ((-0.5, W0), (0.0, W0 - 0.3), (0.5, W0 + 0.2)):
            p = SpectrumParams(amplitude=1.3, endpoint_ev=w0, m2nu_ev2=m2nu,
                               background=7.0, endpoint_drift=drift)
            mu = expected_counts(p, study_fss, r, centers, exposure)
            direct = integral_spectrum(grid.ravel(), p, study_fss)
            assert np.array_equal(
                mu, exposure * (direct.reshape(grid.shape) @ r.weights())
                + p.background)
            mu_d, _, _ = lattice.counts_with_derivatives(p, study_fss,
                                                         exposure)
            assert np.array_equal(mu_d, mu)

    def test_prefactor_once_per_nuclear_charge(self, study_fss, monkeypatch):
        r = ResponseModel(sigma_ev=2.5)
        centers = np.arange(W0 - 100.0, W0 + 20.0 + 1e-9, 2.0)
        lattice = Lattice.build(r, centers)
        computed = []

        def counting(eps, z_daughter):
            computed.append(z_daughter)
            return spectrum_prefactor(eps, z_daughter)

        monkeypatch.setattr(tribeta.response, "spectrum_prefactor", counting)
        for z in (2, 1):
            for m2nu in (-0.5, 0.5):
                p = SpectrumParams(amplitude=1.3, endpoint_ev=W0,
                                   m2nu_ev2=m2nu, z_daughter=z)
                direct = integral_spectrum_derivatives(lattice.energies, p,
                                                       study_fss)
                passed = lattice.counts_with_derivatives(p, study_fss, 1.0)
                assert all(np.array_equal(a, lattice.smear(b))
                           for a, b in zip(passed, direct))
                assert np.array_equal(
                    lattice.counts(p, study_fss, 1.0),
                    lattice.smear(integral_spectrum(lattice.energies, p,
                                                    study_fss)))
        assert computed == [2, 1]
        assert not lattice.prefactor(2).flags.writeable


class TestPoissonSampler:
    def test_deterministic_given_seed(self, study_fss):
        p = SpectrumParams(amplitude=1e-10, endpoint_ev=W0, background=5.0)
        r = ResponseModel(sigma_ev=2.5)
        bins = np.arange(W0 - 60.0, W0 + 10.0, 2.0)
        a = generate_pseudodata(p, study_fss, r, bins, 1.0, seed=42)
        b = generate_pseudodata(p, study_fss, r, bins, 1.0, seed=42)
        c = generate_pseudodata(p, study_fss, r, bins, 1.0, seed=43)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_zero_exposure_background_only(self, study_fss):
        p = SpectrumParams(amplitude=1.0, endpoint_ev=W0, background=7.0)
        r = ResponseModel(sigma_ev=2.5)
        bins = np.arange(W0 - 20.0, W0 + 10.0, 2.0)
        ds = generate_pseudodata(p, study_fss, r, bins, 0.0, seed=1)
        assert abs(ds.counts.mean() - 7.0) < 3.0 * math.sqrt(7.0 / len(bins)) + 1.0

    def test_law_of_large_numbers_both_branches(self):
        rng = np.random.Generator(np.random.PCG64(999))
        for mu in (0.8, 25.0, 300.0, 4.1e6):  # inversion and PTRS paths
            n = 10000 if mu < 1e5 else 2000
            draws = poisson_sample(rng, np.full(n, mu))
            se = math.sqrt(mu / n)
            assert abs(draws.mean() - mu) < 4.0 * se
            assert abs(draws.var() / mu - 1.0) < 0.15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e21])
    def test_unsamplable_mu_is_a_model_error(self, bad):
        rng = np.random.Generator(np.random.PCG64(1))
        with pytest.raises(ModelError, match=re.escape(f"mu = {bad} in bin 2 ")):
            poisson_sample(rng, np.array([3.0, 50.0, bad, 4.0]))

    def test_bins_outside_window_rejected(self, study_fss):
        p = SpectrumParams(amplitude=1.0, endpoint_ev=W0)
        r = ResponseModel(sigma_ev=2.5)
        with pytest.raises(ValidationError):
            generate_pseudodata(p, study_fss, r, np.array([W0 - 2000.0]), 1.0, 1)
        with pytest.raises(ValidationError):
            generate_pseudodata(p, study_fss, r, np.array([W0 + 100.0]), 1.0, 1)

    def test_expected_then_drawn_is_generated(self, study_fss):
        # generate_pseudodata is the expected counts, then the draw
        p = SpectrumParams(amplitude=1e-10, endpoint_ev=W0, background=5.0)
        r = ResponseModel(sigma_ev=2.5)
        bins = np.arange(W0 - 60.0, W0 + 10.0, 2.0)
        expected = expected_dataset(p, study_fss, Lattice.build(r, bins), 3.0)
        assert np.array_equal(expected.counts,
                              expected_counts(p, study_fss, r, bins, 3.0))
        assert (expected.seed, expected.truth["seed"]) == (-1, None)
        assert not expected.counts.flags.writeable
        assert not expected.bin_centers.flags.writeable
        for seed in (42, 43):
            drawn = draw_pseudodata(expected, seed)
            generated = generate_pseudodata(p, study_fss, r, bins, 3.0, seed)
            assert np.array_equal(drawn.counts, generated.counts)
            assert np.array_equal(drawn.bin_centers, generated.bin_centers)
            assert (drawn.exposure, drawn.seed) == (3.0, seed)
            assert drawn.truth == generated.truth
        # the expected counts are left as they were
        assert expected.truth["seed"] is None

    def test_pickle_round_trip_keeps_expected_read_only(self, study_fss):
        # bias_scan sends each window's expected counts to its worker
        # processes by pickle
        p = SpectrumParams(amplitude=1e-10, endpoint_ev=W0, background=5.0)
        lattice = Lattice.build(ResponseModel(sigma_ev=2.5),
                                np.arange(W0 - 60.0, W0 + 10.0, 2.0))
        expected = expected_dataset(p, study_fss, lattice, 3.0)
        # the dataset holds its own copy of the lattice's centres
        assert np.array_equal(expected.bin_centers, lattice.bin_centers)
        assert not np.shares_memory(expected.bin_centers, lattice.bin_centers)
        back = pickle.loads(pickle.dumps(expected))
        assert (back.exposure, back.seed, back.truth) == \
            (expected.exposure, expected.seed, expected.truth)
        for name in ("bin_centers", "counts"):
            array = getattr(back, name)
            assert np.array_equal(array, getattr(expected, name))
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_counts_match_expectation_scale(self, study_fss):
        p = SpectrumParams(amplitude=1.0, endpoint_ev=W0, background=0.0)
        r = ResponseModel(sigma_ev=2.5)
        bins = np.array([W0 - 100.0])
        mu = expected_counts(p, study_fss, r, bins, 1.0)
        exposure = 1e4 / mu[0]
        reps = [generate_pseudodata(p, study_fss, r, bins, exposure, seed=s).counts[0]
                for s in range(200)]
        assert np.mean(reps) == pytest.approx(1e4, abs=4.0 * 100.0 / math.sqrt(200))


class TestDatasetIO:
    def test_round_trip(self, tmp_path, study_fss):
        p = SpectrumParams(amplitude=1e-12, endpoint_ev=W0, background=3.0)
        r = ResponseModel(sigma_ev=2.5)
        bins = np.arange(W0 - 30.0, W0 + 6.0, 3.0)
        ds = generate_pseudodata(p, study_fss, r, bins, 2.0, seed=7)
        # a path is a string or an os.PathLike
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        assert Path(f"{path}.json").is_file()
        back = load_dataset(path)
        assert np.array_equal(back.counts, ds.counts)
        assert np.allclose(back.bin_centers, ds.bin_centers)
        assert back.seed == 7
        assert back.exposure == 2.0

    def test_expected_counts_are_refused_before_writing(self, tmp_path,
                                                       study_fss):
        # float counts would be written as text that load_dataset refuses
        p = SpectrumParams(amplitude=1e-12, endpoint_ev=W0, background=3.0)
        lattice = Lattice.build(ResponseModel(sigma_ev=2.5),
                                np.arange(W0 - 30.0, W0 + 6.0, 3.0))
        path = tmp_path / "expected.csv"
        with pytest.raises(ValidationError,
                           match="counts must be integers, got float64"):
            save_dataset(expected_dataset(p, study_fss, lattice, 2.0), path)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def bare_dataset(tmp_path, study_fss):
        """A saved dataset whose sidecar the caller then rewrites."""
        p = SpectrumParams(amplitude=1e-12, endpoint_ev=W0, background=3.0)
        bins = np.arange(W0 - 30.0, W0 + 6.0, 3.0)
        ds = generate_pseudodata(p, study_fss, ResponseModel(sigma_ev=2.5),
                                 bins, 2.0, seed=7)
        path = tmp_path / "data.csv"
        save_dataset(ds, str(path))
        return path

    @pytest.mark.parametrize("sidecar,fragment", [
        ("[1, 2]", "expected a JSON object"),
        ("null", "expected a JSON object"),
        ('{"exposure": "abc"}', "exposure: expected a finite number"),
        ('{"exposure": -1.0}', "exposure: expected a finite number"),
        ('{"exposure": NaN}', "exposure: expected a finite number"),
        ('{"exposure": Infinity}', "exposure: expected a finite number"),
        ('{"exposure": true}', "exposure: expected a finite number"),
        ('{"exposure": 2.0, "seed": 1.5}', "seed: expected an integer"),
        ('{"exposure": 2.0, "seed": "3"}', "seed: expected an integer"),
    ])
    def test_bad_sidecar_rejected(self, tmp_path, study_fss, sidecar,
                                  fragment):
        path = self.bare_dataset(tmp_path, study_fss)
        Path(f"{path}.json").write_text(sidecar)
        with pytest.raises(ValidationError, match=fragment) as info:
            load_dataset(str(path))
        assert f"{path}.json" in str(info.value)

    @pytest.mark.parametrize("row", [
        "nan,12", "inf,12", "-inf,12", "18560.0,-1", "18560.0,12.5",
        "18560.0", "x,12"])
    def test_bad_row_rejected(self, tmp_path, study_fss, row):
        path = self.bare_dataset(tmp_path, study_fss)
        lines = path.read_text().splitlines()
        lines[4] = row
        path.write_text("\n".join(lines) + "\n")
        message = (f"{path} row 5: expected a finite bin centre and an "
                   f"integer count >= 0, got {row.split(',')!r}")
        with pytest.raises(ValidationError) as info:
            load_dataset(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("sidecar,reason", [
        (None, "not found"), ('{"seed": 3}', "has no exposure")])
    def test_exposure_fallback_warns(self, tmp_path, study_fss, sidecar,
                                     reason):
        path = self.bare_dataset(tmp_path, study_fss)
        if sidecar is None:
            Path(f"{path}.json").unlink()
        else:
            Path(f"{path}.json").write_text(sidecar)
        with pytest.warns(UserWarning) as record:
            back = load_dataset(str(path))
        assert len(record) == 1
        message = str(record[0].message)
        assert f"{path}.json {reason}" in message
        assert "exposure = 1.0" in message
        assert back.exposure == 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            PseudoDataset(bin_centers=np.array([1.0]),
                          counts=np.array([-1]), exposure=1.0, seed=0)
