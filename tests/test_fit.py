"""Chi-square fitting: exact recovery, oracle values, covariance contracts."""

import pickle
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import tribeta.kernel
from tribeta.errors import ValidationError
from tribeta.fit import (PARAM_NAMES, FitConfig, FitModel, _param_scales,
                         minimize)
from tribeta.fss import from_lines
from tribeta.kernel import SpectrumParams
from tribeta.response import (Lattice, PseudoDataset, ResponseModel,
                              draw_pseudodata, expected_counts,
                              expected_dataset, generate_pseudodata)

mp.mp.dps = 30

W0 = 18575.0
#: the response of the `setup` datasets, and of the fits of them
RESPONSE = ResponseModel(sigma_ev=2.5)


@pytest.fixture(scope="module")
def setup(study_fss):
    response = RESPONSE
    truth = SpectrumParams(amplitude=1.0, endpoint_ev=W0, m2nu_ev2=0.0,
                           background=400.0)
    centers = np.arange(W0 - 200.0, W0 + 20.0 + 1e-9, 2.0)
    rate = expected_counts(truth.with_values(background=0.0), study_fss,
                           response, np.array([W0 - 200.0]), 1.0)[0]
    exposure = 1e8 / rate
    mu = expected_counts(truth, study_fss, response, centers, exposure)
    zero_noise = PseudoDataset(bin_centers=centers, counts=mu,
                               exposure=exposure)
    return study_fss, response, truth, centers, exposure, zero_noise


def make_config(study_fss, initial, window=(W0 - 200.0, W0 + 20.0)):
    return FitConfig(window_ev=window, initial=initial, fss=study_fss)


def build(dataset, cfg, response=RESPONSE):
    """The fit model of `dataset`'s bins under `response`, and its
    exposure."""
    return FitModel.build(Lattice.build(response, dataset.bin_centers),
                          dataset.exposure, cfg)


def window_counts(dataset, model):
    """`dataset`'s counts in the model's window, as the fit reads them."""
    return dataset.counts[model.mask].astype(float)


def fit(dataset, cfg):
    """`minimize` of `dataset`'s counts on the model of its bins."""
    return minimize(dataset.counts, build(dataset, cfg))


def chi2_at(params, dataset, cfg, response=RESPONSE):
    """r . r of the fitter's Pearson residuals at `params`."""
    model = build(dataset, replace(cfg, initial=params), response)
    r, _ = model.residuals(window_counts(dataset, model), model.x0)
    return float(r @ r)


class TestChiSquare:
    def test_zero_at_truth(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        cfg = make_config(fss, truth)
        assert chi2_at(truth, zero_noise, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_positive_after_perturbation(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        cfg = make_config(fss, truth)
        bumped = truth.with_values(amplitude=truth.amplitude * 1.01)
        assert chi2_at(bumped, zero_noise, cfg) > 0.0

    def test_30_digit_oracle(self, study_fss):
        # small reference dataset, chi^2 recomputed in 30-digit arithmetic
        response = ResponseModel(sigma_ev=2.0)
        truth = SpectrumParams(amplitude=1e-11, endpoint_ev=W0, background=6.0)
        centers = np.arange(W0 - 24.0, W0 + 1e-9, 2.0)
        fss = from_lines([(study_fss.energies[:5], study_fss.probabilities[:5],
                           study_fss.channels[:5], study_fss.rotations[:5],
                           study_fss.vibrations[:5])])
        dataset = generate_pseudodata(truth, fss, response, centers, 1.0,
                                      seed=20260809)
        cfg = FitConfig(window_ev=(centers[0], centers[-1]), initial=truth,
                        fss=fss)
        ours = chi2_at(truth, dataset, cfg, response)

        me = mp.mpf("510998.95000")
        alpha = mp.mpf("7.2973525693e-3")
        offsets = response.offsets()
        weights = response.weights()
        chi2 = mp.mpf(0)
        for c, n in zip(dataset.bin_centers, dataset.counts):
            mu = mp.mpf(0)
            for off, w in zip(offsets, weights):
                e = mp.mpf(c) - mp.mpf(off)
                pc = mp.sqrt(e * (e + 2 * me))
                eta = 2 * alpha * (e + me) / pc
                x = 2 * mp.pi * eta
                fermi = x / (1 - mp.e**(-x))
                s = mp.mpf(0)
                for energy, prob in zip(fss.energies, fss.probabilities):
                    en = mp.mpf(W0) - e - mp.mpf(energy)
                    if en > 0:
                        s += mp.mpf(prob) * en**3
                mu += mp.mpf(w) * (mp.mpf("1e-11") / 3) * fermi * (e + me) * pc * s
            mu += 6
            chi2 += (int(n) - mu) ** 2 / mp.mpf(max(float(mu), 1.0))
        assert ours == pytest.approx(float(chi2), rel=1e-9)

    def test_empty_window_rejected(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        cfg = make_config(fss, truth, window=(W0 + 30.0, W0 + 40.0))
        with pytest.raises(ValidationError):
            chi2_at(truth, zero_noise, cfg)


class TestMinimize:
    def test_exact_recovery_from_perturbed_guess(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        guess = truth.with_values(amplitude=1.02, endpoint_ev=W0 - 0.1,
                                  m2nu_ev2=0.5, background=440.0)
        result = fit(zero_noise, make_config(fss, guess))
        assert result.converged
        assert abs(result.params.amplitude - 1.0) < 1e-6
        assert abs(result.params.endpoint_ev - W0) < 1e-4
        assert abs(result.params.m2nu_ev2) < 1e-3
        assert result.chi2 < 1e-8

    def test_chi2_at_minimum_below_truth(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        guess = truth.with_values(amplitude=1.01, m2nu_ev2=0.2)
        cfg = make_config(fss, guess)
        result = fit(zero_noise, cfg)
        assert result.chi2 <= chi2_at(truth, zero_noise, cfg) + 1e-9

    def test_covariance_contracts(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        rng_ds = generate_pseudodata(truth, fss, response, centers, exposure,
                                     seed=5)
        guess = truth.with_values(amplitude=1.01, m2nu_ev2=0.2)
        result = fit(rng_ds, make_config(fss, guess))
        assert result.converged
        assert result.covariance is not None
        assert result.covariance.shape == (4, 4)
        assert np.all(np.diag(result.covariance) > 0.0)
        assert result.dof == len(centers) - 4
        assert set(result.errors) == {"amplitude", "endpoint", "m2nu",
                                      "background"}

    def test_free_mask_respected(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        guess = truth.with_values(amplitude=1.05)
        cfg = FitConfig(window_ev=(W0 - 200.0, W0 + 20.0), initial=guess,
                        fss=fss, free=("amplitude",))
        result = fit(zero_noise, cfg)
        assert result.params.amplitude == pytest.approx(1.0, rel=1e-6)
        assert result.params.endpoint_ev == W0
        assert result.params.m2nu_ev2 == 0.0
        assert result.dof == len(centers) - 1

    @pytest.mark.parametrize("order", [("m2nu", "endpoint"),
                                       PARAM_NAMES[::-1]],
                             ids=["two-free", "four-free"])
    def test_order_of_free_is_kept(self, setup, order):
        # free_names, the errors and the covariance follow config.free, and
        # the fit is the same in either order up to that permutation
        fss, response, truth, centers, exposure, zero_noise = setup
        dataset = generate_pseudodata(truth, fss, response, centers, exposure,
                                      seed=2)
        guess = truth.with_values(endpoint_ev=W0 - 0.1, m2nu_ev2=0.2)
        results = [fit(dataset, replace(make_config(fss, guess), free=free))
                   for free in (order, order[::-1])]
        for free, result in zip((order, order[::-1]), results):
            assert result.converged
            assert result.free_names == free
            assert list(result.errors) == list(free)
            assert result.covariance.shape == (len(free), len(free))
            if len(free) == 2:
                assert result.params.amplitude == guess.amplitude
                assert result.params.background == guess.background
        given, reversed_ = results
        values = [(p.amplitude, p.endpoint_ev, p.m2nu_ev2, p.background)
                  for p in (given.params, reversed_.params)]
        for name, ours, theirs in zip(PARAM_NAMES, *values):
            if name in order:
                assert abs(ours - theirs) <= 1e-6 * given.errors[name]
        flip = np.arange(len(order))[::-1]
        assert np.all(np.abs(reversed_.covariance[np.ix_(flip, flip)]
                             - given.covariance)
                      <= 1e-9 * np.abs(given.covariance))

    def test_reparametrization_scaling(self, setup):
        # scaling counts and exposure by 10 scales A by 10, leaves W0, m2nu
        fss, response, truth, centers, exposure, zero_noise = setup
        scaled = PseudoDataset(bin_centers=centers,
                               counts=zero_noise.counts * 10.0,
                               exposure=exposure)
        guess = truth.with_values(amplitude=9.0, endpoint_ev=W0 - 0.05,
                                  m2nu_ev2=0.3, background=4400.0)
        result = fit(scaled, make_config(fss, guess))
        assert result.converged
        assert result.params.amplitude == pytest.approx(10.0, rel=1e-5)
        assert abs(result.params.endpoint_ev - W0) < 1e-4
        assert abs(result.params.m2nu_ev2) < 1e-3

    def test_insane_trial_step_is_rejected(self, setup, monkeypatch):
        # from m2nu = 9990 eV^2 the first damped steps overshoot the
        # |m2nu| < 1e4 sanity bound; they count as rejected steps
        fss, response, truth, centers, exposure, zero_noise = setup
        rejected = []
        with_values = SpectrumParams.with_values

        def counting(self, **kwargs):
            try:
                return with_values(self, **kwargs)
            except ValidationError:
                rejected.append(kwargs)
                raise

        monkeypatch.setattr(SpectrumParams, "with_values", counting)
        guess = truth.with_values(m2nu_ev2=9990.0)
        result = fit(zero_noise, make_config(fss, guess))
        assert rejected
        assert result.converged
        assert abs(result.params.m2nu_ev2) < 1e-3
        assert abs(result.params.endpoint_ev - W0) < 1e-4

    def test_window_needs_enough_bins(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        cfg = make_config(fss, truth, window=(W0 - 4.0, W0 + 1.0))
        with pytest.raises(ValidationError,
                           match="window selects 3 bins; need at least 5"):
            fit(zero_noise, cfg)

    def test_counts_of_another_length_are_refused(self, setup):
        # the counts are the one input a fit does not take from its model
        fss, response, truth, centers, exposure, zero_noise = setup
        model = build(zero_noise, make_config(fss, truth))
        for counts in (zero_noise.counts[1:], np.append(zero_noise.counts, 1),
                       zero_noise.counts[1:] > 0.0):
            with pytest.raises(ValidationError,
                               match=f"^{counts.size} counts for a fit model "
                                     f"of {centers.size} bins$"):
                minimize(counts, model)

    def test_config_validation(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        with pytest.raises(ValidationError):
            FitConfig(window_ev=(W0, W0 - 10.0), initial=truth, fss=fss)
        with pytest.raises(ValidationError):
            FitConfig(window_ev=(W0 - 10.0, W0 + 60.0), initial=truth, fss=fss)
        with pytest.raises(ValidationError):
            FitConfig(window_ev=(W0 - 10.0, W0), initial=truth,
                      fss=fss, free=())

    @pytest.mark.parametrize("setting,fragment", [
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": -3}, "max_iterations"),
        ({"free": ("m2nu", "m2nu", "endpoint")}, "free"),
    ], ids=["iterations-zero", "iterations-negative", "free-repeated"])
    def test_config_rejects_bad_setting(self, setup, setting, fragment):
        fss, response, truth, centers, exposure, zero_noise = setup
        with pytest.raises(ValidationError, match=fragment):
            FitConfig(window_ev=(W0 - 10.0, W0), initial=truth,
                      fss=fss, **setting)


def central_difference(residuals, x, free):
    """Central differences of `residuals` in the free entries of the
    parameter vector x, in `free`'s order, one parameter scale each way."""
    cols = []
    for i in free:
        h = _param_scales(x)[i]
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        cols.append((residuals(up) - residuals(dn)) / (2.0 * h))
    return np.column_stack(cols)


def fd_gauss_newton(values, x, free, iterations=30):
    """Undamped Gauss-Newton on a central-difference Jacobian of the
    residuals `values`, moving the free entries of the parameter vector."""
    for _ in range(iterations):
        jac = central_difference(values, x, free)
        delta = np.linalg.solve(jac.T @ jac, -jac.T @ values(x))
        x = x.copy()
        x[free] += delta
        if np.all(np.abs(delta) < 1e-6 * _param_scales(x)[free]):
            break
    return x


class TestJacobian:
    @pytest.mark.parametrize("free", [
        ("amplitude", "endpoint", "m2nu", "background"), ("endpoint", "m2nu")])
    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("m2nu", [-0.5, 0.0, 0.5])
    def test_closed_form_matches_central_difference(self, setup, m2nu,
                                                    drift, free):
        fss, response, truth, centers, exposure, zero_noise = setup
        initial = truth.with_values(amplitude=1.01, endpoint_ev=W0 - 0.3,
                                    m2nu_ev2=m2nu, background=410.0,
                                    endpoint_drift=drift)
        cfg = FitConfig(window_ev=(W0 - 200.0, W0 + 20.0), initial=initial,
                        fss=fss, free=free)
        model = build(zero_noise, cfg)
        counts = window_counts(zero_noise, model)
        x = model.x0
        r, jac = model.residuals(counts, x)
        # the generator's mu; the fitter scales by A after the smear, which
        # moves mu by a few rounding errors eps * mu and so r by about
        # eps * sqrt(mu) (3.3 eps sqrt(mu) at most over these cases)
        mu = expected_counts(initial, fss, response, centers, exposure)
        floor = np.sqrt(np.maximum(mu, 1.0))
        assert np.all(np.abs(r - (zero_noise.counts - mu) / floor)
                      <= 8.0 * np.finfo(float).eps * floor)
        fd = central_difference(lambda v: model.residuals(counts, v)[0], x,
                                model.free)
        assert jac.shape == fd.shape == (len(centers), len(free))
        for col, fd_col in zip(jac.T, fd.T):
            assert np.max(np.abs(col - fd_col)) <= 1e-6 * np.max(np.abs(col))

    def test_fit_agrees_with_central_difference_fit(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        dataset = generate_pseudodata(truth, fss, response, centers, exposure,
                                      seed=5)
        cfg = make_config(fss, truth.with_values(amplitude=1.01, m2nu_ev2=0.2))
        result = fit(dataset, cfg)
        assert result.converged
        model = build(dataset, cfg)
        counts = window_counts(dataset, model)
        x_fd = fd_gauss_newton(lambda v: model.residuals(counts, v)[0],
                               model.x0, model.free)
        fitted = [result.params.amplitude, result.params.endpoint_ev,
                  result.params.m2nu_ev2, result.params.background]
        for name, ours, theirs in zip(PARAM_NAMES, fitted, x_fd):
            assert abs(ours - theirs) <= 1e-3 * result.errors[name]

    def test_one_kernel_pass_per_evaluation(self, setup, monkeypatch):
        # residuals and Jacobian of a trial point come from one pass; a
        # finite-difference Jacobian would cost 2 passes per free parameter.
        # Every evaluation, the initial point's from the fit model's pass
        # included, goes through `from_pass`
        fss, response, truth, centers, exposure, zero_noise = setup
        passes, evaluations = [], []
        line_blocks = tribeta.kernel._line_blocks
        evaluate = FitModel.from_pass

        def counting(*args):
            passes.append(1)
            return line_blocks(*args)

        def counted(self, counts, vec, kernel_pass):
            evaluations.append(1)
            return evaluate(self, counts, vec, kernel_pass)

        monkeypatch.setattr(tribeta.kernel, "_line_blocks", counting)
        monkeypatch.setattr(FitModel, "from_pass", counted)
        guess = truth.with_values(amplitude=1.02, endpoint_ev=W0 - 0.1,
                                  m2nu_ev2=0.5, background=440.0)
        result = fit(zero_noise, make_config(fss, guess))
        assert result.converged
        assert result.n_iterations >= 2
        assert len(passes) == len(evaluations)
        assert len(passes) <= 3 * result.n_iterations + 2

    def test_fit_at_the_truth_stops_without_a_trial_pass(self, setup,
                                                         monkeypatch):
        # at the zero-noise truth a full Gauss-Newton step is predicted to
        # lower chi^2 by nothing, so no trial point is evaluated
        fss, response, truth, centers, exposure, zero_noise = setup
        cfg = make_config(fss, truth)
        model = build(zero_noise, cfg)
        passes = []
        line_blocks = tribeta.kernel._line_blocks

        def counting(*args):
            passes.append(1)
            return line_blocks(*args)

        monkeypatch.setattr(tribeta.kernel, "_line_blocks", counting)
        result = minimize(zero_noise.counts, model)
        assert passes == []
        assert result.converged
        assert result.n_iterations == 1
        assert result.message == "predicted chi^2 change below tolerance"
        assert result.params == truth

    def test_damping_exhausted_converged_is_a_bool(self, setup, monkeypatch):
        # every trial point is insane, so the damping runs out at once
        fss, response, truth, centers, exposure, zero_noise = setup
        monkeypatch.setattr(FitModel, "residuals", lambda self, counts, vec: (
            np.full(len(counts), np.inf), None))
        guess = truth.with_values(amplitude=1.02, m2nu_ev2=0.5)
        result = fit(zero_noise, make_config(fss, guess))
        assert result.message == "damping exhausted"
        assert type(result.converged) is bool
        assert result.params == guess

    def test_covariance_is_inverse_gauss_newton_at_result(self, setup):
        # the fit stops at the point of its last accepted step: the
        # covariance must come from the Jacobian there, not the one before
        fss, response, truth, centers, exposure, zero_noise = setup
        dataset = generate_pseudodata(truth, fss, response, centers, exposure,
                                      seed=1)
        cfg = make_config(fss, truth.with_values(amplitude=1.01, m2nu_ev2=0.2))
        result = fit(dataset, cfg)
        assert result.message == "predicted chi^2 change below tolerance"
        assert result.params.background > 0.0
        x = np.array([result.params.amplitude, result.params.endpoint_ev,
                      result.params.m2nu_ev2, result.params.background])
        model = build(dataset, cfg)
        r, jac = model.residuals(window_counts(dataset, model), x)
        assert float(r @ r) == result.chi2
        assert np.array_equal(result.covariance, np.linalg.inv(jac.T @ jac))


class TestDamping:
    """A fit's first trial is the undamped Gauss-Newton step; damping starts
    at 1e-3 (on diag(J^T J)) after a rejected trial or a singular system."""

    GUESS = dict(amplitude=1.02, endpoint_ev=W0 - 0.1, m2nu_ev2=0.5,
                 background=440.0)

    @staticmethod
    def record_trials(monkeypatch, reject_first=False):
        """The free-parameter vectors of every trial point, in order; with
        `reject_first` the first trial reads as insane."""
        trials = []
        residuals = FitModel.residuals

        def recording(self, counts, vec):
            trials.append(vec)
            if reject_first and len(trials) == 1:
                return np.full(len(counts), np.inf), None
            return residuals(self, counts, vec)

        monkeypatch.setattr(FitModel, "residuals", recording)
        return trials

    def start(self, setup):
        """The model, and the gradient and J^T J at its initial point."""
        fss, response, truth, centers, exposure, zero_noise = setup
        model = build(zero_noise,
                      make_config(fss, truth.with_values(**self.GUESS)))
        r, jac = model.from_pass(window_counts(zero_noise, model), model.x0,
                                 model.first_pass)
        return model, jac.T @ r, jac.T @ jac

    def test_first_trial_is_the_gauss_newton_step(self, setup, monkeypatch):
        zero_noise = setup[-1]
        model, grad, hess = self.start(setup)
        trials = self.record_trials(monkeypatch)
        result = minimize(zero_noise.counts, model)
        assert result.converged
        expected = model.x0 - np.linalg.solve(hess, grad)
        assert np.all(np.abs(trials[0] - expected)
                      <= 1e-12 * np.abs(model.x0))

    def test_rejected_trial_engages_the_damping(self, setup, monkeypatch):
        zero_noise = setup[-1]
        model, grad, hess = self.start(setup)
        trials = self.record_trials(monkeypatch, reject_first=True)
        result = minimize(zero_noise.counts, model)
        assert result.converged
        damped = hess + 1e-3 * np.diag(np.diag(hess))
        expected = model.x0 - np.linalg.solve(damped, grad)
        assert np.all(np.abs(trials[1] - expected)
                      <= 1e-12 * np.abs(model.x0))

    def test_singular_system_engages_the_damping(self, setup, monkeypatch):
        # a zero background column makes J^T J exactly singular: the
        # undamped solve fails, and the next attempt must be damped, not
        # the same singular solve until the attempts run out
        zero_noise = setup[-1]
        model, _, _ = self.start(setup)
        from_pass = FitModel.from_pass

        def no_background(self, counts, vec, kernel_pass):
            r, jac = from_pass(self, counts, vec, kernel_pass)
            jac[:, 3] = 0.0
            return r, jac

        monkeypatch.setattr(FitModel, "from_pass", no_background)
        trials = self.record_trials(monkeypatch)
        result = minimize(zero_noise.counts, model)
        assert trials
        assert result.message != "damping exhausted"
        assert np.all(np.array(trials)[:, 3] == model.x0[3])


class TestFitModel:
    """A `FitModel` shares a window's lattice and first kernel pass between
    fits of datasets on the same bins with the same exposure."""

    @staticmethod
    def fit_fields(result):
        return [result.params, result.free_names, result.errors,
                result.covariance.tolist(), result.chi2, result.dof,
                result.n_iterations, result.converged, result.message]

    @pytest.mark.parametrize("window", [(W0 - 200.0, W0 + 20.0),
                                        (W0 - 150.0, W0 + 20.0)],
                             ids=["every-bin", "some-bins"])
    def test_shared_model_gives_the_same_fit(self, setup, window):
        fss, response, truth, centers, exposure, zero_noise = setup
        # the lattice of every bin serves the fit only if its window holds
        # every bin
        lattice = Lattice.build(response, centers)
        expected = expected_dataset(truth, fss, lattice, exposure)
        cfg = make_config(fss, truth.with_values(amplitude=1.01, m2nu_ev2=0.2),
                          window=window)
        model = FitModel.build(lattice, exposure, cfg)
        for seed in (1, 2):
            dataset = draw_pseudodata(expected, seed)
            assert self.fit_fields(minimize(dataset.counts, model)) == \
                self.fit_fields(fit(dataset, cfg))

    def test_model_arrays_are_read_only(self, setup):
        fss, response, truth, centers, exposure, zero_noise = setup
        model = build(zero_noise, make_config(fss, truth))
        arrays = [model.mask, model.x0, model.free, *model.first_pass,
                  model.lattice.bin_centers, model.lattice.energies,
                  model.lattice.inverse, model.lattice.weights]
        assert not any(array.flags.writeable for array in arrays)

    def test_pickle_round_trip_keeps_arrays_read_only(self, setup):
        # bias_scan sends its fit models and their lattice to its worker
        # processes by pickle
        fss, response, truth, centers, exposure, zero_noise = setup
        model = build(zero_noise, make_config(fss, truth))
        back = pickle.loads(pickle.dumps(model))
        assert back.exposure == model.exposure
        assert back.lattice.response == model.lattice.response

        def arrays(m):
            return [m.mask, m.x0, m.free, *m.first_pass,
                    m.lattice.bin_centers,
                    m.lattice.energies, m.lattice.inverse, m.lattice.weights]

        for array, original in zip(arrays(back), arrays(model)):
            assert np.array_equal(array, original)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert self.fit_fields(minimize(zero_noise.counts, back)) == \
            self.fit_fields(minimize(zero_noise.counts, model))
