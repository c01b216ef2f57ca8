"""Linearization-accuracy study and the bias-scan mechanism (desk scale)."""

import concurrent.futures
import dataclasses
import math
import pickle

import numpy as np
import pytest

import tribeta.bias
from tribeta.bias import STUDY_DESIGN, ScanSpec, bias_scan, fig2_study
from tribeta.errors import ValidationError
from tribeta.fit import FitConfig, FitModel, minimize
from tribeta.fss import from_lines
from tribeta.kernel import SpectrumParams, integral_spectrum
from tribeta.response import Lattice, ResponseModel, generate_pseudodata

W0 = 18575.0


class TestStudyFss:
    def test_structure(self, study_fss):
        assert study_fss.total_probability == pytest.approx(1.0, abs=2e-3)
        assert set(study_fss.channels.tolist()) == {0, 1, 2}
        # ground pseudo-lines carry the rotational recoil shift
        ground = study_fss.energies[study_fss.channels == 0]
        assert ground.min() == pytest.approx(1.72, abs=0.05)


class TestFig2:
    def test_single_line_closed_form(self):
        fss = from_lines([(0.0, 1.0, 0, -1, -1)])
        result = fig2_study(fss, m_nu_ev=1.0)
        for depth, difference in zip(result.depth_ev, result.difference):
            # depth as actually represented after eps = W0 - u round trip
            u = W0 - (W0 - depth)
            exact = (u * u - 1.0) ** 1.5 if u > 1.0 else 0.0
            linear = u**3 - 1.5 * u
            # agreement at 1e-10 of the spectral-sum scale (the difference
            # itself is a cancellation of two large sums)
            tol = 1e-10 * max(abs(exact), 1.0)
            assert abs(difference - abs(exact - linear)) <= tol

    def test_difference_vanishes_with_mass(self, study_fss):
        result = fig2_study(study_fss, m_nu_ev=1e-4)
        scale = max(result.exact)
        assert max(result.difference) < 1e-12 * scale

    def test_trend_bound_holds(self, study_fss):
        result = fig2_study(study_fss, m_nu_ev=1.0)
        assert result.bound_holds()
        assert 0.0 < result.c_fit < 50.0

    def test_zero_mass_c_is_zero(self, study_fss):
        assert fig2_study(study_fss, m_nu_ev=0.0).c_fit == 0.0

    @pytest.mark.parametrize("m_nu", [0.0, 0.4, 0.6])
    def test_bound_holds_up_to_rounding(self, study_fss, m_nu):
        # at m = 0 the difference is rounding only; at 0.4 and 0.6 eV the
        # argmax row's c_fit * trend rounds below its difference
        result = fig2_study(study_fss, m_nu_ev=m_nu)
        assert result.bound_holds()
        if m_nu > 0.0:
            # the allowance is far below a 1% shortfall of c_fit
            short = dataclasses.replace(result, c_fit=0.99 * result.c_fit)
            assert not short.bound_holds()

    def test_nan_difference_fails_the_bound(self, study_fss):
        result = fig2_study(study_fss, m_nu_ev=1.0)
        difference = result.difference.copy()
        difference[100] = math.nan
        assert not dataclasses.replace(
            result, difference=difference).bound_holds()


class TestBiasScanRecord:
    def test_spec_records_fixed_study_settings(self, study_fss):
        spec = ScanSpec(window_depths_ev=(50.0,), replications=1, base_seed=5)
        recorded = bias_scan(spec, fss=study_fss).to_dict()["spec"]
        assert recorded == {
            "window_depths_ev": (50.0,), "replications": 1, "base_seed": 5,
            "generator_drift": True, "fitter_drift": False,
            "endpoint_ev": 18575.0, "sigma_ev": 2.5, "bin_spacing_ev": 2.0,
            "window_top_margin_ev": 20.0, "anchor_depth_ev": 200.0,
            "anchor_counts": 2.56e11, "background_fraction": 0.04}


@pytest.mark.slow
class TestBiasScanSmoke:
    def test_mechanism_and_control(self, study_fss):
        spec = ScanSpec(window_depths_ev=(200.0,), replications=12,
                        base_seed=314159)
        result = bias_scan(spec, fss=study_fss)
        assert not result.flagged
        window = result.windows[0]
        assert window.n_fits == 12
        # drift-mismatch pushes m2nu negative; matched control stays near 0
        # (single-fit spread is ~0.034 eV^2 at the study exposure, so allow
        # either the in-sample band or a 5-sigma absolute bound)
        assert window.mean_m2nu < 0.0
        assert abs(window.control_mean_m2nu) < max(
            4.5 * window.control_se_m2nu, 0.05)
        assert abs(window.mean_m2nu) > abs(window.control_mean_m2nu)
        # fitted endpoint is dragged down as well
        assert window.mean_w0_shift < 0.0

    def test_sign_stable_under_seed_change(self, study_fss):
        for seed in (1, 9999):
            spec = ScanSpec(window_depths_ev=(200.0,), replications=5,
                            base_seed=seed)
            result = bias_scan(spec, fss=study_fss)
            assert result.windows[0].mean_m2nu < 0.0

    def test_job_count_independence(self, study_fss):
        spec = ScanSpec(window_depths_ev=(60.0, 150.0), replications=3,
                        base_seed=7)
        serial = bias_scan(spec, fss=study_fss, jobs=1)
        pooled = bias_scan(spec, fss=study_fss, jobs=2)
        assert serial.to_dict() == pooled.to_dict()

    def test_pool_tasks_do_not_carry_the_window_models(self, study_fss,
                                                       monkeypatch):
        # each worker gets the models once; a task is an index and a seed
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                sizes.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        spec = ScanSpec(window_depths_ev=(60.0, 150.0), replications=3,
                        base_seed=7)
        pooled = bias_scan(spec, fss=study_fss, jobs=2)
        assert len(sizes) == 6 and max(sizes) < 1000
        assert pooled.to_dict() == bias_scan(spec, fss=study_fss).to_dict()

    def test_spec_validation(self):
        with pytest.raises(Exception):
            ScanSpec(window_depths_ev=(200.0, 100.0))
        with pytest.raises(Exception):
            ScanSpec(replications=0)


def test_depth_beyond_the_generator_range_fails_up_front():
    ScanSpec(window_depths_ev=(100.0, 1000.0))
    with pytest.raises(ValidationError, match="at most 1000 eV.*got 1500"):
        ScanSpec(window_depths_ev=(100.0, 1500.0))


def recording_draws(monkeypatch):
    """Each dataset `bias_scan` draws, by the id of its counts array; every
    dataset is kept, so no later array takes its id."""
    drawn = {}
    draw = tribeta.bias.draw_pseudodata

    def recording(expected, seed):
        dataset = draw(expected, seed)
        drawn[id(dataset.counts)] = dataset
        return dataset

    monkeypatch.setattr(tribeta.bias, "draw_pseudodata", recording)
    return drawn


class TestBiasScanExclusions:
    """The reduction keeps a replication only when both its fits converged."""

    def test_unconverged_fits_are_excluded(self, study_fss, monkeypatch):
        spec = ScanSpec(window_depths_ev=(30.0, 40.0, 50.0, 60.0),
                        replications=3, base_seed=100)
        seed = [[100 + 1009 * iw + rep for rep in range(3)] for iw in range(4)]
        # (seed, endpoint_drift of the fit) that report no convergence: in
        # window 0 only the control of replication 1, all of window 1, and
        # replications 0 and 2 of window 2; window 3 keeps every fit
        failing = {(seed[0][1], True)}
        failing |= {(s, drift) for s in seed[1] for drift in (False, True)}
        failing |= {(seed[2][0], False), (seed[2][2], True)}
        fits = {}
        minimize = tribeta.bias.minimize
        drawn = recording_draws(monkeypatch)

        def flaky_minimize(counts, model):
            key = (drawn[id(counts)].truth["seed"],
                   model.config.initial.endpoint_drift)
            fits[key] = result = minimize(counts, model)
            return dataclasses.replace(result,
                                       converged=key not in failing)

        monkeypatch.setattr(tribeta.bias, "minimize", flaky_minimize)
        result = bias_scan(spec, fss=study_fss)
        assert result.flagged
        windows = result.windows
        assert [w.n_fits for w in windows] == [2, 0, 1, 3]
        assert [w.n_excluded for w in windows] == [1, 3, 2, 0]

        def shifts(kept, drift):
            return [fits[s, drift].params.endpoint_ev - 18575.0 for s in kept]

        def m2nus(kept, drift):
            return [fits[s, drift].params.m2nu_ev2 for s in kept]

        for w, kept in ((windows[0], [seed[0][0], seed[0][2]]),
                        (windows[3], seed[3])):
            values = np.array(m2nus(kept, False))
            assert w.mean_m2nu == pytest.approx(values.mean(), rel=1e-12)
            assert w.se_m2nu == pytest.approx(
                values.std(ddof=1) / math.sqrt(len(kept)), rel=1e-12)
            assert w.mean_w0_shift == pytest.approx(
                np.mean(shifts(kept, False)), rel=1e-12)
            assert w.control_mean_m2nu == pytest.approx(
                np.mean(m2nus(kept, True)), rel=1e-12)
            assert w.control_mean_w0_shift == pytest.approx(
                np.mean(shifts(kept, True)), rel=1e-12)
        # every fit excluded: no means
        none = windows[1]
        assert all(math.isnan(x) for x in (
            none.mean_m2nu, none.se_m2nu, none.mean_w0_shift,
            none.se_w0_shift, none.control_mean_m2nu, none.control_se_m2nu,
            none.control_mean_w0_shift))
        # one fit kept: its values as means, no standard error
        one = windows[2]
        assert one.mean_m2nu == m2nus([seed[2][1]], False)[0]
        assert one.control_mean_w0_shift == shifts([seed[2][1]], True)[0]
        assert math.isnan(one.se_m2nu) and math.isnan(one.control_se_m2nu)

    def test_exclusions_within_a_tenth_are_not_flagged(self, study_fss,
                                                       monkeypatch):
        spec = ScanSpec(window_depths_ev=(30.0,), replications=10,
                        base_seed=3)
        minimize = tribeta.bias.minimize
        drawn = recording_draws(monkeypatch)

        def flaky_minimize(counts, model):
            result = minimize(counts, model)
            seed = drawn[id(counts)].truth["seed"]
            return dataclasses.replace(result, converged=seed != 3)

        monkeypatch.setattr(tribeta.bias, "minimize", flaky_minimize)
        result = bias_scan(spec, fss=study_fss)
        assert (result.windows[0].n_excluded, result.flagged) == (1, False)


def _reference_scan(spec, fss):
    """The scan with every replication generated and fitted from scratch:
    `generate_pseudodata`, then `minimize` on a new `FitModel` per fit."""
    design = STUDY_DESIGN
    w0 = design["endpoint_ev"]
    response = ResponseModel(sigma_ev=design["sigma_ev"])
    anchor = integral_spectrum(w0 - design["anchor_depth_ev"],
                               SpectrumParams(amplitude=1.0, endpoint_ev=w0),
                               fss)
    exposure = design["anchor_counts"] / float(anchor)
    background = design["background_fraction"] * design["anchor_counts"]
    truth = SpectrumParams(amplitude=1.0, endpoint_ev=w0, background=background,
                           endpoint_drift=True)
    guess = truth.with_values(amplitude=1.01, m2nu_ev2=0.3,
                              endpoint_ev=w0 - 0.05,
                              background=background * 1.05)
    windows = []
    for iw, depth in enumerate(spec.window_depths_ev):
        centers = w0 + 2.0 * np.arange(-int(round(depth / 2.0)), 11)
        configs = [FitConfig(window_ev=(w0 - depth - 1e-9, w0 + 20.0 + 1e-9),
                             initial=guess.with_values(endpoint_drift=drift),
                             fss=fss)
                   for drift in (False, True)]
        rows = []
        for rep in range(spec.replications):
            dataset = generate_pseudodata(truth, fss, response, centers,
                                          exposure,
                                          spec.base_seed + 1009 * iw + rep)
            fits = [minimize(dataset.counts, FitModel.build(
                Lattice.build(response, dataset.bin_centers),
                dataset.exposure, config))
                for config in configs]
            if all(fit.converged for fit in fits):
                rows.append([v for fit in fits for v in (
                    fit.params.m2nu_ev2, fit.params.endpoint_ev - w0)])
        columns = np.array(rows).reshape(-1, 4).T
        n = columns.shape[1]
        means = [c.mean() if n else math.nan for c in columns]
        ses = [c.std(ddof=1) / math.sqrt(n) if n > 1 else math.nan
               for c in columns]
        windows.append({
            "depth_ev": depth, "n_fits": n,
            "n_excluded": spec.replications - n,
            "mean_m2nu": means[0], "se_m2nu": ses[0],
            "mean_w0_shift": means[1], "se_w0_shift": ses[1],
            "control_mean_m2nu": means[2], "control_se_m2nu": ses[2],
            "control_mean_w0_shift": means[3]})
    return windows


class TestWindowModel:
    """Each window's forward model is built once and shared by its
    replications, with results bit-identical to fitting from scratch."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_fitting_each_replication_from_scratch(self, study_fss,
                                                          jobs):
        # at 99 eV the deepest bin (W0 - 100 eV) lies below the fit window,
        # so the fits' lattice is not the generator's
        spec = ScanSpec(window_depths_ev=(30.0, 99.0), replications=3,
                        base_seed=7)
        result = bias_scan(spec, fss=study_fss, jobs=jobs)
        expected = _reference_scan(spec, study_fss)
        got = [dataclasses.asdict(w) for w in result.windows]
        assert [w.keys() for w in got] == [w.keys() for w in expected]
        for g, e in zip(got, expected):
            for key in e:
                assert np.array_equal(g[key], e[key], equal_nan=True), key

    def test_one_lattice_and_one_initial_pass_per_window(self, study_fss,
                                                         monkeypatch):
        builds, passes = [], {}
        build = Lattice.build.__func__
        counts_with_derivatives = Lattice.counts_with_derivatives

        def counting_build(cls, response, bin_centers):
            builds.append(len(bin_centers))
            return build(cls, response, bin_centers)

        def counting_pass(self, params, fss, exposure):
            key = (id(self), params)
            passes[key] = passes.get(key, 0) + 1
            return counts_with_derivatives(self, params, fss, exposure)

        monkeypatch.setattr(Lattice, "build", classmethod(counting_build))
        monkeypatch.setattr(Lattice, "counts_with_derivatives", counting_pass)
        spec = ScanSpec(window_depths_ev=(100.0, 200.0, 400.0),
                        replications=4, base_seed=11)
        result = bias_scan(spec, fss=study_fss)
        assert [w.n_fits for w in result.windows] == [4, 4, 4]
        # one lattice per window, of all its bins
        assert builds == [61, 111, 211]
        w0 = STUDY_DESIGN["endpoint_ev"]
        initial = [SpectrumParams(amplitude=1.0, endpoint_ev=w0 - 0.05,
                                  m2nu_ev2=0.3, endpoint_drift=drift)
                   for drift in (False, True)]
        first = {key: n for key, n in passes.items() if key[1] in initial}
        # each (window, config) initial point evaluated once, on the
        # window's lattice
        assert len(first) == 6 and set(first.values()) == {1}
        assert len({lattice for lattice, _ in first}) == 3


def test_scan_fits_stop_on_the_predicted_change(study_fss, monkeypatch):
    # a fit stops once a full Gauss-Newton step is predicted to lower chi^2
    # by less than its tolerance, instead of confirming that with one more
    # kernel pass or running out of damping at the chi^2 rounding floor
    passes, messages = [], set()
    counts_with_derivatives = Lattice.counts_with_derivatives

    def counting_pass(self, *args):
        passes.append(1)
        return counts_with_derivatives(self, *args)

    def recording(*args):
        result = minimize(*args)
        messages.add(result.message)
        return result

    monkeypatch.setattr(Lattice, "counts_with_derivatives", counting_pass)
    monkeypatch.setattr(tribeta.bias, "minimize", recording)
    for seed in range(16):
        passes.clear()
        spec = ScanSpec(window_depths_ev=(100.0, 200.0, 400.0),
                        replications=4, base_seed=seed)
        bias_scan(spec, fss=study_fss)
        assert len(passes) <= 78, seed
    assert "damping exhausted" not in messages
