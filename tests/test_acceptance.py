"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the ensemble study (criterion 10) dominates the runtime.
"""

import numpy as np
import pytest

from tribeta.bias import ScanSpec, bias_scan, build_study_fss, fig2_study
from tribeta.fit import FitConfig, FitModel, minimize
from test_kernel import dense_line_sums
from tribeta.fss import from_lines
from tribeta.franck_condon import RecoilEngine, rotational_shift_ev
from tribeta.kernel import SpectrumParams, effective_endpoint, linearized_sum
from tribeta.response import (Lattice, PseudoDataset, ResponseModel,
                              expected_counts)

W0 = 18575.0


def check(num, description, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {description}: {detail}")
    assert condition, f"criterion {num} ({description}): {detail}"


@pytest.fixture(scope="module")
def engine(model):
    return RecoilEngine(model, j_max=60, v_max=120)


def test_criterion_01_rotational_recoil_shift(model):
    shift = rotational_shift_ev(model, 18.6)
    check(1, "rotational recoil shift q^2/2M at q=18.6",
          abs(shift / 1.72 - 1.0) <= 0.02, f"{shift:.4f} eV vs 1.72 +- 2%")


def test_criterion_02_endpoint_drift():
    delta = W0 - effective_endpoint(W0 - 200.0, W0)
    check(2, "endpoint drift 200 eV below endpoint",
          0.036 <= delta <= 0.040, f"dW0 = {delta:.5f} eV in [0.036, 0.040]")


def test_criterion_03_mean_rotational_excitation(engine, q_endpoint):
    # With a J = 0 initial state, closure over the final (v, J) states fixes
    # <J(J+1)> = (2/3) q^2 <R^2> exactly and <J + 1/2> = pi q <R> / 4
    # asymptotically (pointwise residual <= 2.6e-4 for qR in [20, 32]), with
    # <R^n> taken over the initial vibrational state chi_0.
    spectrum = engine.overlaps(q_endpoint)
    ground = spectrum.channels == 0
    p = np.bincount(spectrum.rotations[ground],
                    weights=spectrum.probabilities[ground])
    j = np.arange(p.size)
    p /= p.sum()
    mean_j = float(np.sum(j * p))
    mean_jj = float(np.sum(j * (j + 1) * p))
    peak_j = int(j[np.argmax(p)])
    median_j = int(j[np.searchsorted(np.cumsum(p), 0.5)])

    density = engine.chi0**2 * engine.step
    mean_r = float(np.sum(density * engine.radii))
    mean_r2 = float(np.sum(density * engine.radii**2))
    mean_j_closure = np.pi * q_endpoint * mean_r / 4.0 - 0.5
    mean_jj_closure = 2.0 / 3.0 * q_endpoint**2 * mean_r2

    mean_ok = abs(mean_j / mean_j_closure - 1.0) <= 1e-4
    jj_ok = abs(mean_jj / mean_jj_closure - 1.0) <= 1e-6
    check(3, "rotational excitation at q ~ 18.6: mean J and <J(J+1)> vs "
          "closure, peak J in [22, 25]",
          mean_ok and jj_ok and 22 <= peak_j <= 25,
          f"mean J = {mean_j:.5f} vs pi q<R>/4 - 1/2 = {mean_j_closure:.5f}, "
          f"<J(J+1)> = {mean_jj:.5f} vs (2/3) q^2 <R^2> = {mean_jj_closure:.5f}, "
          f"peak J = {peak_j} in [22, 25], median J = {median_j}")


def test_criterion_04_vibrational_hierarchy(engine, model, q_endpoint):
    ps = engine.pseudo_spectrum(q_endpoint)
    shares = ps.probabilities / model.channels[0].weight
    decreasing = bool(shares[0] > shares[1] > shares[2] > shares[3])
    share_ok = 0.522 / 0.574 / 2.0 <= shares[0] <= min(1.0, 0.522 / 0.574 * 2.0)
    ratio = shares[0] / shares[1]
    ratio_ok = 52.2 / 4.62 / 2.0 <= ratio <= 52.2 / 4.62 * 2.0
    check(4, "vibrational overlap hierarchy",
          decreasing and share_ok and ratio_ok,
          f"shares v=0..3 = {np.round(shares[:4], 5)}, v0/v1 = {ratio:.2f}")


def test_criterion_05_operator_moment_consistency(engine, q_endpoint):
    spectrum = engine.overlaps(q_endpoint)
    ground = spectrum.channels == 0
    p = spectrum.probabilities[ground]
    e = spectrum.energies[ground]
    full_mean = float((p * e).sum() / p.sum())
    full_e2 = float((p * e * e).sum() / p.sum())
    op = engine.operator_moments(q_endpoint, 1e6)
    rel = abs(op.mean_e - full_mean) / full_mean
    rel2 = abs(op.mean_e2 - full_e2) / full_e2
    check(5, "operator vs full-FSS first moment",
          rel <= 0.01 and rel2 <= 1e-4,
          f"operator {op.mean_e:.4f} eV vs full {full_mean:.4f} eV ({rel:.2e} rel)"
          f"; <E^2> operator {op.mean_e2:.5f} eV^2 vs full {full_e2:.5f} eV^2 "
          f"({rel2:.2e} rel <= 1e-4)")


def test_criterion_06_commutator_bound(engine, q_endpoint):
    c = engine.c_term_bound(q_endpoint)
    check(6, "commutator term spectral power",
          c <= 0.1, f"|<C>| = {c:.4f} eV^3 <= 0.1 eV^3")


def test_criterion_07_linearization_trend():
    fss = build_study_fss()
    result = fig2_study(fss, endpoint_ev=W0, m_nu_ev=1.0)
    check(7, "|exact - linear| bounded by C m^4 / depth",
          result.bound_holds() and 0.0 < result.c_fit < 50.0,
          f"C = {result.c_fit:.3f}, bound holds at all "
          f"{len(result.depth_ev)} grid points")


def test_criterion_08_moment_form_identity():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 40))
        energies = np.sort(rng.uniform(0.0, 60.0, n))
        probs = rng.uniform(0.0, 1.0, n)
        probs *= rng.uniform(0.2, 1.0) / probs.sum()
        fss = from_lines([(energies, probs, 0, -1, -1)])
        eps = W0 - float(rng.uniform(0.5, 120.0))
        params = SpectrumParams(amplitude=1.0, endpoint_ev=W0,
                                m2nu_ev2=float(rng.uniform(-5.0, 5.0)),
                                endpoint_drift=i % 2 == 1)
        # the kernel's moment form against the direct line sum
        a = linearized_sum(eps, params, fss)
        b = float(dense_line_sums(eps, params, fss)["linearized"][0])
        scale = max(abs(a), abs(b), 1e-6)
        worst = max(worst, abs(a - b) / scale)
    check(8, "moment-form identity over 1000 random spectra",
          worst <= 1e-10, f"worst relative deviation {worst:.2e}")


def test_criterion_09_sum_rule(engine, model):
    w_c = model.channels[0].weight
    captured = {}
    ok = True
    for q in (0.0, 5.0, 10.0, 18.6, 25.0):
        spectrum = engine.overlaps(q)
        total = float(spectrum.probabilities[spectrum.channels == 0].sum())
        captured[q] = total / w_c
        ok = ok and total / w_c >= 0.99
    check(9, "recoil overlap sum rule",
          ok, "captured fraction by q: "
          + ", ".join(f"{q}: {v:.4f}" for q, v in captured.items()))


@pytest.mark.slow
def test_criterion_10_negative_m2nu_mechanism():
    spec = ScanSpec()  # 100 replications, depths 100/200/400, drift-on gen
    result = bias_scan(spec)
    rows = {w.depth_ev: w for w in result.windows}
    all_negative = all(w.mean_m2nu < 0.0 for w in result.windows)
    at200 = abs(rows[200.0].mean_m2nu)
    band_ok = 0.1 <= at200 <= 20.0
    control_ok = all(abs(w.control_mean_m2nu) <= 3.0 * w.control_se_m2nu
                     for w in result.windows)
    # bias magnitude grows with window depth (within ensemble resolution)
    mono_ok = all(
        abs(a.mean_m2nu) <= abs(b.mean_m2nu) + 2.0 * (a.se_m2nu + b.se_m2nu)
        for a, b in zip(result.windows, result.windows[1:]))
    detail = "; ".join(
        f"{w.depth_ev:.0f} eV: m2 = {w.mean_m2nu:+.3f} +- {w.se_m2nu:.3f}"
        f" (ctl {w.control_mean_m2nu:+.3f} +- {w.control_se_m2nu:.3f})"
        for w in result.windows)
    check(10, "drift mismatch drives fitted m2nu negative",
          all_negative and band_ok and control_ok and mono_ok
          and not result.flagged, detail)


def test_criterion_11_exact_recovery():
    fss = build_study_fss()
    response = ResponseModel(sigma_ev=2.5)
    truth = SpectrumParams(amplitude=1.0, endpoint_ev=W0, m2nu_ev2=0.0,
                           background=400.0)
    centers = np.arange(W0 - 200.0, W0 + 20.0 + 1e-9, 2.0)
    rate = expected_counts(truth.with_values(background=0.0), fss, response,
                           np.array([W0 - 200.0]), 1.0)[0]
    exposure = 1e8 / rate
    mu = expected_counts(truth, fss, response, centers, exposure)
    dataset = PseudoDataset(bin_centers=centers, counts=mu,
                            exposure=exposure)
    guess = truth.with_values(amplitude=1.02, endpoint_ev=W0 - 0.1,
                              m2nu_ev2=0.5, background=420.0)
    config = FitConfig(window_ev=(centers[0], centers[-1]), initial=guess,
                       fss=fss)
    result = minimize(dataset.counts, FitModel.build(
        Lattice.build(response, centers), exposure, config))
    da = abs(result.params.amplitude - 1.0)
    dw = abs(result.params.endpoint_ev - W0)
    dm = abs(result.params.m2nu_ev2)
    check(11, "zero-noise fit recovers truth",
          result.converged and da < 1e-6 and dw < 1e-4 and dm < 1e-3,
          f"|dA/A| = {da:.2e}, |dW0| = {dw:.2e} eV, |dm2| = {dm:.2e} eV^2")
