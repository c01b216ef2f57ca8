"""Spectrum forms against closed forms, finite differences and mpmath."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from tribeta.errors import ValidationError
from tribeta.fss import from_lines
import tribeta.kernel
from tribeta.kernel import (SpectrumParams, differential_spectrum,
                            effective_endpoint, integral_spectrum,
                            integral_spectrum_derivatives, linearized_spectrum,
                            linearized_sum, spectral_sum)
from tribeta.physics import CONSTANTS, fermi_factor, momentum_from_kinetic

mp.mp.dps = 30

W0 = 18575.0


def single_line_fss(energy=0.0, prob=1.0):
    return from_lines([(energy, prob, 0, -1, -1)])


def params(**kw):
    base = dict(amplitude=2.5, endpoint_ev=W0, m2nu_ev2=0.0)
    base.update(kw)
    return SpectrumParams(**base)


class TestClosedForms:
    def test_integral_single_line(self):
        fss = single_line_fss()
        p = params()
        eps = W0 - 200.0
        k = momentum_from_kinetic(eps)
        expected = (p.amplitude / 3.0) * fermi_factor(k.momentum_ev, 2) \
            * k.total_energy_ev * k.momentum_ev * 200.0**3
        assert integral_spectrum(eps, p, fss) == pytest.approx(expected, rel=1e-12)

    def test_differential_single_line(self):
        fss = single_line_fss()
        p = params()
        eps = W0 - 50.0
        k = momentum_from_kinetic(eps)
        expected = p.amplitude * fermi_factor(k.momentum_ev, 2) \
            * k.total_energy_ev * k.momentum_ev * 50.0**2
        assert differential_spectrum(eps, p, fss) == pytest.approx(expected, rel=1e-12)

    def test_zero_above_threshold(self):
        fss = single_line_fss(5.0)
        p = params()
        assert differential_spectrum(W0 - 4.0, p, fss) == 0.0
        assert integral_spectrum(W0 + 10.0, p, fss) == 0.0

    def test_massive_neutrino_threshold(self):
        # with m_nu = 1 eV the spectrum vanishes within 1 eV of the endpoint
        fss = single_line_fss()
        p = params(m2nu_ev2=1.0)
        assert integral_spectrum(W0 - 0.5, p, fss) == 0.0
        assert integral_spectrum(W0 - 1.5, p, fss) > 0.0
        assert differential_spectrum(W0 - 0.999, p, fss) == 0.0

    def test_negative_m2_continuation(self):
        # gate at eps_n > 0, radicand positive and enhanced
        fss = single_line_fss()
        neg = params(m2nu_ev2=-2.0)
        zero = params()
        eps = W0 - 5.0
        assert integral_spectrum(eps, neg, fss) > integral_spectrum(eps, zero, fss)
        assert integral_spectrum(W0 + 1.0, neg, fss) == 0.0


class TestDerivativeConsistency:
    def test_integral_differential_relation(self, study_fss):
        # d/deps of the inner 3/2-sum equals -3 times the differential sum,
        # prefactor frozen across the stencil
        p = params(m2nu_ev2=1.0)
        eps0 = W0 - 97.3  # interior, away from line thresholds
        h = 0.02
        stencil = np.array([-2, -1, 1, 2], dtype=float)
        weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        s_vals = spectral_sum(eps0 + stencil * h, p, study_fss)
        ds = float(weights @ s_vals)
        k = momentum_from_kinetic(eps0)
        diff_inner = differential_spectrum(eps0, p, study_fss) \
            / (p.amplitude * fermi_factor(k.momentum_ev, 2)
               * k.total_energy_ev * k.momentum_ev)
        assert ds == pytest.approx(-3.0 * diff_inner, rel=1e-6)


class TestHighPrecisionOracle:
    def test_integral_spectrum_30_digits(self, study_fss):
        p = params(m2nu_ev2=1.5)
        eps = W0 - 300.0
        me = mp.mpf("510998.95000")
        alpha = mp.mpf("7.2973525693e-3")
        eps_mp = mp.mpf(eps)
        pc = mp.sqrt(eps_mp * (eps_mp + 2 * me))
        e_tot = eps_mp + me
        eta = 2 * alpha * e_tot / pc
        x = 2 * mp.pi * eta
        fermi = x / (1 - mp.e**(-x))
        m2 = mp.mpf("1.5")
        mnu = mp.sqrt(m2)
        total = mp.mpf(0)
        for energy, prob in zip(study_fss.energies, study_fss.probabilities):
            en = mp.mpf(W0) - eps_mp - mp.mpf(energy)
            if en > mnu:
                total += mp.mpf(prob) * (en**2 - m2) ** mp.mpf("1.5")
        oracle = float(mp.mpf("2.5") / 3 * fermi * e_tot * pc * total)
        assert integral_spectrum(eps, p, study_fss) == pytest.approx(oracle, rel=1e-10)


class TestLinearizedForm:
    def test_equals_integral_at_m2_zero(self, study_fss):
        p = params()
        eps = np.linspace(W0 - 250.0, W0 - 1.0, 40)
        a = integral_spectrum(eps, p, study_fss)
        b = linearized_spectrum(eps, p, study_fss)
        assert np.allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("m2", [-0.5, 0.0, 0.5])
    def test_matches_direct_line_sum(self, wide, study_fss, m2, drift):
        p = params(m2nu_ev2=m2, endpoint_drift=drift)
        # depths from beyond the endpoint to 1000 eV; 200 energies keep the
        # dense reference on the 5000-line FSS near 8 MB per temporary
        eps = np.linspace(W0 - 1000.0, W0 + 10.0, 200)
        for fss in (wide, study_fss):
            got = linearized_sum(eps, p, fss)
            want = dense_line_sums(eps, p, fss)["linearized"]
            allowance = linearized_allowance(available_energy(eps, p), m2, fss)
            assert np.all(np.abs(got - want) <= allowance)

    def test_difference_shrinks_with_depth(self, study_fss):
        # |integral - linearized| decreases like m^4 / depth
        p = params(m2nu_ev2=1.0)
        deep = abs(spectral_sum(W0 - 200.0, p, study_fss)
                   - linearized_sum(W0 - 200.0, p, study_fss))
        shallow = abs(spectral_sum(W0 - 20.0, p, study_fss)
                      - linearized_sum(W0 - 20.0, p, study_fss))
        assert deep < shallow


class TestStructureProperties:
    def test_channel_additivity(self, rng):
        energies = np.sort(rng.uniform(0, 40, 8))
        whole = from_lines([(energies, 0.1, 0, -1, -1)])
        part_a = from_lines([(energies[:4], 0.1, 0, -1, -1)])
        part_b = from_lines([(energies[4:], 0.1, 0, -1, -1)])
        p = params(m2nu_ev2=0.7)
        eps = np.linspace(W0 - 120.0, W0 - 1.0, 25)
        total = integral_spectrum(eps, p, whole)
        split = integral_spectrum(eps, p, part_a) + integral_spectrum(eps, p, part_b)
        assert np.allclose(total, split, rtol=1e-12)

    def test_amplitude_linearity(self, study_fss):
        eps = W0 - 77.0
        one = integral_spectrum(eps, params(amplitude=1.0), study_fss)
        seven = integral_spectrum(eps, params(amplitude=7.0), study_fss)
        assert seven == pytest.approx(7.0 * one, rel=1e-14)

    def test_nonnegative(self, study_fss):
        p = params(m2nu_ev2=2.0)
        eps = np.linspace(W0 - 400.0, W0 + 30.0, 500)
        assert np.all(integral_spectrum(eps, p, study_fss) >= 0.0)


class TestEffectiveEndpoint:
    def test_no_drift_at_endpoint(self):
        assert effective_endpoint(W0, W0) == W0

    def test_drift_200_below(self):
        delta = W0 - effective_endpoint(W0 - 200.0, W0)
        assert 0.036 <= delta <= 0.040

    def test_drift_100_below(self):
        delta = W0 - effective_endpoint(W0 - 100.0, W0)
        assert delta == pytest.approx(100.0 / 5496.92, rel=1e-4)

    def test_rate_effect_magnitude(self, study_fss):
        # relative rate change ~ 3 dW0 / (W0 - eps) ~ 6e-4 at 200 eV
        eps = W0 - 200.0
        on = integral_spectrum(eps, params(endpoint_drift=True), study_fss)
        off = integral_spectrum(eps, params(), study_fss)
        rel = abs(on - off) / off
        assert 3e-4 < rel < 1e-3


class TestParamsValidation:
    def test_amplitude_positive(self):
        with pytest.raises(ValidationError):
            SpectrumParams(amplitude=0.0, endpoint_ev=W0)

    def test_sanity_bound_on_m2(self):
        with pytest.raises(ValidationError):
            SpectrumParams(amplitude=1.0, endpoint_ev=W0, m2nu_ev2=2e4)

    def test_physical_endpoint_range(self):
        with pytest.raises(ValidationError):
            SpectrumParams(amplitude=1.0, endpoint_ev=90.0)


def wide_fss(n_lines, lowest_ev=2.0):
    """Synthetic FSS: sorted random lines from `lowest_ev` up, total 0.9."""
    gen = np.random.default_rng(n_lines)
    energies = np.sort(gen.uniform(lowest_ev, 80.0, n_lines))
    energies[0] = lowest_ev
    probs = gen.uniform(0.0, 1.0, n_lines)
    probs *= 0.9 / probs.sum()
    return from_lines([(energies, probs, 0, -1, -1)])


@pytest.fixture(scope="module")
def wide():
    return wide_fss(5000)


def dense_terms(eps, p, fss):
    """(eps_n, theta gate, gated radicand, its square root), each one
    (energies x lines) array, no blocks."""
    en = available_energy(eps, p)[:, None] - fss.energies[None, :]
    m2 = p.m2nu_ev2
    if m2 >= 0.0:
        gate = en > np.sqrt(m2)
        rad = np.maximum(en * en - m2, 0.0)
    else:
        gate = en > 0.0
        rad = en * en - m2
    rad = np.where(gate, rad, 0.0)
    return en, gate, rad, np.sqrt(rad)


def scaled_line_sums(eps, p, spectral, inner, w0_sum, m2_sum):
    """The kernel outputs from their inner line sums: each times its
    prefactor, the derivatives times their factors."""
    ds_dw0 = 3.0 * w0_sum
    if p.endpoint_drift:
        ds_dw0 *= 1.0 - 1.0 / CONSTANTS.triton_electron_ratio
    prefactor = tribeta.kernel.spectrum_prefactor(eps, p.z_daughter)
    scale = (p.amplitude / 3.0) * prefactor
    return {"spectral": spectral,
            "differential": p.amplitude * prefactor * inner,
            "value": scale * spectral, "d_w0": scale * ds_dw0,
            "d_m2": scale * (-1.5 * m2_sum)}


def dense_line_sums(eps, p, fss):
    """Reference: every line sum as one (energies x lines) array, no blocks.

    Returns the spectral, linearized and differential sums and the three
    `integral_spectrum_derivatives` outputs, each with its prefactor.  The
    exact sums weight the square roots by P once and take each row sum as
    the kernel's `einsum` contraction.  The linearized sum is the direct
    line sum that the kernel's moment form is checked against.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    en, gate, rad, root = dense_terms(eps, p, fss)
    m2 = p.m2nu_ev2
    prob_root = fss.probabilities[None, :] * root
    sums = scaled_line_sums(
        eps, p, np.einsum("ij,ij->i", prob_root, rad),
        np.einsum("ij,ij->i", prob_root, np.where(gate, en, 0.0)),
        np.einsum("ij,ij->i", prob_root, en), np.einsum("ij->i", prob_root))
    sums["linearized"] = (fss.probabilities * np.where(
        en > 0.0, en**3 - 1.5 * m2 * en, 0.0)).sum(axis=1)
    return sums


def multiply_then_sum_line_sums(eps, p, fss):
    """Reference in another order: each exact line sum's terms multiplied
    out in full, then summed along the row."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    en, gate, rad, root = dense_terms(eps, p, fss)
    prob = fss.probabilities[None, :]
    prob_root = prob * root
    return scaled_line_sums(
        eps, p, (prob * rad * root).sum(axis=1),
        (prob * np.where(gate, en * root, 0.0)).sum(axis=1),
        (prob_root * en).sum(axis=1), prob_root.sum(axis=1))


def available_energy(eps, p):
    """W0_eff - eps, as the kernel computes it."""
    eps = np.asarray(eps, dtype=float)
    w0eff = effective_endpoint(eps, p.endpoint_ev) if p.endpoint_drift \
        else np.full_like(eps, p.endpoint_ev)
    return w0eff - eps


def linearized_allowance(avail, m2, fss):
    """Forward-error bound on |moment form - direct line sum| at each
    available energy, for an FSS whose lowest line E_0 is >= 0.

    Higham's gamma_k = k u / (1 - k u) over the n open lines.  S, the sum of
    the term magnitudes, bounds both forms: |eps_n|^3 <= (eps + |E_n|)^3
    expands to its first terms.  Moment form, with energies counted from
    E_0 (so y + E_n - E_0 <= eps + E_n, y = eps - E_0): a sum of
    P (E - E_0)^k takes 1 rounding for E - E_0, up to 3 for the products
    and n - 1 for the prefix sum; its term takes 1 for y, at most 2 for the
    power (pow is under 1 ulp), 1 for the coefficient and 1 for the
    product, or 1 for s0 y, 1 for the difference, 1 for 1.5 m2nu and 1 for
    the product, and 4 for the bracket's additions: at most n + 9.  Direct
    form: eps_n takes 1, its cube 2, the m2nu part 2, the difference and the
    product by P_n 2, the sum n - 1: at most n + 6.  So
    |moment - direct| <= (gamma_{n+9} + gamma_{n+6}) S <= 2 gamma_{n+10} S.
    """
    assert fss.energies[0] >= 0.0
    eps = np.atleast_1d(avail)[:, None]
    e = fss.energies[None, :]
    open_mask = e < eps
    s = (fss.probabilities * np.where(
        open_mask, (eps + e)**3 + 1.5 * abs(m2) * (eps + e), 0.0)).sum(axis=1)
    ku = (open_mask.sum(axis=1) + 10) * 2.0**-53
    return 2.0 * ku / (1.0 - ku) * s


def blocked_line_sums(eps, p, fss):
    value, d_w0, d_m2 = integral_spectrum_derivatives(eps, p, fss)
    return {"spectral": spectral_sum(eps, p, fss),
            "differential": differential_spectrum(eps, p, fss),
            "value": value, "d_w0": d_w0, "d_m2": d_m2}


class TestBlockedLineSums:
    """The blocked kernel is byte-identical to one dense pass."""

    @staticmethod
    def assert_bytes_equal(eps, p, fss):
        got = blocked_line_sums(eps, p, fss)
        want = dense_line_sums(eps, p, fss)
        for name, value in got.items():
            value = np.asarray(value, dtype=float).ravel()
            assert value.tobytes() == want[name].tobytes(), name

    @staticmethod
    def unsorted_grid(n, lo, hi):
        return np.random.default_rng(n).permutation(np.linspace(lo, hi, n))

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("m2", [-0.5, 0.0, 0.5])
    def test_wide_fss_several_blocks(self, wide, m2, drift):
        rows = tribeta.kernel._BLOCK_ELEMENTS // len(wide)
        eps = self.unsorted_grid(3 * rows + 5, W0 - 90.0, W0 + 10.0)
        self.assert_bytes_equal(eps, params(m2nu_ev2=m2, endpoint_drift=drift),
                                wide)

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("m2", [-0.5, 0.0, 0.5])
    def test_study_fss_several_blocks(self, study_fss, m2, drift):
        rows = tribeta.kernel._BLOCK_ELEMENTS // len(study_fss)
        eps = self.unsorted_grid(2 * rows + 7, W0 - 400.0, W0 + 10.0)
        self.assert_bytes_equal(eps, params(m2nu_ev2=m2, endpoint_drift=drift),
                                study_fss)

    @pytest.mark.parametrize("m2", [-0.5, 0.0, 0.5])
    def test_all_rows_closed(self, wide, m2):
        # available energy at or below the lowest line (2 eV) everywhere
        eps = np.linspace(W0 - 2.0, W0 + 10.0, 9)
        self.assert_bytes_equal(eps, params(m2nu_ev2=m2), wide)
        assert not np.any(spectral_sum(eps, params(m2nu_ev2=m2), wide))

    @pytest.mark.parametrize("m2", [0.25, -0.5])
    def test_theta_gate_boundary_across_blocks(self, m2):
        # lines and available energies on a 0.25 eV lattice, so eps_n is
        # exact: some eps_n are exactly sqrt(m2) = 0.5 (m2 = 0.25) or
        # exactly 0 (m2 < 0, where the radicand -m2 is not 0 and only the
        # theta gate closes the line), in every block
        n_lines = 1000
        fss = from_lines([(2.0 + 0.25 * np.arange(n_lines),
                           np.full(n_lines, 0.9 / n_lines), 0, -1, -1)])
        rows = tribeta.kernel._BLOCK_ELEMENTS // n_lines
        eps = W0 - 0.25 * np.arange(3 * rows + 5)
        en = (W0 - eps)[:, None] - fss.energies[None, :]
        boundary = np.sqrt(m2) if m2 >= 0.0 else 0.0
        hits = np.flatnonzero(np.any(en == boundary, axis=1))
        assert hits[0] < rows and hits[-1] >= 2 * rows
        self.assert_bytes_equal(eps, params(m2nu_ev2=m2), fss)

    @pytest.mark.parametrize("eps", [W0 - 30.0, W0 - 2.0, W0 + 1.0])
    @pytest.mark.parametrize("m2", [-0.5, 0.5])
    def test_scalar_call(self, wide, eps, m2):
        got = blocked_line_sums(eps, params(m2nu_ev2=m2), wide)
        assert all(isinstance(v, float) for v in got.values())
        self.assert_bytes_equal(eps, params(m2nu_ev2=m2), wide)


class TestSumOrder:
    """The contractions agree with multiply-then-sum row sums.

    Every term is >= 0, so each sum's relative rounding error is below
    gamma_n (n lines), whatever the order.  Measured worst cases are 3 eps
    on the study FSS and 17 eps on the 5,000-line one (25 eps on the
    4,943-line recoil FSS); the bound is 1e-13, about 450 eps.
    """

    REL = 1e-13

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("m2", [-0.5, 0.0, 0.5])
    def test_matches_multiply_then_sum(self, wide, study_fss, m2, drift):
        p = params(m2nu_ev2=m2, endpoint_drift=drift)
        eps = np.linspace(W0 - 1000.0, W0 + 10.0, 200)
        for fss in (study_fss, wide):
            got = blocked_line_sums(eps, p, fss)
            want = multiply_then_sum_line_sums(eps, p, fss)
            for name, value in got.items():
                assert np.all(np.abs(value - want[name])
                              <= self.REL * np.abs(want[name])), name


class TestBlasIndependence:
    """The line sums take no BLAS call, so the BLAS thread count cannot
    change their bits.  A BLAS dot product rounds differently at 1 and 2
    OpenBLAS threads on rows of 100,000 lines."""

    SCRIPT = """
import sys
import numpy as np
from tribeta.fss import from_lines
from tribeta.kernel import SpectrumParams, integral_spectrum_derivatives
gen = np.random.default_rng(7)
energies = np.sort(gen.uniform(2.0, 80.0, 100_000))
probs = gen.uniform(0.0, 1.0, energies.size)
fss = from_lines([(energies, probs * (0.9 / probs.sum()), 0, -1, -1)])
eps = np.linspace(18575.0 - 90.0, 18575.0 - 1.0, 40)
p = SpectrumParams(amplitude=2.5, endpoint_ev=18575.0, m2nu_ev2=0.3)
for v in integral_spectrum_derivatives(eps, p, fss):
    sys.stdout.buffer.write(v.tobytes())
"""

    def test_same_bits_at_one_and_two_blas_threads(self):
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            outputs.append(subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env,
                capture_output=True, check=True).stdout)
        assert len(outputs[0]) == 3 * 40 * 8
        assert outputs[0] == outputs[1]


class TestWorkingMemory:
    """Kernel temporaries do not grow with energies x lines."""

    PEAK_MAX_BYTES = 8 * 2**20

    @pytest.mark.parametrize("form", [integral_spectrum,
                                      integral_spectrum_derivatives])
    def test_peak_below_bound(self, wide, form):
        eps = np.linspace(W0 - 150.0, W0 - 1.0, 2000)
        p = params(m2nu_ev2=0.3)
        tracemalloc.start()
        try:
            form(eps, p, wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_MAX_BYTES
