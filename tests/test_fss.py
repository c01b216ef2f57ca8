"""FSS parsing, moments and the moment-form identity."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribeta.errors import FssParseError, ValidationError
from tribeta.fss import (FssLine, cumulative_moments, direct_spectrum_term,
                         from_lines, load_fss, moment_form_spectrum_term,
                         save_fss)


def random_fss(rng, n_lines=None):
    n = n_lines or rng.integers(1, 40)
    energies = np.sort(rng.uniform(0.0, 60.0, n))
    probs = rng.uniform(0.0, 1.0, n)
    probs *= rng.uniform(0.2, 1.0) / probs.sum()
    return from_lines([FssLine(float(e), float(p))
                       for e, p in zip(energies, probs)])


class TestIO:
    def test_two_line_file(self):
        fss = load_fss(io.StringIO("0.0 0.5\n1.0 0.5\n"))
        assert fss.total_probability == pytest.approx(1.0)
        assert len(fss) == 2

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError, match="negative probability"):
            load_fss(io.StringIO("0.0 0.5\n1.0 -0.1\n"))

    def test_malformed_row_reports_line(self):
        with pytest.raises(FssParseError, match="line 3"):
            load_fss(io.StringIO("# header\n0.0 0.5\n1.0 oops\n"))

    def test_missing_column(self):
        with pytest.raises(FssParseError):
            load_fss(io.StringIO("1.0\n"))

    def test_unsorted_input_sorted_with_flag(self):
        fss = load_fss(io.StringIO("2.0 0.3\n1.0 0.2\n"))
        assert fss.provenance.get("sorted_on_load") is True
        assert list(fss.energies) == [1.0, 2.0]

    def test_comments_and_quantum_labels(self):
        fss = load_fss(io.StringIO("# c\n1.0 0.25 0 12 3\n2.0 0.25 1 - -\n"))
        assert fss.lines[0].rotation == 12
        assert fss.lines[0].vibration == 3
        assert fss.lines[1].rotation is None

    def test_dash_channel_rejected(self):
        with pytest.raises(FssParseError, match="line 2"):
            load_fss(io.StringIO("1.0 0.25 0 12 3\n2.0 0.25 - - -\n"))

    def test_round_trip_bit_identical(self, tmp_path, rng):
        fss = random_fss(np.random.default_rng(7), 25)
        path = tmp_path / "t.fss"
        save_fss(fss, str(path))
        back = load_fss(str(path))
        assert np.array_equal(back.energies, fss.energies)
        assert np.array_equal(back.probabilities, fss.probabilities)
        # file ends with a newline
        assert path.read_text().endswith("\n")

    def test_total_probability_bound(self):
        with pytest.raises(ValidationError):
            from_lines([FssLine(0.0, 0.9), FssLine(1.0, 0.9)])


class TestCumulativeMoments:
    def test_single_line_open(self):
        fss = from_lines([FssLine(2.0, 0.6)])
        m = cumulative_moments(fss, 5.0)
        assert m.p_open == pytest.approx(0.6)
        assert m.mean_e == pytest.approx(2.0)
        assert m.mean_e2 == pytest.approx(4.0)
        assert m.mean_e3 == pytest.approx(8.0)

    def test_single_line_closed(self):
        fss = from_lines([FssLine(2.0, 0.6)])
        m = cumulative_moments(fss, 1.0)
        assert not m.open
        assert m.p_open == 0.0
        assert m.mean_e is None and m.mean_e2 is None and m.mean_e3 is None

    def test_threshold_is_strict(self):
        fss = from_lines([FssLine(2.0, 0.6)])
        assert not cumulative_moments(fss, 2.0).open
        assert cumulative_moments(fss, 2.0 + 1e-12).open

    def test_p_open_nondecreasing(self):
        fss = random_fss(np.random.default_rng(3))
        eps = np.linspace(-5.0, 80.0, 300)
        p = [cumulative_moments(fss, e).p_open for e in eps]
        assert np.all(np.diff(p) >= 0.0)

    def test_variance_nonnegative(self):
        fss = random_fss(np.random.default_rng(11))
        for e in np.linspace(1.0, 80.0, 60):
            m = cumulative_moments(fss, e)
            if m.open:
                assert m.mean_e2 >= m.mean_e**2 - 1e-12


class TestMomentFormIdentity:
    def test_single_line_binomial(self):
        fss = from_lines([FssLine(3.0, 0.7)])
        eps = 10.0
        assert moment_form_spectrum_term(fss, eps) == pytest.approx(
            0.7 * (eps - 3.0) ** 3, rel=1e-12)

    def test_closed_returns_zero(self):
        fss = from_lines([FssLine(3.0, 0.7)])
        assert moment_form_spectrum_term(fss, 1.0, 2.5) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-5.0, max_value=5.0))
    @example(seed=23915, m2nu=0.0)
    def test_identity_random(self, seed, m2nu):
        rng = np.random.default_rng(seed)
        fss = random_fss(rng)
        eps = float(rng.uniform(0.5, 120.0))
        a = moment_form_spectrum_term(fss, eps, m2nu)
        b = direct_spectrum_term(fss, eps, m2nu)
        # Forward-error bound (Higham's gamma_k = k u / (1 - k u)) over the
        # n open lines.  S, the sum of the term magnitudes, bounds both
        # forms: |eps_n|^3 <= (eps + |E_n|)^3 expands to its first terms.
        # Moment form: a P_eps eps^3 term takes n - 1 roundings from the sum
        # P_eps, 2 from pow (under 1 ulp), 4 from the bracket's additions
        # and 1 from the product by P_eps; a moment term takes at most
        # 3 + (n - 1) + 1 for p e^k, its sum and the division (P_eps then
        # cancels), 1 + 2 + 1 for the coefficient, eps^2 and product, and
        # the same 4 + 1: at most n + 10.  Direct form: eps_n takes 1,
        # its cube 3 + 2, the m2nu part 2, the difference and the product
        # by P_n 2, the sum n - 1: at most n + 6.  So
        # |a - b| <= (gamma_{n+10} + gamma_{n+6}) S <= 2 gamma_{n+10} S.
        open_mask = fss.energies < eps
        e = np.abs(fss.energies[open_mask])
        s = float((fss.probabilities[open_mask]
                   * (eps**3 + 3.0 * e * eps**2 + 3.0 * e**2 * eps
                      + 1.5 * abs(m2nu) * (eps + e) + e**3)).sum())
        ku = (int(open_mask.sum()) + 10) * 2.0**-53
        allowance = 2.0 * ku / (1.0 - ku) * s
        assert abs(a - b) <= max(1e-10 * max(abs(a), abs(b)), allowance)

    def test_m2_zero_monotone_in_eps(self):
        fss = random_fss(np.random.default_rng(17))
        eps = np.linspace(0.0, 100.0, 500)
        vals = [moment_form_spectrum_term(fss, e, 0.0) for e in eps]
        assert np.all(np.diff(vals) >= -1e-9 * max(vals))
