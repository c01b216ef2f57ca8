"""FSS columns, parsing, moments and the moment-form identity."""

import io
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_kernel import (available_energy, dense_line_sums,
                         linearized_allowance)
from tribeta.errors import FssParseError, ValidationError
from tribeta.fss import (FinalStateSpectrum, cumulative_moments, from_lines,
                         load_fss, moment_form_spectrum_term, save_fss)
from tribeta.kernel import SpectrumParams, linearized_sum

W0 = 18575.0


def random_fss(rng, n_lines=None):
    n = n_lines or rng.integers(1, 40)
    energies = np.sort(rng.uniform(0.0, 60.0, n))
    probs = rng.uniform(0.0, 1.0, n)
    probs *= rng.uniform(0.2, 1.0) / probs.sum()
    return from_lines([(energies, probs, 0, -1, -1)])


def one_line(energy, prob):
    return from_lines([(energy, prob, 0, -1, -1)])


def columns(**change):
    """FinalStateSpectrum from two valid columns, with `change` applied."""
    cols = {"energies": np.array([0.0, 1.0]),
            "probabilities": np.array([0.5, 0.5]),
            "channels": np.array([0, 1]), "rotations": np.array([3, -1]),
            "vibrations": np.array([2, -1])}
    cols.update(change)
    return FinalStateSpectrum(**cols, q_ref=None, provenance={})


class TestFinalStateSpectrum:
    @pytest.mark.parametrize("change,fragment", [
        ({name: np.empty(0, dtype) for name, dtype in (
            ("energies", float), ("probabilities", float),
            ("channels", int), ("rotations", int), ("vibrations", int))},
         "must contain lines"),
        ({"energies": np.array([0.0, np.nan])}, "must be finite"),
        ({"probabilities": np.array([0.5, np.inf])}, "must be finite"),
        ({"probabilities": np.array([0.5, -0.1])}, "negative probability"),
        ({"channels": np.array([0, -1])}, "channel index must be >= 0"),
        ({"energies": np.array([1.0, 0.0])}, "sorted ascending"),
        ({"probabilities": np.array([0.9, 0.9])}, "total probability"),
        ({"probabilities": np.array([0.0, 0.0])}, "total probability"),
        # save_fss would zip columns of unequal length short
        ({"channels": np.array([0, 0, 0]), "rotations": np.array([-1]),
          "vibrations": np.array([-1, -1])}, "one entry per line"),
        ({"probabilities": np.array([0.5, 0.25, 0.25])}, "one entry per line"),
        ({"energies": np.array([0.0])}, "one entry per line"),
        ({"vibrations": np.array([[2, -1]])}, "one entry per line"),
    ], ids=["empty", "nan-energy", "inf-probability", "negative-probability",
            "negative-channel", "unsorted", "total-above-1", "total-zero",
            "labels-3-1-2", "three-probabilities", "one-energy",
            "2d-vibrations"])
    def test_rejects_bad_columns(self, change, fragment):
        with pytest.raises(ValidationError, match=fragment):
            columns(**change)

    @pytest.mark.parametrize("labels,fragment", [
        ((2**70, -1, -1), "labels must be int64"),
        ((0, 2**63, -1), "labels must be int64"),
        ((0, 1.0, -1), "labels must be int64"),
        ((0, -5, -5), "J and v must be >= 0, or -1 for none"),
        ((0, 3, -2), "J and v must be >= 0, or -1 for none"),
    ], ids=["channel-2^70", "J-2^63", "J-float", "J-v-minus-5", "v-minus-2"])
    def test_from_lines_bounds_labels(self, labels, fragment):
        # the label rules of load_fss hold for spectra built in memory too
        with pytest.raises(ValidationError, match=fragment):
            from_lines([(0.0, 1.0, *labels)])

    def test_columns_read_only(self):
        fss = columns()
        for column in (fss.energies, fss.probabilities, fss.channels,
                       fss.rotations, fss.vibrations):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_pickle_round_trip_keeps_columns_read_only(self):
        # bias_scan sends the spectrum to its worker processes by pickle
        fss = replace(columns(), q_ref=18.64, provenance={"v_max": 24})
        back = pickle.loads(pickle.dumps(fss))
        assert back.q_ref == fss.q_ref and back.provenance == fss.provenance
        for name in ("energies", "probabilities", "channels", "rotations",
                     "vibrations"):
            column = getattr(back, name)
            assert np.array_equal(column, getattr(fss, name))
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_from_lines_sorts_blocks_stably(self):
        fss = from_lines([(np.array([2.0, 0.5]), 0.25, 0, np.array([4, 5]), 1),
                          (2.0, 0.25, 1, -1, -1), (0.5, 0.25, 2, -1, -1)])
        assert fss.energies.tolist() == [0.5, 0.5, 2.0, 2.0]
        assert fss.channels.tolist() == [0, 2, 0, 1]
        assert fss.rotations.tolist() == [5, -1, 4, -1]
        assert fss.vibrations.tolist() == [1, -1, 1, -1]
        assert fss.rotations.dtype == np.int64


class TestIO:
    def test_two_line_file(self):
        fss = load_fss(io.StringIO("0.0 0.5\n1.0 0.5\n"))
        assert fss.total_probability == pytest.approx(1.0)
        assert len(fss) == 2

    def test_negative_probability_rejected(self):
        # the first offending line is named
        with pytest.raises(FssParseError,
                           match="^line 2: negative probability -0.1$"):
            load_fss(io.StringIO("0.0 0.5\n1.0 -0.1\n2.0 0.1\n3.0 -0.2\n"))

    @pytest.mark.parametrize("row", ["nan 0.3 0 - -", "inf 0.5 0 - -",
                                     "-inf 0.5", "1.0 nan", "1.0 inf"])
    def test_non_finite_rejected_with_line(self, row):
        energy, prob = (float(x) for x in row.split()[:2])
        message = ("line 3: line energy and probability must be finite, got "
                   f"{energy} and {prob}")
        with pytest.raises(FssParseError, match=f"^{message}$"):
            load_fss(io.StringIO(f"# header\n0.0 0.4\n{row}\n2.0 0.1\n"))

    @pytest.mark.parametrize("energy,prob", [(float("nan"), 0.3),
                                             (float("-inf"), 0.5),
                                             (1.0, float("nan"))])
    def test_non_finite_line_rejected(self, energy, prob):
        with pytest.raises(ValidationError, match="must be finite"):
            one_line(energy, prob)

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
        assert fss.channels.tolist() == [0, 1]
        assert fss.rotations.tolist() == [12, -1]
        assert fss.vibrations.tolist() == [3, -1]

    @pytest.mark.parametrize("text,q_ref,labels", [
        ("   # q_ref_au = 3.5\n1.0 0.25 0 12 3\n2.0 0.25 1 - -\n", 3.5,
         ([0, 1], [12, -1], [3, -1])),
        ("1.0\t0.25\t0\t12\t3\n2.0\t0.25 1\t-\t-\n", None,
         ([0, 1], [12, -1], [3, -1])),
        ("# q_ref_au = 3.5\r\n1.0 0.25 0 12 3\r\n2.0 0.25 1 - -\r\n", 3.5,
         ([0, 1], [12, -1], [3, -1])),
        # 2 to 5 columns in one file: channel 0, J and v -1 where missing
        ("1.0 0.1\n2.0 0.2 1\n3.0 0.3 2 4\n4.0 0.1 3 5 6\n", None,
         ([0, 1, 2, 3], [-1, -1, 4, 5], [-1, -1, -1, 6])),
    ], ids=["indented-comment", "tabs", "crlf", "two-to-five-columns"])
    def test_row_layouts(self, text, q_ref, labels):
        fss = load_fss(io.StringIO(text))
        assert fss.q_ref == q_ref
        assert (fss.channels.tolist(), fss.rotations.tolist(),
                fss.vibrations.tolist()) == labels
        assert all(c.dtype == np.int64 for c in (fss.channels, fss.rotations,
                                                 fss.vibrations))

    @pytest.mark.parametrize("row,fragment", [
        ("1.0 0.5 0 -3 2", "J must be >= 0"),
        ("1.0 0.5 0 3 -2", "v must be >= 0"),
        ("1.0 0.5 -1 3 2", "channel must be >= 0"),
        ("2.0 0.2 0 1 2 junk", "got 6"),
        ("1.0 0.5 0 -1 2", "J must be >= 0, got -1$"),
        ("oops 0.5", r"bad numeric field in \['oops', '0.5'\]$"),
        ("1.0 0.5 x 3 2", "bad channel value 'x'$"),
        ("1.0 0.5 1.5", r"bad channel value '1\.5'$"),
        ("1.0 0.5 0 x 2", "bad J value 'x'$"),
        ("1.0 0.5 0 1.5", r"bad J value '1\.5'$"),
        ("1.0 0.5 0 3 x", "bad v value 'x'$"),
        ("1.0 0.5 0 3 1.5", r"bad v value '1\.5'$"),
        ("0.0 0.5 0 99999999999999999999 1",
         "J must be <= 9223372036854775807, got 99999999999999999999$"),
    ])
    def test_bad_quantum_or_extra_column_rejected(self, row, fragment):
        with pytest.raises(FssParseError, match=f"line 3: .*{fragment}") as info:
            load_fss(io.StringIO(f"# header\n0.0 0.4 0 1 1\n{row}\n"))
        assert info.value.line_number == 3

    def test_q_ref_from_comment(self):
        fss = load_fss(io.StringIO("# q_ref_au = 18.5\n0.0 0.5\n"))
        assert fss.q_ref == 18.5
        assert load_fss(io.StringIO("0.0 0.5\n")).q_ref is None

    def test_dash_channel_rejected(self):
        with pytest.raises(FssParseError, match="^line 2: channel must be an "
                                                "integer, got '-'$"):
            load_fss(io.StringIO("1.0 0.25 0 12 3\n2.0 0.25 - - -\n"))

    def test_round_trip_bit_identical(self, tmp_path):
        gen = np.random.default_rng(7)
        probs = gen.uniform(0.0, 1.0, 25)
        fss = from_lines([(gen.uniform(0.0, 60.0, 25),
                           0.9 * probs / probs.sum(), gen.integers(0, 3, 25),
                           gen.integers(-1, 4, 25), gen.integers(-1, 4, 25))],
                         q_ref=18.6)
        assert np.any(fss.rotations == -1) and np.any(fss.vibrations == -1)
        path = tmp_path / "t.fss"
        save_fss(fss, str(path))
        # a path is a string or an os.PathLike
        for back in (load_fss(str(path)), load_fss(path)):
            for name in ("energies", "probabilities", "channels", "rotations",
                         "vibrations"):
                got, want = getattr(back, name), getattr(fss, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert back.q_ref == fss.q_ref
            assert back.provenance["source"] == str(path)
        # -1 labels are written as `-`, and the file ends with a newline
        text = path.read_text()
        labels = [token for row in text.splitlines() if not row.startswith("#")
                  for token in row.split()[3:]]
        assert labels.count("-") == np.sum(fss.rotations == -1) \
            + np.sum(fss.vibrations == -1)
        assert "-1" not in labels
        assert text.endswith("\n")

    def test_total_probability_bound(self):
        with pytest.raises(ValidationError):
            from_lines([(np.array([0.0, 1.0]), 0.9, 0, -1, -1)])


class TestCumulativeMoments:
    def test_single_line_open(self):
        fss = one_line(2.0, 0.6)
        m = cumulative_moments(fss, 5.0)
        assert m.p_open == pytest.approx(0.6)
        assert m.mean_e == pytest.approx(2.0)
        assert m.mean_e2 == pytest.approx(4.0)
        assert m.mean_e3 == pytest.approx(8.0)

    def test_single_line_closed(self):
        fss = one_line(2.0, 0.6)
        m = cumulative_moments(fss, 1.0)
        assert not m.open
        assert m.p_open == 0.0
        assert m.mean_e is None and m.mean_e2 is None and m.mean_e3 is None

    def test_threshold_is_strict(self):
        fss = one_line(2.0, 0.6)
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
        fss = one_line(3.0, 0.7)
        eps = 10.0
        term = float(moment_form_spectrum_term(fss, eps, 0.0))
        assert term == pytest.approx(0.7 * (eps - 3.0) ** 3, rel=1e-12)

    def test_closed_returns_zero(self):
        fss = one_line(3.0, 0.7)
        assert moment_form_spectrum_term(fss, 1.0, 2.5) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-5.0, max_value=5.0), st.booleans())
    @example(seed=23915, m2nu=0.0, drift=False)
    def test_identity_random(self, seed, m2nu, drift):
        rng = np.random.default_rng(seed)
        fss = random_fss(rng)
        eps_beta = W0 - float(rng.uniform(0.5, 120.0))
        params = SpectrumParams(amplitude=1.0, endpoint_ev=W0, m2nu_ev2=m2nu,
                                endpoint_drift=drift)
        a = linearized_sum(eps_beta, params, fss)
        b = float(dense_line_sums(eps_beta, params, fss)["linearized"][0])
        allowance = linearized_allowance(available_energy(eps_beta, params),
                                         m2nu, fss)[0]
        assert abs(a - b) <= max(1e-10 * max(abs(a), abs(b)), allowance)

    def test_m2_zero_monotone_in_eps(self):
        fss = random_fss(np.random.default_rng(17))
        eps = np.linspace(0.0, 100.0, 500)
        vals = moment_form_spectrum_term(fss, eps, 0.0)
        assert np.all(np.diff(vals) >= -1e-9 * max(vals))
