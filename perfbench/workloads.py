"""The three benchmark workloads: set-up, one timed pass, output checks.

Each workload is built from (size, seed, work directory, reference).  The
program receives only inputs generated here.  Seeded inputs come in
VARIANTS numbered variants, each with a recorded reference (see record.py).
Pass i of a run uses variant (seed + i % VARIANTS_PER_RUN) % VARIANTS, so
the same seed always gives the same inputs, and a run averages over several
inputs rather than timing the luck of one dataset: a fit's iteration count
depends on its data.

`setup()` may run several times; `run_pass(i)` is the timed unit and returns
what `check()` inspects; `reference_entry()` turns a pass into the record
that `check()` later compares against.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import stdtrit

from tribeta import cli
from tribeta.bias import ScanSpec, bias_scan, build_study_fss, save_bias_csv
from tribeta.franck_condon import RecoilEngine, default_model, solve_initial
from tribeta.fss import save_fss
from tribeta.kernel import SpectrumParams, integral_spectrum
from tribeta.response import ResponseModel, generate_pseudodata, save_dataset

VARIANTS = 16
VARIANTS_PER_RUN = 4
ENDPOINT_EV = 18575.0
Q_AU = 18.64

#: relative agreement with the recorded reference for deterministic outputs
REF_RTOL = 1e-9
#: agreement of fitted values with the recorded reference, in units of the
#: stated error (ensemble means: their SE); a forward-model change that moves
#: a result by more than 1% of its error is a physics change
REF_SIGMA_TOL = 0.01


@dataclass
class Check:
    """Outcome of one pass: operations, failures and what went wrong."""

    attempted: int = 0
    failed: int = 0
    fits: int = 0
    ref_dev: float = 0.0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def read_fss_table(path: Path) -> dict:
    """Columns of an FSS table file, parsed without tribeta's reader."""
    energy, prob, channel, rotation = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            if raw.startswith("#") or not raw.strip():
                continue
            e, p, c, j, _ = raw.split()
            energy.append(float(e))
            prob.append(float(p))
            channel.append(int(c))
            rotation.append(-1 if j == "-" else int(j))
    return {"energy": np.array(energy), "prob": np.array(prob),
            "channel": np.array(channel), "rotation": np.array(rotation)}


def run_variants(seed: int) -> list[int]:
    return [(seed + k) % VARIANTS for k in range(VARIANTS_PER_RUN)]


class FssGen:
    """`tribeta fss gen` with CLI defaults: radial solves dominate."""

    name = "fss-gen"
    SIZES = {
        # CLI defaults: j_max 60, v_max 80, grid gate on
        "full": {"q": Q_AU, "args": [], "oracle_rtol": 5e-4},
        "smoke": {"q": 4.0, "args": ["--j-max", "12", "--v-max", "12"],
                  "oracle_rtol": 5e-3},
    }

    def __init__(self, size: str, seed: int, workdir: Path, reference: dict):
        self.size = self.SIZES[size]
        self.workdir = workdir
        self.reference = reference
        self.out = workdir / "fss-gen.dat"
        self.argv = (["fss", "gen", "--q", repr(self.size["q"])]
                     + self.size["args"] + ["--out", str(self.out)])
        self._mean_r = None

    def setup(self) -> None:
        warm = self.workdir / "warm.dat"
        if cli.main(["fss", "gen", "--q", "1.0", "--j-max", "0", "--v-max", "2",
                     "--no-grid-check", "--out", str(warm)]) != 0:
            raise RuntimeError("warm-up fss gen failed")

    def run_pass(self, index: int):
        return cli.main(self.argv)

    def _summary(self) -> dict:
        table = read_fss_table(self.out)
        p, e = table["prob"], table["energy"]
        sidecar = json.loads(Path(str(self.out) + ".json").read_text())
        return {"table": table, "sidecar": sidecar,
                "line_count": int(p.size), "total_probability": float(p.sum()),
                "mean_e": float((p * e).sum() / p.sum())}

    def reference_entry(self, code) -> dict:
        s = self._summary()
        return {"line_count": s["line_count"],
                "total_probability": s["total_probability"],
                "mean_e": s["mean_e"],
                "truncation_deficit": s["sidecar"]["truncation_deficit"]}

    def oracle_deviation(self, table: dict) -> float:
        """Relative miss of <J + 1/2> = pi q <R> / 4 on channel 0."""
        if self._mean_r is None:
            init = solve_initial(default_model())
            chi0 = init.wavefunctions[:, 0]
            self._mean_r = float(np.sum(chi0 * chi0 * init.radii) * init.step)
        ch0 = table["channel"] == 0
        p = table["prob"][ch0]
        mean_j = float((p * (table["rotation"][ch0] + 0.5)).sum() / p.sum())
        expected = math.pi * self.size["q"] * self._mean_r / 4.0
        return abs(mean_j - expected) / expected

    def check(self, code) -> Check:
        out = Check()
        if code != 0:
            out.op(False, f"fss gen exit {code}")
            return out
        s = self._summary()
        ref = self.reference
        problems = []
        if s["line_count"] != ref["line_count"] or \
                s["sidecar"]["line_count"] != ref["line_count"]:
            problems.append(f"line count {s['line_count']} != {ref['line_count']}")
        out.ref_dev = max(
            abs(s["total_probability"] / ref["total_probability"] - 1.0),
            abs(s["mean_e"] / ref["mean_e"] - 1.0))
        if out.ref_dev > REF_RTOL:
            problems.append(f"total probability / mean E off by {out.ref_dev:.3e}")
        deficits = s["sidecar"]["truncation_deficit"]
        if deficits.keys() != ref["truncation_deficit"].keys() or any(
                abs(deficits[k] - v) > REF_RTOL
                for k, v in ref["truncation_deficit"].items()):
            problems.append(f"truncation deficits {deficits}")
        if s["sidecar"]["truncation_warning"]:
            problems.append("truncation warning set")
        oracle = self.oracle_deviation(s["table"])
        if oracle > self.size["oracle_rtol"]:
            problems.append(f"<J+1/2> oracle off by {oracle:.3e}")
        out.op(not problems, "; ".join(problems))
        return out


class BiasScanWorkload:
    """`bias_scan` on the 27-line study FSS: many small fits, one bin grid."""

    name = "bias-scan"
    DEPTHS_EV = (100.0, 200.0, 400.0)
    SIZES = {"full": {"replications": 4}, "smoke": {"replications": 2}}
    #: the matched-model control must sit within "3 SE" of zero: the
    #: two-sided 99.73% level.  The SE comes from only R replications, so the
    #: limit is the Student-t quantile with R - 1 degrees of freedom (9.2 SE
    #: at R = 4); a flat 3 SE rejects one in six honest 4-replication scans.
    CONTROL_LEVEL = 0.99865

    def __init__(self, size: str, seed: int, workdir: Path, reference: dict):
        self.replications = self.SIZES[size]["replications"]
        self.variants = run_variants(seed)
        self.reference = reference
        self.out = workdir / "bias.csv"
        self.fss = None
        self.control_limit = float(stdtrit(self.replications - 1,
                                           self.CONTROL_LEVEL))

    def setup(self) -> None:
        self.fss = build_study_fss()
        warm = ScanSpec(window_depths_ev=(self.DEPTHS_EV[0],), replications=1,
                        base_seed=self.variants[0])
        bias_scan(warm, fss=self.fss, jobs=1)

    def run_pass(self, index: int):
        spec = ScanSpec(window_depths_ev=self.DEPTHS_EV,
                        replications=self.replications,
                        base_seed=self.variants[index % len(self.variants)])
        result = bias_scan(spec, fss=self.fss, jobs=1)
        save_bias_csv(result, str(self.out))
        return result

    @staticmethod
    def reference_entry(result) -> list:
        return [{"depth_ev": w.depth_ev, "mean_m2nu": w.mean_m2nu,
                 "se_m2nu": w.se_m2nu, "control_mean_m2nu": w.control_mean_m2nu,
                 "control_se_m2nu": w.control_se_m2nu}
                for w in result.windows]

    def check(self, result) -> Check:
        out = Check()
        for w in result.windows:
            out.fits += 2 * self.replications
            for rep in range(self.replications):
                out.op(rep >= w.n_excluded,
                       f"{w.depth_ev:g} eV: replication excluded")
        problems = []
        ref = self.reference[str(result.spec.base_seed)]
        got = self.reference_entry(result)
        for r, g in zip(ref, got):
            for mean, se in (("mean_m2nu", "se_m2nu"),
                             ("control_mean_m2nu", "control_se_m2nu")):
                out.ref_dev = max(out.ref_dev,
                                  abs(g[mean] - r[mean]) / r[se],
                                  abs(g[se] - r[se]) / r[se])
            if abs(g["control_mean_m2nu"]) > \
                    self.control_limit * g["control_se_m2nu"]:
                problems.append(
                    f"{g['depth_ev']:g} eV control {g['control_mean_m2nu']:+.4f}"
                    f" beyond {self.control_limit:.2f} SE")
        if len(got) != len(ref) or out.ref_dev > REF_SIGMA_TOL:
            problems.append(
                f"window means off the reference by {out.ref_dev:.3e} SE")
        if not got[-1]["mean_m2nu"] < 0.0:
            problems.append(f"mismatch m2nu at {got[-1]['depth_ev']:g} eV "
                            "is not negative")
        if len(_rows(self.out)) != len(self.DEPTHS_EV):
            problems.append("bias CSV row count")
        out.op(not problems, "; ".join(problems))
        return out


class RecoilFit:
    """`fss moments`, `spectrum` and `fit` through the CLI on the recoil FSS."""

    name = "recoil-fit"
    SIZES = {"full": {"j_max": 60, "v_max": 80},
             "smoke": {"j_max": 6, "v_max": 10}}
    SIGMA_EV = 2.5
    #: fit window: W0 - 40 eV .. W0 + 8 eV in 4 eV bins (13 bins, 1573
    #: energies per model call)
    DEPTH_EV, TOP_EV, BIN_EV = 40.0, 8.0, 4.0
    SIGNAL_COUNTS = 1e9           # expected counts in the deepest bin
    TRUTH = {"amplitude": 1.0, "endpoint": ENDPOINT_EV, "m2nu": 0.0,
             "background": 1e6}
    #: the fit recovers the truth within this many stated errors
    PULL_MAX = 4.0
    FREE = ("amplitude", "endpoint", "m2nu", "background")

    def __init__(self, size: str, seed: int, workdir: Path, reference: dict):
        self.size = self.SIZES[size]
        self.variants = run_variants(seed)
        self.reference = reference
        self.workdir = workdir
        self.fss_path = workdir / "recoil.fss"
        self.config_path = workdir / "fit.json"
        self.params_path = workdir / "params.json"
        self.moments_out = workdir / "moments.csv"
        self.spectrum_out = workdir / "spectrum.csv"
        self.fit_out = workdir / "fit-out.json"
        self.truth = SpectrumParams(
            amplitude=self.TRUTH["amplitude"], endpoint_ev=self.TRUTH["endpoint"],
            m2nu_ev2=self.TRUTH["m2nu"], background=self.TRUTH["background"])
        self.eps = ["5", "10", "20", "40", "80"]
        self.points = 1101

    def setup(self) -> None:
        engine = RecoilEngine(default_model(), j_max=self.size["j_max"],
                              v_max=self.size["v_max"])
        fss = engine.overlaps(Q_AU)
        save_fss(fss, str(self.fss_path))
        response = ResponseModel(sigma_ev=self.SIGMA_EV)
        centers = ENDPOINT_EV + np.arange(-self.DEPTH_EV, self.TOP_EV + 1e-9,
                                          self.BIN_EV)
        signal = self.truth.with_values(background=0.0)
        exposure = self.SIGNAL_COUNTS / float(
            integral_spectrum(centers[0], signal, fss))
        for variant in self.variants:
            dataset = generate_pseudodata(self.truth, fss, response, centers,
                                          exposure, variant)
            save_dataset(dataset, str(self._data_path(variant)))
        guess = {"amplitude": 1.01, "endpoint_ev": ENDPOINT_EV - 0.05,
                 "m2nu_ev2": 0.3, "background": 1.05 * self.TRUTH["background"]}
        self.config_path.write_text(json.dumps({
            "window_ev": [centers[0] - 1e-6, centers[-1] + 1e-6],
            "initial": guess, "response": {"sigma_ev": self.SIGMA_EV},
            "free": list(self.FREE)}))
        self.params_path.write_text(json.dumps(
            {"amplitude": 1.0, "endpoint_ev": ENDPOINT_EV}))
        if self._moments() != 0:
            raise RuntimeError("warm-up fss moments failed")

    def _data_path(self, variant: int) -> Path:
        return self.workdir / f"data-{variant}.csv"

    def _moments(self) -> int:
        return cli.main(["fss", "moments", "--fss", str(self.fss_path),
                         "--eps", *self.eps, "--out", str(self.moments_out)])

    def run_pass(self, index: int):
        variant = self.variants[index % len(self.variants)]
        moments = self._moments()
        spectrum = cli.main([
            "spectrum", "--params", str(self.params_path),
            "--fss", str(self.fss_path), "--emin", repr(ENDPOINT_EV - 100.0),
            "--emax", repr(ENDPOINT_EV + 10.0), "--points", str(self.points),
            "--form", "integral", "--out", str(self.spectrum_out)])
        fit = cli.main(["fit", "--dataset", str(self._data_path(variant)),
                        "--config", str(self.config_path),
                        "--fss", str(self.fss_path), "--out", str(self.fit_out)])
        return variant, (moments, spectrum, fit)

    def _fit_values(self) -> dict:
        doc = json.loads(self.fit_out.read_text())
        names = {"amplitude": "amplitude", "endpoint": "endpoint_ev",
                 "m2nu": "m2nu_ev2", "background": "background"}
        return {"converged": doc["converged"],
                "values": {k: doc["values"][names[k]] for k in self.FREE},
                "errors": doc["errors"]}

    def reference_entry(self, value) -> dict:
        return self._fit_values()

    def check(self, value) -> Check:
        out = Check()
        variant, (moments_code, spectrum_code, fit_code) = value

        ok = moments_code == 0
        if ok:
            p_open = [float(r[1]) for r in _rows(self.moments_out)]
            ok = len(p_open) == len(self.eps) and all(
                0.0 <= a <= b <= 1.000001 for a, b in zip(p_open, p_open[1:]))
        out.op(ok, f"fss moments (exit {moments_code})")

        ok = spectrum_code == 0
        if ok:
            rates = np.array([float(r[1]) for r in _rows(self.spectrum_out)])
            ok = rates.size == self.points and bool(
                np.all(np.isfinite(rates)) and np.all(rates >= 0.0))
        out.op(ok, f"spectrum (exit {spectrum_code})")

        out.fits += 1
        problems = [] if fit_code == 0 else [f"fit exit {fit_code}"]
        if not problems:
            fit = self._fit_values()
            ref = self.reference[str(variant)]
            if not fit["converged"]:
                problems.append("fit did not converge")
            for name in self.FREE:
                value = fit["values"][name]
                pull = abs(value - self.TRUTH[name]) / fit["errors"][name]
                if not pull <= self.PULL_MAX:
                    problems.append(f"{name} {pull:.2f} sigma from truth")
                out.ref_dev = max(out.ref_dev, abs(value - ref["values"][name])
                                  / ref["errors"][name])
            if out.ref_dev > REF_SIGMA_TOL:
                problems.append(f"fit off the reference by {out.ref_dev:.3e} sigma")
        out.op(not problems, "; ".join(problems))
        return out


WORKLOADS = {w.name: w for w in (FssGen, BiasScanWorkload, RecoilFit)}
