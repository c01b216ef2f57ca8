"""End-to-end CLI contracts: subcommands, exit codes, idempotence."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import tribeta.cli
import tribeta.fit
import tribeta.franck_condon.overlaps
import tribeta.franck_condon.radial
import tribeta.response as resp
from tribeta.cli import main
from tribeta.errors import ModelError, write_document
from tribeta.fss import load_fss
from tribeta.franck_condon import GridSpec, default_model
from tribeta.kernel import SpectrumParams

W0 = 18575.0


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def small_fss_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen") / "fss.dat"
    code = run_cli(["fss", "gen", "--q", "5.0", "--j-max", "8",
                    "--v-max", "10", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_inputs(small_fss_file, tmp_path_factory):
    """Seeded dataset (with sidecar) and fit config for the `fit` command."""
    tmp = tmp_path_factory.mktemp("fit")
    fss = load_fss(str(small_fss_file))
    truth = SpectrumParams(amplitude=1e-12, endpoint_ev=W0, background=30.0)
    response = resp.ResponseModel(sigma_ev=2.5)
    centers = np.arange(W0 - 100.0, W0 + 20.0, 2.0)
    ds = resp.generate_pseudodata(truth, fss, response, centers, 1.0, seed=3)
    data_path = tmp / "data.csv"
    resp.save_dataset(ds, str(data_path))
    config = tmp / "fit.json"
    config.write_text(json.dumps({
        "window_ev": [W0 - 100.0, W0 + 20.0],
        "initial": {"amplitude": 1.1e-12, "endpoint_ev": W0 - 0.2,
                    "m2nu_ev2": 0.1, "background": 33.0},
        "response": {"sigma_ev": 2.5},
    }))
    return ["fit", "--dataset", str(data_path), "--config", str(config),
            "--fss", str(small_fss_file)], len(centers)


class TestConstantsDump:
    def test_stdout(self, capsys):
        assert run_cli(["constants", "dump"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["electron_mass_ev"] == pytest.approx(510998.95)
        assert "version" in doc

    def test_to_file_with_manifest(self, tmp_path):
        out = tmp_path / "constants.json"
        assert run_cli(["constants", "dump", "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "constants.json.manifest.json").read_text())
        assert manifest["command"] == "constants dump"
        assert "constants_version" in manifest

    def test_override_recorded_in_manifest(self, tmp_path):
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"fine_structure": 0.0073}))
        out = tmp_path / "constants.json"
        env = dict(os.environ, TRIBETA_CONSTANTS=str(override))
        subprocess.run([sys.executable, "-m", "tribeta.cli", "constants",
                        "dump", "--out", str(out)], env=env, check=True)
        assert json.loads(out.read_text())["fine_structure"] == 0.0073
        manifest = json.loads((tmp_path / "constants.json.manifest.json").read_text())
        digest = hashlib.sha256(override.read_bytes()).hexdigest()
        assert manifest["inputs"] == {str(override): digest}

    @pytest.mark.parametrize("content", [
        "{bad", None, '{"no_such_field": 1.0}', '{"electron_mass_ev": 3.0}'],
        ids=["malformed", "missing", "unknown-field", "bad-value"])
    def test_bad_override_is_one_error_line(self, tmp_path, content):
        # the file is read at import, before main runs
        override = tmp_path / "override.json"
        if content is not None:
            override.write_text(content)
        env = dict(os.environ, TRIBETA_CONSTANTS=str(override))
        result = subprocess.run(
            [sys.executable, "-m", "tribeta.cli", "constants", "dump"],
            env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: constants file {override}: ")


class TestFssCommands:
    def test_gen_outputs(self, small_fss_file):
        fss = load_fss(str(small_fss_file))
        assert len(fss) > 10
        sidecar = json.loads((small_fss_file.parent / "fss.dat.json").read_text())
        assert sidecar["q_au"] == 5.0
        assert sidecar["line_count"] == len(fss)

    def test_gen_idempotent(self, tmp_path):
        outs = []
        for name in ("a.dat", "b.dat"):
            out = tmp_path / name
            assert run_cli(["fss", "gen", "--q", "3.0", "--j-max", "4",
                            "--v-max", "6", "--no-grid-check",
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gen_with_model_file(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(
            replace(default_model(), grid=GridSpec(points=512)).to_json())
        out = tmp_path / "fss.dat"
        assert run_cli(["fss", "gen", "--model", str(model_path), "--q", "2.0",
                        "--j-max", "3", "--v-max", "5", "--no-grid-check",
                        "--out", str(out)]) == 0
        assert out.exists()

    def test_gen_table_is_the_one_blas_thread_table(self, tmp_path):
        # with the thread variables unset the CLI runs BLAS on one thread;
        # on more threads the dense radial solve rounds differently
        tables = []
        for name, threads in (("unset.dat", None), ("one.dat", "1")):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "tribeta.cli", "fss", "gen",
                            "--q", "18.64", "--j-max", "12", "--v-max", "12",
                            "--out", str(out)], env=env, check=True)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_blas_thread_choice_is_kept(self, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run(
            [sys.executable, "-c", "import os, tribeta.cli; print(os.environ"
             "['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True)
        assert result.stdout.split() == [threads or "1", "1"]

    def test_gen_warns_of_each_truncated_channel(self, tmp_path, capsys):
        out = tmp_path / "fss.dat"
        assert run_cli(["fss", "gen", "--q", "18.64", "--j-max", "12",
                        "--v-max", "5", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "fss.dat.json").read_text())
        assert sidecar["truncation_warning"] is True
        deficit = sidecar["truncation_deficit"]["ionic ground"]
        assert deficit == pytest.approx(0.964, abs=5e-4)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert "channel ionic ground" in lines[0]
        assert f"deficit {deficit:.3g}" in lines[0]

    def test_gen_without_truncation_is_silent(self, tmp_path, capsys):
        out = tmp_path / "fss.dat"
        assert run_cli(["fss", "gen", "--q", "3.0", "--j-max", "8",
                        "--v-max", "12", "--no-grid-check",
                        "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "fss.dat.json").read_text())
        assert sidecar["truncation_warning"] is False
        assert capsys.readouterr().err == ""

    def test_moments_stdout(self, small_fss_file, capsys):
        assert run_cli(["fss", "moments", "--fss", str(small_fss_file),
                        "--eps", "0.1", "30.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "absent" in lines[0] or "P=0" in lines[0]
        assert "<E>=" in lines[1]

    def test_missing_file_exit_1(self, tmp_path):
        assert run_cli(["fss", "moments", "--fss", str(tmp_path / "nope.dat"),
                        "--eps", "1.0"]) == 1


class TestSpectrumCommands:
    def test_spectrum_csv(self, small_fss_file, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0}))
        out = tmp_path / "spec.csv"
        assert run_cli(["spectrum", "--params", str(params),
                        "--fss", str(small_fss_file),
                        "--emin", str(W0 - 300.0), "--emax", str(W0 - 1.0),
                        "--points", "40", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "epsilon_beta_eV,rate"
        rates = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert len(rates) == 40
        assert np.all(np.diff(rates) <= 0.0)  # integral spectrum decreases

    def test_convolve_round_trip(self, tmp_path):
        src = tmp_path / "rates.csv"
        x = np.linspace(0.0, 100.0, 501)
        with open(src, "w") as fh:
            fh.write("epsilon_beta_eV,rate\n")
            for xi in x:
                fh.write(f"{xi},{2.0 + 0.01 * xi}\n")
        out = tmp_path / "smeared.csv"
        assert run_cli(["convolve", "--rates", str(src), "--sigma", "1.5",
                        "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        mid = float(rows[250].split(",")[1])
        assert mid == pytest.approx(2.0 + 0.01 * 50.0, rel=1e-3)

    def test_convolve_warns_of_rows_near_the_table_ends(self, tmp_path,
                                                        capsys):
        # 0.2 eV rows over [0, 100]; 6 sigma = 8.7 eV, so the rows at
        # 0 .. 8.6 eV and 91.4 .. 100 eV (44 at each end) reach beyond the
        # table, where it is held constant
        src = tmp_path / "rates.csv"
        src.write_text("epsilon_beta_eV,rate\n" + "".join(
            f"{x},{2.0 + 0.01 * x}\n" for x in np.linspace(0.0, 100.0, 501)))
        out = tmp_path / "smeared.csv"
        assert run_cli(["convolve", "--rates", str(src), "--sigma", "1.45",
                        "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == (f"warning: 88 of 501 output rows lie within the response "
                       f"half-width (8.7 eV) of an end of {src}, where the "
                       "rates are held constant\n")
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 501
        # the smear of a linear table is exact away from the ends, and
        # pulled towards the flat extension at them
        assert float(rows[250].split(",")[1]) == pytest.approx(2.5, rel=1e-12)
        assert float(rows[0].split(",")[1]) > 2.0

    def test_fit_command(self, fit_inputs, tmp_path):
        argv, n_bins = fit_inputs
        out = tmp_path / "result.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["converged"]
        assert result["dof"] == n_bins - 4
        assert "m2nu_ev2" in result["values"]

    def test_missing_sidecar_warns(self, fit_inputs, tmp_path, capsys):
        argv, _ = fit_inputs
        data = tmp_path / "bare.csv"
        shutil.copyfile(argv[2], data)
        with_sidecar, bare = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["--out", str(with_sidecar)]) == 0
        assert capsys.readouterr().err == ""
        argv = list(argv)
        argv[2] = str(data)
        assert run_cli(argv + ["--out", str(bare)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: ")
        assert f"{data}.json" in err[0]
        # the seeded dataset was made at exposure 1.0, the fallback
        assert bare.read_bytes() == with_sidecar.read_bytes()

    def test_model_error_exit_2(self, fit_inputs, tmp_path, monkeypatch,
                                capsys):
        def failing_minimize(counts, model):
            raise ModelError("fit left the sane parameter region: test")

        monkeypatch.setattr(tribeta.cli, "minimize", failing_minimize)
        argv, _ = fit_inputs
        assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: fit left the sane parameter region: test\n"


    def test_damping_exhausted_fit_writes_its_document(self, fit_inputs,
                                                       tmp_path, monkeypatch):
        # every trial point is insane, so the damping runs out at once
        monkeypatch.setattr(tribeta.fit.FitModel, "residuals",
                            lambda self, counts, vec: (
                                np.full(len(counts), np.inf), None))
        argv, _ = fit_inputs
        out = tmp_path / "result.json"
        code = run_cli(argv + ["--out", str(out)])
        result = json.loads(out.read_text())
        assert result["message"] == "damping exhausted"
        assert code == (0 if result["converged"] else 2)
        assert result["n_iterations"] == 1
        assert Path(f"{out}.manifest.json").exists()


def test_unserializable_document_leaves_no_file(tmp_path):
    existing, new = tmp_path / "existing.json", tmp_path / "new.json"
    existing.write_text('{"kept": true}\n')
    for path in (existing, new):
        with pytest.raises(TypeError):
            write_document(str(path), {"value": object()})
    assert existing.read_text() == '{"kept": true}\n'
    assert not new.exists()


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_non_finite_number_is_not_written(tmp_path, value):
    # NaN and Infinity are not JSON
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_document(str(path), {"value": [1.0, value]})
    assert not path.exists()


class TestStudies:
    def test_fig2_outputs(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["fig2", "--mnu", "1.0", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "fig2.csv.json").read_text())
        assert sidecar["bound_holds"] is True
        header = out.read_text().splitlines()[0]
        assert header.startswith("depth_eV")

    @pytest.mark.slow
    def test_bias_scan_outputs(self, tmp_path):
        out = tmp_path / "bias.csv"
        code = run_cli(["bias-scan", "--depths", "150",
                        "--replications", "2", "--seed", "7",
                        "--jobs", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "bias.csv.json").read_text())
        assert doc["windows"][0]["n_fits"] == 2

    def test_bias_scan_undefined_statistics_are_null(self, tmp_path):
        # one kept fit leaves every standard error undefined
        out = tmp_path / "bias.csv"
        assert run_cli(["bias-scan", "--depths", "100", "--replications",
                        "1", "--out", str(out)]) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        doc = json.loads(Path(f"{out}.json").read_text(),
                         parse_constant=refuse)
        window, = doc["windows"]
        assert window["n_fits"] == 1
        assert [window[key] for key in ("se_m2nu", "se_w0_shift",
                                        "control_se_m2nu")] == [None] * 3
        assert np.isfinite(window["mean_m2nu"])
        # the CSV table keeps its nan cells
        assert out.read_text().splitlines()[1].count(",nan,") == 3

    def test_bias_scan_jobs_flag(self):
        parser = tribeta.cli.build_parser()
        args = parser.parse_args(["bias-scan", "--out", "b.csv"])
        assert args.jobs == 1
        args = parser.parse_args(["bias-scan", "--jobs", "2", "--out", "b.csv"])
        assert args.jobs == 2


class TestManifest:
    """`main` writes `<out>.manifest.json` once, for every run that returns."""

    @staticmethod
    def manifest(out):
        return json.loads(Path(f"{out}.manifest.json").read_text())

    @staticmethod
    def digests(paths):
        return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for p in paths}

    @pytest.mark.parametrize("command", [
        "constants dump", "fss gen", "fss moments", "spectrum", "convolve",
        "fit", "bias-scan", "fig2"])
    def test_inputs_and_seeds(self, small_fss_file, fit_inputs, tmp_path,
                              monkeypatch, command):
        monkeypatch.delenv(tribeta.cli.CONSTANTS_ENV_VAR, raising=False)
        fss = str(small_fss_file)
        model = tmp_path / "model.json"
        model.write_text(
            replace(default_model(), grid=GridSpec(points=512)).to_json())
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0}))
        rates = tmp_path / "rates.csv"
        rates.write_text("epsilon_beta_eV,rate\n1.0,2.0\n2.0,3.0\n")
        fit_argv = fit_inputs[0]
        argv, given = {
            "constants dump": (["constants", "dump"], []),
            "fss gen": (["fss", "gen", "--model", str(model), "--q", "2.0",
                         "--j-max", "2", "--v-max", "3", "--no-grid-check"],
                        [model]),
            "fss moments": (["fss", "moments", "--fss", fss, "--eps", "5"],
                            [fss]),
            "spectrum": (["spectrum", "--params", str(params), "--fss", fss,
                          "--emin", str(W0 - 10.0), "--emax", str(W0),
                          "--points", "5"], [params, fss]),
            "convolve": (["convolve", "--rates", str(rates), "--sigma", "0.5"],
                         [rates]),
            "fit": (fit_argv, fit_argv[2::2]),
            "bias-scan": (["bias-scan", "--depths", "100", "--replications",
                           "1", "--seed", "11", "--fss", fss], [fss]),
            "fig2": (["fig2", "--fss", fss], [fss]),
        }[command]
        out = tmp_path / "new-dir" / "result"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert out.exists()
        manifest = self.manifest(out)
        assert manifest["command"] == command
        assert manifest["inputs"] == self.digests(given)
        assert manifest["seeds"] == (
            {"base_seed": 11} if command == "bias-scan" else None)
        assert manifest["jobs"] == (1 if command == "bias-scan" else None)
        assert manifest["libraries"] == {"numpy": np.__version__,
                                         "scipy": scipy.__version__}
        assert manifest["blas_threads"] == {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}

    def test_records_jobs_and_blas_threads_in_effect(self, tmp_path):
        # a fresh process, so that the CLI's one-thread default applies
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["OMP_NUM_THREADS"] = "2"
        out = tmp_path / "bias.csv"
        subprocess.run([sys.executable, "-m", "tribeta.cli", "bias-scan",
                        "--depths", "50", "--replications", "1", "--jobs",
                        "2", "--out", str(out)], env=env, check=True)
        manifest = self.manifest(out)
        assert manifest["jobs"] == 2
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": "2"}

    @pytest.mark.parametrize("command", ["fit", "convolve"])
    def test_exit_1_writes_nothing(self, fit_inputs, tmp_path, command):
        argv = list(fit_inputs[0])
        if command == "fit":
            config = json.loads(Path(argv[4]).read_text())
            del config["initial"]
            argv[4] = str(tmp_path / "fit.json")
            Path(argv[4]).write_text(json.dumps(config))
        else:
            rates = tmp_path / "rates.csv"
            rates.write_text("epsilon_beta_eV,rate\n2.0,2.0\n1.0,3.0\n")
            argv = ["convolve", "--rates", str(rates), "--sigma", "0.5"]
        out = tmp_path / "result"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert list(tmp_path.glob("result*")) == []

    def test_unconverged_fit_writes_result_and_manifest(self, fit_inputs,
                                                        tmp_path, capsys):
        argv = list(fit_inputs[0])
        config = json.loads(Path(argv[4]).read_text())
        argv[4] = str(tmp_path / "fit.json")
        Path(argv[4]).write_text(json.dumps({**config, "max_iterations": 1}))
        out = tmp_path / "result.json"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "fit did not converge\n"
        assert json.loads(out.read_text())["converged"] is False
        assert self.manifest(out)["inputs"] == self.digests(argv[2::2])

    def test_unconverged_grid_check_exit_2(self, tmp_path, monkeypatch,
                                           capsys):
        # the gate's Lanczos bound never reaches 0, so it hits its step cap
        monkeypatch.setattr(tribeta.franck_condon.radial, "LANCZOS_STOP_EV",
                            0.0)
        out = tmp_path / "fss.dat"
        assert run_cli(["fss", "gen", "--q", "1.0", "--j-max", "0",
                        "--v-max", "2", "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_empty_argv(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self):
        result = subprocess.run(
            [sys.executable, "-m", "tribeta.cli", "--definitely-not-a-flag"],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "usage" in result.stderr

    @staticmethod
    def assert_input_error(argv, capsys, *fragments):
        """Exit 1 with one `error:` line that names the bad input."""
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for fragment in fragments:
            assert fragment in lines[0]

    @pytest.mark.parametrize("content,fragments", [
        ("", ("no data rows",)),
        ("epsilon_beta_eV,rate\n", ("no data rows",)),
        ("epsilon_beta_eV,rate\n1.0,2.0\n2.0,3.0,4.0\n", ("row 3", "'4.0'")),
        ("epsilon_beta_eV,rate\n1.0,abc\n", ("row 2", "'abc'")),
        # finite values, energies strictly increasing
        ("epsilon_beta_eV,rate\n1.0,nan\n2.0,3.0\n", ("row 2", "'nan'")),
        ("epsilon_beta_eV,rate\n1.0,2.0\n2.0,-inf\n", ("row 3", "'-inf'")),
        ("epsilon_beta_eV,rate\nnan,2.0\n2.0,3.0\n", ("row 2", "'nan'")),
        ("epsilon_beta_eV,rate\n1.0,2.0\ninf,3.0\n", ("row 3", "'inf'")),
        ("epsilon_beta_eV,rate\n18520,1.0\n18500,1.0\n18510,1.0\n",
         ("row 3", "'18500'")),
        ("epsilon_beta_eV,rate\n1.0,2.0\n1.0,3.0\n", ("row 3", "increasing")),
        # no header: the first data row would be lost
        ("1.0,2.0\n2.0,3.0\n", ("row 1", "expected a header row", "'1.0'")),
        ("1.0,2.0\n", ("row 1", "expected a header row", "'2.0'")),
        (" 1e3 , nan\n2.0,3.0\n", ("row 1", "expected a header row")),
    ])
    def test_convolve_bad_rates(self, tmp_path, capsys, content, fragments):
        rates = tmp_path / "rates.csv"
        rates.write_text(content)
        out = tmp_path / "out.csv"
        self.assert_input_error(
            ["convolve", "--rates", str(rates), "--sigma", "1.0",
             "--out", str(out)], capsys, str(rates), *fragments)
        assert not out.exists()

    def test_fit_non_integer_count(self, fit_inputs, tmp_path, capsys):
        argv, _ = fit_inputs
        rows = Path(argv[2]).read_text().splitlines()
        rows[5] = rows[5].split(",")[0] + ",12.5"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        shutil.copyfile(argv[2] + ".json", str(data) + ".json")
        argv = list(argv)
        argv[2] = str(data)
        self.assert_input_error(argv + ["--out", str(tmp_path / "r.json")],
                                capsys, str(data), "row 6", "'12.5'")

    @pytest.mark.parametrize("flags,fragment", [
        (["--step", "0"], "--step"),
        (["--step", "-1"], "--step"),
        (["--step", "nan"], "--step"),
        (["--points", "0"], "--points"),
        (["--points", "-3"], "--points"),
        (["--emax", str(W0 - 10.0)], "--emin"),
        (["--emax", str(W0 - 20.0)], "--emin"),
        (["--emax", "inf", "--points", "3"], "--emax must be finite"),
        (["--emin=-inf"], "--emin must be finite"),
        (["--emax", "nan"], "--emax must be finite"),
        (["--step", "1e-300"], "--step 1e-300 gives too many energies"),
        (["--points", str(10**19)], "--points 10000000000000000000 gives"),
    ], ids=["step-zero", "step-negative", "step-nan", "points-zero",
            "points-negative", "emin-equals-emax", "emin-above-emax",
            "emax-inf", "emin-minus-inf", "emax-nan", "step-too-fine",
            "points-too-many"])
    def test_spectrum_bad_grid(self, small_fss_file, tmp_path, capsys, flags,
                               fragment):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0}))
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--params", str(params), "--fss", str(small_fss_file),
                "--emin", str(W0 - 10.0), "--emax", str(W0), "--out", str(out)]
        self.assert_input_error(argv + flags, capsys, fragment)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bias_scan_bad_jobs(self, tmp_path, capsys, jobs):
        out = tmp_path / "bias.csv"
        self.assert_input_error(["bias-scan", "--jobs", jobs, "--out", str(out)],
                                capsys, "--jobs", jobs)
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["0", "-10", "nan", "inf"])
    def test_bias_scan_bad_depths(self, tmp_path, capsys, depth):
        out = tmp_path / "bias.csv"
        self.assert_input_error(
            ["bias-scan", "--depths", "100", depth, "--out", str(out)], capsys,
            "window depths must be finite and > 0")
        assert not out.exists()

    def test_bias_scan_depth_beyond_the_generator(self, tmp_path, capsys):
        out = tmp_path / "bias.csv"
        self.assert_input_error(
            ["bias-scan", "--depths", "100", "1500", "--out", str(out)],
            capsys, "window depths must be at most 1000 eV", "got 1500")
        assert not out.exists()

    @pytest.mark.parametrize("mnu", ["nan", "inf", "-1"])
    def test_fig2_bad_mass(self, tmp_path, capsys, mnu):
        out = tmp_path / "fig2.csv"
        self.assert_input_error(["fig2", "--mnu", mnu, "--out", str(out)],
                                capsys, "m_nu must be finite and >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("q", ["nan", "inf", "-1"])
    def test_fss_gen_bad_q(self, tmp_path, capsys, monkeypatch, q):
        # the check comes before the engine set-up and its radial solves
        def unreachable(*args, **kwargs):
            raise AssertionError("radial solve before the --q check")

        for solver in ("solve_initial", "rotational_bases"):
            monkeypatch.setattr(tribeta.franck_condon.overlaps, solver,
                                unreachable)
        out = tmp_path / "fss.dat"
        self.assert_input_error(
            ["fss", "gen", "--q", q, "--j-max", "2", "--v-max", "3",
             "--no-grid-check", "--out", str(out)], capsys,
            "recoil momentum must be finite and >= 0")
        assert not out.exists()

    def test_fss_gen_zero_weight_ground_channel(self, tmp_path, capsys,
                                                monkeypatch):
        # channel 0's (v = 0, J = 0) level is the energy reference
        def unreachable(*args, **kwargs):
            raise AssertionError("radial solve for an invalid model")

        for solver in ("solve_initial", "rotational_bases"):
            monkeypatch.setattr(tribeta.franck_condon.overlaps, solver,
                                unreachable)
        doc = default_model().to_dict()
        doc["channels"][0]["weight"] = 0.0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "fss.dat"
        self.assert_input_error(
            ["fss", "gen", "--q", "5", "--model", str(model), "--out",
             str(out)], capsys, "channel 0", "weight > 0")
        assert not out.exists()

    @pytest.mark.parametrize("sidecar,fragment", [
        ('{"exposure": "abc"}', "exposure: expected a finite number"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_fit_bad_sidecar(self, fit_inputs, tmp_path, capsys, sidecar,
                             fragment):
        argv = list(fit_inputs[0])
        data = tmp_path / "data.csv"
        shutil.copyfile(argv[2], data)
        Path(f"{data}.json").write_text(sidecar)
        argv[2] = str(data)
        self.assert_input_error(argv + ["--out", str(tmp_path / "r.json")],
                                capsys, f"{data}.json", fragment)

    @pytest.mark.parametrize("kind", ["fit-config", "dataset-sidecar",
                                      "spectrum-params", "fss-gen-model"])
    def test_malformed_json_names_file(self, fit_inputs, small_fss_file,
                                       tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        argv = list(fit_inputs[0]) + ["--out", str(tmp_path / "r.json")]
        if kind == "fit-config":
            argv[4] = str(bad)
        elif kind == "dataset-sidecar":
            data = tmp_path / "data.csv"
            shutil.copyfile(argv[2], data)
            argv[2] = str(data)
            bad = Path(f"{data}.json")
        elif kind == "spectrum-params":
            argv = ["spectrum", "--params", str(bad), "--fss",
                    str(small_fss_file), "--emin", str(W0 - 10.0), "--emax",
                    str(W0), "--out", str(tmp_path / "s.csv")]
        else:
            argv = ["fss", "gen", "--q", "5.0", "--model", str(bad),
                    "--out", str(tmp_path / "fss.dat")]
        bad.write_text("{bad")
        self.assert_input_error(argv, capsys, str(bad),
                                "Expecting property name")

    def test_fit_sidecar_without_exposure_warns(self, fit_inputs, tmp_path,
                                                capsys):
        argv = list(fit_inputs[0])
        data = tmp_path / "data.csv"
        shutil.copyfile(argv[2], data)
        Path(f"{data}.json").write_text('{"seed": 3}')
        argv[2] = str(data)
        assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == (f"warning: dataset sidecar {data}.json has no "
                          "exposure; using exposure = 1.0")

    @pytest.mark.parametrize("row", ["nan 0.3 0 - -", "inf 0.5 0 - -",
                                     "1.0 nan 0 - -"])
    def test_spectrum_non_finite_fss(self, tmp_path, capsys, row):
        self.assert_bad_fss_row(tmp_path, capsys, row, "must be finite")

    @pytest.mark.parametrize("row,fragment", [
        ("1.0 0.5 0 -3 2", "J must be >= 0"),
        ("2.0 0.2 0 1 2 junk", "got 6"),
    ])
    def test_spectrum_bad_fss_columns(self, tmp_path, capsys, row, fragment):
        self.assert_bad_fss_row(tmp_path, capsys, row, fragment)

    def assert_bad_fss_row(self, tmp_path, capsys, row, fragment):
        """`spectrum` on an FSS file whose second row is `row`."""
        fss = tmp_path / "fss.dat"
        fss.write_text(f"0.0 0.5 0 0 0\n{row}\n")
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0}))
        out = tmp_path / "s.csv"
        self.assert_input_error(
            ["spectrum", "--params", str(params), "--fss", str(fss),
             "--emin", str(W0 - 10.0), "--emax", str(W0), "--out", str(out)],
            capsys, "line 2", fragment)
        assert not out.exists()

    def test_spectrum_fss_is_directory(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0}))
        self.assert_input_error(
            ["spectrum", "--params", str(params), "--fss", str(tmp_path),
             "--emin", str(W0 - 10.0), "--emax", str(W0), "--out",
             str(tmp_path / "s.csv")], capsys, "Is a directory", str(tmp_path))

    def test_fss_gen_out_is_directory(self, tmp_path, capsys):
        self.assert_input_error(
            ["fss", "gen", "--q", "5.0", "--j-max", "2", "--v-max", "3",
             "--out", str(tmp_path)], capsys, "Is a directory", str(tmp_path))

    def test_spectrum_unknown_param_key(self, small_fss_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0,
                                      "mass_ev": 0.2}))
        self.assert_input_error(
            ["spectrum", "--params", str(params), "--fss", str(small_fss_file),
             "--emin", str(W0 - 10.0), "--emax", str(W0), "--out",
             str(tmp_path / "s.csv")], capsys, str(params), "'mass_ev'")

    @pytest.mark.parametrize("key,value,fragment", [
        ("amplitude", float("nan"), "amplitude"),
        ("m2nu_ev2", float("nan"), "m2nu"),
        ("background", float("inf"), "background"),
        ("endpoint_ev", 17000.0, "endpoint 17000.0 eV outside"),
    ], ids=["amplitude-nan", "m2nu-nan", "background-inf", "endpoint-17000"])
    def test_spectrum_non_finite_params(self, small_fss_file, tmp_path,
                                        capsys, key, value, fragment):
        params = tmp_path / "params.json"
        # json.dumps writes NaN and Infinity, which json.load reads back
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0,
                                      key: value}))
        out = tmp_path / "s.csv"
        self.assert_input_error(
            ["spectrum", "--params", str(params), "--fss", str(small_fss_file),
             "--emin", str(W0 - 10.0), "--emax", str(W0), "--out", str(out)],
            capsys, f"error: {params}: ", fragment)
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_convolve_non_finite_sigma(self, tmp_path, capsys, sigma):
        rates = tmp_path / "rates.csv"
        rates.write_text("epsilon_beta_eV,rate\n1.0,2.0\n2.0,3.0\n")
        out = tmp_path / "out.csv"
        self.assert_input_error(
            ["convolve", "--rates", str(rates), "--sigma", sigma,
             "--out", str(out)], capsys, "sigma must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value,fragment", [
        ("response", "half_width_sigmas", float("inf"), "6 sigma"),
        ("response", "sigma_ev", float("nan"), "sigma must be finite"),
        ("initial", "m2nu_ev2", float("nan"), "m2nu"),
        ("initial", None, None, "missing"),
    ], ids=["half-width-inf", "sigma-nan", "m2nu-nan", "initial-missing"])
    def test_fit_config_non_finite(self, fit_inputs, tmp_path, capsys,
                                   section, key, value, fragment):
        argv = list(fit_inputs[0])
        config = json.loads(Path(argv[4]).read_text())
        if key is None:
            del config[section]
        else:
            config[section][key] = value
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config))
        argv[4] = str(path)
        out = tmp_path / "r.json"
        self.assert_input_error(argv + ["--out", str(out)], capsys,
                                f"error: {path} {section}: ", fragment)
        assert not out.exists()

    @pytest.mark.parametrize("path,value,section,fragment", [
        (("initial", "depth_ev"), float("nan"), " initial", "Morse parameters"),
        (("channels", 0, "morse", "steepness_inv_bohr"), float("inf"),
         " channels[0] morse", "Morse parameters"),
        (("final_mass_au",), float("nan"), "", "reduced masses"),
        (("initial_mass_au",), float("inf"), "", "reduced masses"),
        (("channels", 1, "offset_ev"), float("nan"), " channels[1]",
         "offset_ev"),
        (("channels", 2, "z_eff"), float("inf"), " channels[2]", "z_eff"),
        (("grid", "r_max_bohr"), float("nan"), " grid", "grid radii"),
        (("grid", "r_min_bohr"), float("-inf"), " grid", "grid radii"),
        # 1/(2 M R^2) is infinite at R = 0
        (("grid", "r_min_bohr"), 0.0, " grid", "grid radii"),
        # exp(-a (R - R_e)) overflows at r_min
        (("initial", "steepness_inv_bohr"), 1000.0, "",
         "initial potential is not finite on the grid"),
        (("channels", 0, "morse", "steepness_inv_bohr"), 1000.0, "",
         "channel 0 (ionic ground) potential is not finite on the grid"),
        (("final_mass_au",), "x", "", "'<' not supported"),
        (("gird",), {"points": 512}, "", "'gird'"),
        (("initial",), None, " initial", "missing"),
    ], ids=["depth-nan", "steepness-inf", "final-mass-nan",
            "initial-mass-inf", "offset-nan", "z-eff-inf", "r-max-nan",
            "r-min-inf", "r-min-zero", "initial-steep", "channel-steep",
            "final-mass-string", "unknown-key", "initial-missing"])
    def test_fss_gen_non_finite_model(self, tmp_path, capsys, monkeypatch,
                                      path, value, section, fragment):
        def unreachable(*args, **kwargs):
            raise AssertionError("radial solve for an invalid model")

        for solver in ("solve_initial", "rotational_bases"):
            monkeypatch.setattr(tribeta.franck_condon.overlaps, solver,
                                unreachable)
        doc = default_model().to_dict()
        target = doc
        for step in path[:-1]:
            target = target[step]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "fss.dat"
        self.assert_input_error(
            ["fss", "gen", "--q", "5", "--model", str(model), "--out",
             str(out)], capsys, f"error: {model}{section}: ", fragment)
        assert not out.exists()

    def test_fss_gen_coulomb_channel_infinite_on_the_grid(self, tmp_path,
                                                          capsys):
        # z_eff / R overflows at a subnormal r_min
        doc = default_model().to_dict()
        doc["grid"]["r_min_bohr"] = 1e-310
        doc["channels"][2].update(kind="coulomb", label="")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "fss.dat"
        self.assert_input_error(
            ["fss", "gen", "--q", "5", "--model", str(model), "--out",
             str(out)], capsys, f"error: {model}: ",
            "channel 2 (coulomb) potential is not finite on the grid")
        assert not out.exists()

    @pytest.mark.parametrize("section,doc,unknown", [
        ("initial", {"amplitude": 1e-12, "endpoint_ev": W0, "m2nu": 0.1},
         "m2nu"),
        ("response", {"sigma": 2.5}, "sigma"),
        # a top-level misspelling of `free`, which would free all four
        (None, {"fre": ["m2nu"], "max_iterations": 1}, "fre"),
    ])
    def test_fit_config_unknown_key(self, fit_inputs, tmp_path, capsys,
                                    section, doc, unknown):
        argv, _ = fit_inputs
        argv = list(argv)
        config = json.loads(Path(argv[4]).read_text())
        if section:
            config[section] = doc
        else:
            config.update(doc)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config))
        argv[4] = str(path)
        out = tmp_path / "r.json"
        where = f"{path} {section}" if section else f"{path}"
        self.assert_input_error(argv + ["--out", str(out)], capsys,
                                f"error: {where}: ", f"'{unknown}'")
        assert not out.exists()

    @pytest.mark.parametrize("config,fragments", [
        ([1], ("expected a JSON object",)),
        ({"window_ev": 5}, ("window_ev", "5")),
        ({"window_ev": [18500]}, ("window_ev", "[18500]")),
        ({"free": 5}, ("free", "5")),
        ({"max_iterations": "x"}, ("max_iterations", "'x'")),
        ({"max_iterations": 0}, ("max_iterations", "0")),
        ({"max_iterations": -3}, ("max_iterations", "-3")),
        ({"free": ["m2nu", "m2nu", "endpoint"]}, ("free", "'m2nu'")),
    ], ids=["list", "window-number", "window-one-edge", "free-number",
            "iterations-string", "iterations-zero", "iterations-negative",
            "free-repeated"])
    def test_fit_config_bad_shape(self, fit_inputs, tmp_path, capsys, config,
                                  fragments):
        argv, _ = fit_inputs
        argv = list(argv)
        doc = json.loads(Path(argv[4]).read_text())
        if isinstance(config, dict):
            doc.update(config)
        else:
            doc = config
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        argv[4] = str(path)
        self.assert_input_error(argv + ["--out", str(tmp_path / "r.json")],
                                capsys, str(path), *fragments)

    def test_fit_window_of_too_few_bins_names_the_key(self, fit_inputs,
                                                      tmp_path, capsys):
        # the dataset's bins lie 2 eV apart, so this window holds two
        argv, _ = fit_inputs
        argv = list(argv)
        doc = json.loads(Path(argv[4]).read_text())
        doc["window_ev"] = [W0 - 3.0, W0 + 1.0]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        argv[4] = str(path)
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} window_ev: window selects 2 bins; "
            "need at least 5\n")
        assert not out.exists()

    def test_fit_reaching_zero_energy_names_the_dataset(self, small_fss_file,
                                                       tmp_path, capsys):
        # 2 eV is within the 15 eV response half-width of 0 eV
        data = tmp_path / "low.csv"
        resp.save_dataset(resp.PseudoDataset(
            np.arange(2.0, 16.0, 2.0), np.full(7, 100), 1.0, 1,
            {"exposure": 1.0, "seed": 1}), str(data))
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({
            "window_ev": [1.0, 15.0],
            "initial": {"amplitude": 1.0, "endpoint_ev": W0}}))
        out = tmp_path / "r.json"
        assert run_cli(["fit", "--dataset", str(data), "--config", str(config),
                        "--fss", str(small_fss_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: the window's lowest bin centre, 2 eV, lies within "
            "the response half-width (15 eV) of 0 eV; the spectrum needs "
            "eps_beta > 0\n")
        assert not out.exists()


def test_import_leaves_scipy_sparse_unloaded():
    # nothing in tribeta, the N-doubling gate included, needs scipy.sparse;
    # loading it would add about 0.03 s and 3 MB to a command
    result = subprocess.run(
        [sys.executable, "-c", "import sys, tribeta.cli\n"
         "from tribeta.franck_condon import default_model, solve_radial\n"
         "solve_radial(default_model(), n_states=10, convergence_check=True)\n"
         "print(sorted("
         "m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))"],
        capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
