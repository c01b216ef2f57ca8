"""End-to-end CLI contracts: subcommands, exit codes, idempotence."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tribeta.cli
import tribeta.response as resp
from tribeta.cli import main
from tribeta.errors import ModelError
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
        model_path.write_text(default_model(grid=GridSpec(points=512)).to_json())
        out = tmp_path / "fss.dat"
        assert run_cli(["fss", "gen", "--model", str(model_path), "--q", "2.0",
                        "--j-max", "3", "--v-max", "5", "--no-grid-check",
                        "--out", str(out)]) == 0
        assert out.exists()

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
        def failing_minimize(dataset, config):
            raise ModelError("fit left the sane parameter region: test")

        monkeypatch.setattr(tribeta.cli, "minimize", failing_minimize)
        argv, _ = fit_inputs
        assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: fit left the sane parameter region: test\n"


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


    def test_bias_scan_jobs_flag(self):
        parser = tribeta.cli.build_parser()
        args = parser.parse_args(["bias-scan", "--out", "b.csv"])
        assert args.jobs == 1
        args = parser.parse_args(["bias-scan", "--jobs", "2", "--out", "b.csv"])
        assert args.jobs == 2


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
    ])
    def test_convolve_bad_rates(self, tmp_path, capsys, content, fragments):
        rates = tmp_path / "rates.csv"
        rates.write_text(content)
        self.assert_input_error(
            ["convolve", "--rates", str(rates), "--sigma", "1.0",
             "--out", str(tmp_path / "out.csv")], capsys, str(rates), *fragments)

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
    ], ids=["step-zero", "step-negative", "step-nan", "points-zero",
            "points-negative", "emin-equals-emax", "emin-above-emax"])
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

    def test_spectrum_unknown_param_key(self, small_fss_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"amplitude": 1.0, "endpoint_ev": W0,
                                      "mass_ev": 0.2}))
        self.assert_input_error(
            ["spectrum", "--params", str(params), "--fss", str(small_fss_file),
             "--emin", str(W0 - 10.0), "--emax", str(W0), "--out",
             str(tmp_path / "s.csv")], capsys, str(params), "'mass_ev'")

    @pytest.mark.parametrize("section,doc,unknown", [
        ("initial", {"amplitude": 1e-12, "endpoint_ev": W0, "m2nu": 0.1},
         "m2nu"),
        ("response", {"sigma": 2.5}, "sigma"),
    ])
    def test_fit_config_unknown_key(self, fit_inputs, tmp_path, capsys,
                                    section, doc, unknown):
        argv, _ = fit_inputs
        argv = list(argv)
        config = json.loads(Path(argv[4]).read_text())
        config[section] = doc
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config))
        argv[4] = str(path)
        self.assert_input_error(argv + ["--out", str(tmp_path / "r.json")],
                                capsys, f"{path} {section}", f"'{unknown}'")

    @pytest.mark.parametrize("config,fragments", [
        ([1], ("expected a JSON object",)),
        ({"window_ev": 5}, ("window_ev", "5")),
        ({"window_ev": [18500]}, ("window_ev", "[18500]")),
        ({"free": 5}, ("free", "5")),
        ({"max_iterations": "x"}, ("max_iterations", "'x'")),
    ], ids=["list", "window-number", "window-one-edge", "free-number",
            "iterations-string"])
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
