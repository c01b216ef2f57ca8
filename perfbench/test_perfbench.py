"""The benchmark's own tests: smoke runs print every metric, checks bite.

    python3 -m pytest -q perfbench

Each test runs the benchmark's command from the root of the checkout, at
the tiny ``--size smoke``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: every end-to-end figure the report prints, declared or not
REPORTED = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
            "fits_per_s": "1/s", "ops_failed_frac": "ratio", "ref_dev": "ratio"}


def bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300)


def smoke(workload, trace, *extra, seed=3):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke", *extra)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    report = {line.split()[0]: line.split()[-1]
              for line in proc.stdout.splitlines()[:-1] if line.strip()}
    for name, unit in REPORTED.items():
        assert report.get(name) == unit, name
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0


def _perturb(reference, workload):
    ref = copy.deepcopy(reference)
    smoke_ref = ref[workload]["smoke"]
    if workload == "fss-gen":
        smoke_ref["total_probability"] *= 1.0 + 1e-6
    elif workload == "bias-scan":
        for windows in smoke_ref.values():
            windows[1]["mean_m2nu"] += 0.05 * windows[1]["se_m2nu"]
    else:
        for fit in smoke_ref.values():
            fit["values"]["m2nu"] += 0.05 * fit["errors"]["m2nu"]
    return ref


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_run(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(_perturb(reference, workload)))
    proc = smoke(workload, 0, "--reference", str(perturbed))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "off the reference" in proc.stdout or "off by" in proc.stdout


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_lookup_site_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tribeta.bias
        import tribeta.cli
        import tribeta.fit
        from tracing import Tracer
        original = tribeta.fit.minimize
        tracer = Tracer()
        tracer.install()
        try:
            assert tribeta.bias.minimize is tribeta.cli.minimize
            assert tribeta.bias.minimize is not original
            assert tribeta.fit.minimize is tribeta.bias.minimize
        finally:
            tracer.uninstall()
        assert tribeta.bias.minimize is original is tribeta.cli.minimize
    finally:
        del sys.path[:2]


def test_self_time_subtracts_children():
    sys.path.insert(0, str(HERE))
    try:
        from tracing import Span, Tracer
    finally:
        sys.path.remove(str(HERE))
    tracer = Tracer()
    tracer.spans = [Span("a", 0.0, 10.0, None, "p"),
                    Span("b", 1.0, 4.0, 0, "p"),
                    Span("c", 2.0, 3.0, 1, "p"),
                    Span("d", 5.0, 9.0, 0, "p")]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
