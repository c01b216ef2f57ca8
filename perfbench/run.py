"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload fss-gen --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  The run

1. fixes the BLAS thread count before numpy loads, then imports tribeta;
2. sets the workload up several times (inputs and warm-up) and keeps the
   median as set-up time;
3. repeats the timed pass until ``--seconds`` have elapsed, checking the
   outputs of every pass against the recorded reference;
4. prints the run context, every metric with its unit, and last the result
   line ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of one set-up plus one pass, and the tracing overhead.
Spans and per-pass figures go to ``.perfbench/<workload>-<seed>-<trace>.json``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads for the workload process.  One thread makes cpu_s equal
#: the work done and halves the run-to-run spread on a shared 2-core host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SETUPS = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fss-gen", "bias-scan", "recoil-fit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    return p.parse_args(argv)


def _source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _context(root: Path, args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "commit": _commit(root),
            "source_sha256": _source_hash(root / "src" / "tribeta")}


def _timed(fn):
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return value, wall, cpu


#: per-layer metrics: `<span name>.<stat>` summed over the spans of one
#: set-up plus the mean traced pass; the stat's suffix gives the unit
PER_LAYER = (
    "franck_condon.solve_radial.calls", "franck_condon.solve_radial.gated_calls",
    "franck_condon.solve_radial.self_s", "franck_condon.RecoilEngine.init.total_s",
    "franck_condon.solve_initial.calls", "franck_condon.solve_initial.self_s",
    "franck_condon.spherical_jn_table.calls",
    "franck_condon.spherical_jn_table.self_s",
    "franck_condon.RecoilEngine.overlaps.self_s",
    "franck_condon.RecoilEngine.overlaps.lines_out",
    "fss.save_fss.self_s", "fss.save_fss.lines", "fss.save_fss.bytes",
    "fss.from_lines.calls", "fss.from_lines.self_s",
    "fss.load_fss.self_s", "fss.load_fss.lines",
    "fss.cumulative_moments.calls", "fss.cumulative_moments.self_s",
    "kernel.integral_spectrum.calls", "kernel.integral_spectrum.self_s",
    "kernel.integral_spectrum.line_evals",
    "response.generate_pseudodata.calls", "response.generate_pseudodata.self_s",
    "response.expected_counts.self_s",
    "response.poisson_sample.self_s", "response.poisson_sample.bins",
    "fit.minimize.calls", "fit.minimize.self_s", "fit.minimize.iterations",
    "fit.minimize.converged_frac",
    "bias.bias_scan.self_s", "bias.build_study_fss.self_s", "bias.excluded",
    "cli.main.self_s", "trace.overhead_s",
)
UNITS = {"calls": "count", "gated_calls": "count", "lines_out": "count",
         "lines": "count", "line_evals": "count", "bins": "count",
         "iterations": "count", "excluded": "count", "bytes": "B",
         "self_s": "s", "total_s": "s", "overhead_s": "s",
         "converged_frac": "ratio"}


def _layer_metrics(tracer, n_passes: int, overhead_s: float) -> dict:
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        weight = 1.0 if span.run_id == "setup" else 1.0 / n_passes
        stats = {"self_s": own, "total_s": span.end - span.start, **span.counts}
        for key, value in stats.items():
            name = f"{span.name}.{key}"
            totals[name] = totals.get(name, 0.0) + value * weight
    calls = totals.get("fit.minimize.calls", 0.0)
    totals["fit.minimize.converged_frac"] = (
        totals.get("fit.minimize.converged", 0.0) / calls if calls else 0.0)
    totals["bias.excluded"] = totals.get("bias.bias_scan.excluded", 0.0)
    totals["trace.overhead_s"] = overhead_s
    return {name: (totals.get(name, 0.0), UNITS[name.rsplit(".", 1)[1]])
            for name in PER_LAYER}


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tribeta" / "__init__.py").is_file():
        print(f"error: no tribeta package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    t0 = time.perf_counter()
    import tribeta.cli  # imports every module the workloads call
    import_s = time.perf_counter() - t0
    if Path(tribeta.__file__).resolve().parent != (src / "tribeta").resolve():
        print(f"error: imported {tribeta.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload][args.size]
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.size, args.seed, workdir, reference)
        tracer = Tracer()
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            if args.trace:
                tracer.run_id = "setup"
                tracer.install(workloads)
            try:
                _, wall, _ = _timed(workload.setup)
            finally:
                tracer.uninstall()
            setups.append(wall)

        passes, traced, checks = [], [], []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            index = len(passes)
            gc.collect()
            value, wall, cpu = _timed(lambda: workload.run_pass(index))
            passes.append({"wall_s": wall, "cpu_s": cpu})
            if index == 0:
                # later passes only add heap fragmentation, whose amount
                # would depend on how many passes fit in the run
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checks.append(workload.check(value))
            if args.trace:
                gc.collect()
                tracer.run_id = f"pass-{index}"
                tracer.install(workloads)
                try:
                    value, wall, _ = _timed(lambda: workload.run_pass(index))
                finally:
                    tracer.uninstall()
                traced.append(wall)
                checks.append(workload.check(value))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(p["wall_s"] for p in passes)
    cpu = statistics.median(p["cpu_s"] for p in passes)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    fits = checks[0].fits
    summary = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fits_per_s": (fits / wall, "1/s"),
        "ops_failed_frac": (failed / attempted, "ratio"),
        "ref_dev": (max(c.ref_dev for c in checks), "ratio"),
    }
    if args.trace:
        layers = _layer_metrics(tracer, len(traced),
                                statistics.median(traced) - wall)
        reported = layers
    else:
        layers = {}
        reported = {k: summary[k] for k in
                    ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}

    context = _context(root, args)
    report = {"context": context,
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in summary.items()},
              "per_layer": {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()},
              "import_s": import_s, "setups_s": setups, "passes": passes,
              "traced_passes_s": traced,
              "problems": [p for c in checks for p in c.problems],
              "spans": tracer.to_records()}
    (out_dir / f"{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print("context " + json.dumps(context, sort_keys=True))
    print(f"passes {len(passes)} (+{len(traced)} traced), setups {len(setups)}; "
          "one worker, closed loop: no queue, so no wait metric")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    for name, (value, unit) in {**summary, **layers}.items():
        print(f"{name:48s} {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
