"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py [--workload NAME ...] [--size full|smoke ...]

Run from the root of a source checkout.  Seeded workloads are recorded for
every one of the VARIANTS input variants; each recorded pass is then
checked against its own record, so a variant whose outputs break a physics
check (control off zero, truth not recovered, oracle missed) is reported
instead of silently recorded.  Re-record only when a change is meant to
alter the physics outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run  # fixes the BLAS thread count before numpy loads

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import VARIANTS, WORKLOADS  # noqa: E402

SEEDED = {"bias-scan", "recoil-fit"}


def record(name: str, size: str, workdir: Path) -> tuple[dict, list[str]]:
    cls = WORKLOADS[name]
    entries, problems = {}, []
    for variant in range(VARIANTS if name in SEEDED else 1):
        workload = cls(size, variant, workdir, {})
        workload.setup()
        value = workload.run_pass(0)
        entry = workload.reference_entry(value)
        workload.reference = {str(variant): entry} if name in SEEDED else entry
        check = workload.check(value)
        problems += [f"{name} {size} variant {variant}: {p}"
                     for p in check.problems]
        print(f"{name} {size} variant {variant}: "
              f"{'ok' if not check.problems else check.problems}", flush=True)
        if name not in SEEDED:
            return entry, problems
        entries[str(variant)] = entry
    return entries, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", default=sorted(WORKLOADS))
    p.add_argument("--size", nargs="+", default=["smoke", "full"])
    args = p.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in args.workload:
            for size in args.size:
                entries, found = record(name, size, Path(tmp))
                reference.setdefault(name, {})[size] = entries
                problems += found
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
