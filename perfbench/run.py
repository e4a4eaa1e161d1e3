"""matchdecomp benchmark: CLI latency per command on seeded market families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the workload's
market files from the seed into ``perfbench/_work``, then starts
``worker.py`` in a fresh process that runs the operations, times
``setup_s``, checks the outputs and reports the metrics.  One detail line
(every metric with its sample count and quartiles) is printed, then the
result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Exits non-zero without a result
when the checkout has no matchdecomp sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src" / "matchdecomp"
WORKER_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCES / "cli.py").is_file():
        print(f"no matchdecomp sources under {SOURCES}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in [v for v in os.environ if v.startswith("MATCHDECOMP_")]:
        del os.environ[var]  # so every CLI call runs with the default caps
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        ops, problems = workloads.write_inputs(workload, args.seed, workdir)
        with open(BENCH / "reference_digests.json", encoding="utf-8") as fh:
            digests = json.load(fh)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps({"ops": ops, "digests": digests}))
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH / "worker.py"),
                str(plan_path),
                str(args.seconds),
                str(args.trace),
            ],
            env=env,
            stdout=subprocess.PIPE,
            check=True,
            timeout=WORKER_TIMEOUT_S,
            text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    metrics = report["metrics"]
    problems += report["problems"]
    attempted, failed = report["attempted"], report["failed"]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
