"""Runs one workload's operation list in a fresh process and checks it.

    python3 perfbench/worker.py PLAN.json SECONDS TRACE

``run.py`` writes the plan and starts this process with ``src`` on
``PYTHONPATH`` and no ``MATCHDECOMP_*`` variables.  Each operation is one
``matchdecomp.cli.main(argv)`` call with stdout and stderr captured to
memory; the heap is collected before each call, outside its timing.  Each
timed call is scaled by the mean of the ``calibration.Calibrator``
factors right before and right after it, so times are calibrated
seconds; the detail line also gives each metric's wall-time median as
``wall``.  One untimed pass over the reference market's operations comes
first, then whole passes over the plan while the next one would end
within SECONDS (at least three).  With TRACE 0, a few fresh interpreters
that import the CLI and parse the reference market run after each pass,
one after another, so the ``setup_s`` samples are spread over the run.

With TRACE 1, passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.  The last line printed is
one JSON object holding the run's metrics, each with its sample count and
quartiles.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
from checks import check_outputs
from matchdecomp import cli
from tracing import COUNTERS, SPAN_METRICS, Tracer
from workloads import COMMAND_METRICS, REFERENCE

MIN_PASSES = 3  # untraced passes; a traced run needs two of each kind
MIN_TRACED_PASSES = 2
SETUP_PER_PASS = 3  # fresh interpreters timed after each untraced pass
SETUP_CODE = (
    "from matchdecomp.cli import build_parser\n"
    "from matchdecomp.io import load_market\n"
    "build_parser()\n"
    f"load_market({REFERENCE!r})\n"
)


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports the CLI and parses a market."""
    start = perf_counter()
    # no timeout: waiting with one polls, which rounds the time to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
    return perf_counter() - start


def summary(values, unit, value=None, wall=None) -> dict:
    """A metric with its sample count and quartiles (median unless ``value``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    metric = {
        "value": median if value is None else value,
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
    }
    if wall is not None:
        metric["wall"] = wall
    return metric


class Runner:
    """Runs operations, keeps their timings and flags unexpected results."""

    def __init__(self, ops: list[dict], call):
        self.ops = ops
        self.call = call
        self.calibrator = calibration.Calibrator()
        self.texts: list[str | None] = [None] * len(ops)
        # per operation, per pass, one time per repeat: calibrated and wall seconds
        self.samples: list[list[list[float]]] = [[] for _ in ops]
        self.wall: list[list[list[float]]] = [[] for _ in ops]
        self.runs = [0] * len(ops)
        self.bad = [0] * len(ops)  # runs with a wrong exit code or changed stdout
        self.problems: dict[int, str] = {}

    def run(self, i: int) -> tuple[float, str]:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.call(op["argv"])
            except Exception as exc:  # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        text = out.getvalue()
        if self.texts[i] is None:
            self.texts[i] = text
        self.runs[i] += 1
        if rc != op["rc"]:
            self.bad[i] += 1
            self.problems.setdefault(
                i, f"exit {rc!r}, expected {op['rc']}: {err.getvalue()[:200]}"
            )
        elif text != self.texts[i]:
            self.bad[i] += 1
            self.problems.setdefault(i, "stdout differs between runs")
        return elapsed, text

    def timed_pass(self) -> tuple[float, float]:
        """Calibrated and wall seconds of one pass.

        A pass runs in rounds over the operation list; an operation repeated
        in a pass runs once in each of its first rounds, so its runs see
        different calibration times, and counts with its mean.
        """
        calibrated = [[] for _ in self.ops]
        wall = [[] for _ in self.ops]
        for round_ in range(max(op["repeat"] for op in self.ops)):
            for i, op in enumerate(self.ops):
                if round_ < op["repeat"]:
                    before = self.calibrator()
                    seconds = self.run(i)[0]
                    calibrated[i].append(seconds * (before + self.calibrator()) / 2)
                    wall[i].append(seconds)
        for i in range(len(self.ops)):
            self.samples[i].append(calibrated[i])
            self.wall[i].append(wall[i])
        return self.pass_sum(range(len(self.ops)), -1)

    def pass_sum(self, indices, p: int) -> tuple[float, float]:
        """Calibrated and wall seconds of operations ``indices`` in pass ``p``."""
        return (
            sum(statistics.fmean(self.samples[i][p]) for i in indices),
            sum(statistics.fmean(self.wall[i][p]) for i in indices),
        )

    def median(self, indices, wall=False) -> float:
        """Sum over operations ``indices`` of the median of all their times."""
        times = self.wall if wall else self.samples
        return sum(statistics.median(t for ts in times[i] for t in ts) for i in indices)

    def tally(self, digests: dict) -> tuple[int, int]:
        """(attempted, failed) after checking every operation's output."""
        checked = check_outputs(self.ops, self.texts, digests)
        for i, problem in checked.items():
            self.problems.setdefault(i, problem)
        failed = sum(
            self.runs[i] if i in checked else self.bad[i] for i in range(len(self.ops))
        )
        return sum(self.runs), failed


def traced_pass(runner: Runner, tracer: Tracer) -> tuple[float, dict]:
    """One pass with spans recorded: its seconds, layer self times and counts."""
    tracer.reset()
    tracer.active = True
    stdout_bytes = 0
    for i in range(len(runner.ops)):
        stdout_bytes += len(runner.run(i)[1].encode())
    tracer.active = False
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    self_times = tracer.self_times()
    counts = {name: tracer.counters.get(name, 0) for name in COUNTERS}
    counts["cli.stdout_bytes"] = stdout_bytes
    times = {metric: self_times.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    return total, {"times": times, "counts": counts}


def command_metrics(runner: Runner, passes: list[tuple[float, float]]) -> dict:
    """Per-command seconds: sum over operations of each operation's median.

    An operation's median is over every run of it, repeats included; the
    quartiles are those of the per-pass sums.
    """
    metrics = {}
    for name in COMMAND_METRICS:
        indices = [i for i, op in enumerate(runner.ops) if op["metric"] == name]
        per_pass = [runner.pass_sum(indices, p)[0] for p in range(len(passes))]
        value, wall = runner.median(indices), runner.median(indices, wall=True)
        metrics[name] = summary(per_pass, "s", value, wall)
    wall = statistics.median(w for _, w in passes)
    metrics["total_s"] = summary([c for c, _ in passes], "s", wall=wall)
    return metrics


def layer_metrics(ops, traced: list[dict], traced_totals, untraced_totals) -> dict:
    metrics = {}
    for metric in SPAN_METRICS.values():
        metrics[metric] = summary([p["times"][metric] for p in traced], "s")
    counts = traced[0]["counts"]
    for name in COUNTERS:
        metrics[name] = {"value": counts[name], "unit": "count", "n": len(traced)}
    firm_ops = sum(op["firms"] for op in ops)
    for name, counter in (
        ("choices.pi_calls_per_firm_op", "choices.path_independence_calls"),
        ("decomposition.verify_calls_per_firm_op", "decomposition.verify_calls"),
    ):
        metrics[name] = {"value": counts[counter] / firm_ops, "unit": "ratio", "n": 1}
    # each traced pass against the untraced pass right before it, so that both
    # ran at about the same machine speed
    overhead = statistics.median(t - u for t, u in zip(traced_totals, untraced_totals))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced)}
    return metrics


def main() -> int:
    plan_path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    ops = plan["ops"]
    tracer = Tracer() if trace else None
    runner = Runner(ops, tracer.install() if trace else cli.main)

    for i, op in enumerate(ops):  # warm-up: lazy imports and first-call set-up
        if op["market"] == "ref":
            runner.run(i)
    if not trace:
        setup_time()  # the first interpreter only writes bytecode caches

    untraced, traced, traced_totals, setups = [], [], [], []
    start = perf_counter()
    while True:
        untraced.append(runner.timed_pass())
        for _ in range(0 if trace else SETUP_PER_PASS):
            before = runner.calibrator()
            wall = setup_time()
            setups.append((wall * (before + runner.calibrator()) / 2, wall))
        if trace:
            total, layers = traced_pass(runner, tracer)
            traced_totals.append(total)
            traced.append(layers)
            enough = len(traced) >= MIN_TRACED_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES
        elapsed = perf_counter() - start
        if enough and elapsed * (1 + 1 / len(untraced)) > seconds:
            break  # one more pass would end past the deadline
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = runner.tally(plan["digests"])
    problems = [
        f"{ops[i]['market']} {ops[i]['key']}: {p}" for i, p in runner.problems.items()
    ]
    if trace:
        metrics = layer_metrics(ops, traced, traced_totals, [w for _, w in untraced])
        for name in COUNTERS:
            values = {p["counts"][name] for p in traced}
            if len(values) > 1:
                problems.append(f"counter {name} differs between passes: {values}")
    else:
        wall = statistics.median(w for _, w in setups)
        setup = summary([c for c, _ in setups], "s", wall=wall)
        metrics = {"setup_s": setup, **command_metrics(runner, untraced)}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
