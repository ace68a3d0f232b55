"""Benchmark runner for groupbuy.

Usage, from the root of a checkout::

    python3 bench/run.py --workload coalition-fuzz --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-benchmark-json      # regenerate BENCHMARK.json

One process runs one workload as a closed loop: a single caller, no threads,
the next op only after the previous one returns.  ``--trace 0`` makes whole
passes over the workload's input pool, at least MIN_PASSES and until
``--seconds`` have passed, and reports the end-to-end metrics with timings
scaled to a reference host speed (see ``Tally``); ``--trace 1`` makes one pass
untraced, then the same pass traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a header and one line per metric.  The groupbuy package is imported from this
checkout's ``src`` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from bench.tracer import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9173  # kept out of tuning; confirm gain claims on it
RUN_SECONDS = 20
SETUP_REPEATS = 5
MIN_PASSES = 2
# Time the reference kernel takes on the 2-core Xeon host the benchmark was tuned
# on, in its usual state; scaled timings read as if the host ran at that speed.
REFERENCE_S = 1.5e-3

# Bounds: timings get 0.24, because the shared host's speed swings survive
# the scaling by a few percent; set-up keeps the largest bound.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
)

# Per-layer metrics from the traced run: <module>.<function>.calls|self_s from
# the wrapped calls, plus counters read from returned values.
_LAYER_CALLS = (
    "mechanism.compute_bid_trace",
    "utility.value_at",
    "utility.report_new",
    "schedule.shares_for",
    "numeric.parse_number",
)
_LAYER_SELF = (
    "mechanism.compute_bid_trace",
    "mechanism.allocate",
    "mechanism.fixed_price_outcome",
    "auction.run_group_participation",
    "auction.run_second_price",
    "analysis.enumerate_coalition_deviations",
    "analysis.outcome_for_buyer",
    "analysis.concave_report_grid",
    "analysis.power_report_grid",
    "utility.value_at",
    "numeric.piecewise_value",
    "utility.report_new",
    "utility.random_concave_utility",
    "utility.sample_report",
    "schedule.brute_force_monotonicity_check",
    "schedule.validate_monotonicity",
    "schedule.shares_for",
    "schedule.share_points",
    "scenario.load_scenario_file",
    "scenario.load_scenario",
    "scenario.trace_to_json",
    "scenario.outcome_to_json",
    "cli.main",
)
_LAYER_COUNTS = (
    "mechanism.trace_steps",
    "analysis.profiles",
    "analysis.truncated_scans",
    "utility.knots_built",
    "schedule.shares_computed",
    "cli.nonzero_exits",
)
PER_LAYER = (
    tuple({"name": f"{n}.calls", "unit": "count", "better": "lower"} for n in _LAYER_CALLS)
    + tuple({"name": f"{n}.self_s", "unit": "s", "better": "lower"} for n in _LAYER_SELF)
    + tuple({"name": n, "unit": "count", "better": "lower"} for n in _LAYER_COUNTS)
    + (
        {"name": "schedule.shares_used_ratio", "unit": "ratio", "better": "higher"},
        {"name": "trace_overhead_ratio", "unit": "ratio", "better": "lower"},
    )
)


def benchmark_spec():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": list(PER_LAYER),
    }


# ---------------------------------------------------------------------------
# set-up


def import_groupbuy():
    """Import groupbuy afresh from this checkout's src directory."""
    for key in [k for k in sys.modules if k == "groupbuy" or k.startswith("groupbuy.")]:
        del sys.modules[key]
    package = importlib.import_module("groupbuy")
    importlib.import_module("groupbuy.cli")
    if Path(package.__file__).resolve().parent != SRC / "groupbuy":
        raise SystemExit(f"error: groupbuy imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload, seed, workdir):
    """Import groupbuy and build the inputs SETUP_REPEATS times.

    Returns the last import and pool, and the median set-up time, scaled like
    op latencies (see Tally).
    """
    times = []
    before = reference_time()
    for _ in range(SETUP_REPEATS):
        if workdir.exists():
            shutil.rmtree(workdir)
        t0 = time.perf_counter()
        gb = import_groupbuy()
        workdir.mkdir(parents=True)
        pool = workload.setup(gb, seed, workdir)
        elapsed = time.perf_counter() - t0
        after = reference_time()
        times.append(scaled(elapsed, before, after))
        before = after
    return gb, pool, statistics.median(times)


# ---------------------------------------------------------------------------
# op loop


def reference_kernel():
    """Fixed stdlib work like groupbuy's: Fraction arithmetic, tuple and dict churn, a sort."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 200):
        f = Fraction(i, i + 7)
        acc += f * f
        table[(i, i % 13)] = (f, acc, str(f))
    sorted(table.items(), key=lambda kv: kv[1][0])
    return acc


def reference_time():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scaled(elapsed, kernel_before, kernel_after):
    """``elapsed`` at the host speed where the reference kernel takes REFERENCE_S."""
    return elapsed * 2 * REFERENCE_S / (kernel_before + kernel_after)


class Tally:
    """Attempts, failures, work units and the host-scaled latency of every op.

    The shared host changes speed by up to 1.7x for stretches of seconds to
    minutes, which no run length averages away.  The reference kernel runs
    between ops; an op's latency is scaled by REFERENCE_S over the mean kernel
    time just before and just after it, which reports the op at the speed
    where the kernel takes REFERENCE_S.  The kernel is fixed stdlib code, so a
    change to groupbuy moves the op and not the scale.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.raw_s = 0.0  # unscaled time in ops
        self.kernel_s = []  # reference kernel times
        self.latencies = []  # scaled latency of each op, seconds
        self.units = 0  # work units of the ops that passed their check
        self.digests = []  # hash of each op's digest, in run order

    def run_pass(self, workload, gb, pool, tracer=None):
        """One op per pool item, in pool order; with a tracer, one span per op."""
        self.passes += 1
        before = reference_time()
        for item in pool:
            start = time.perf_counter()
            elapsed = self._record(workload, gb, item)
            if tracer is not None:
                tracer.span(item["id"], workload.name, start, time.perf_counter())
            after = reference_time()
            self.kernel_s.append(after)
            self.raw_s += elapsed
            self.latencies.append(scaled(elapsed, before, after))
            before = after

    def _record(self, workload, gb, item):
        """Run, time and check one op; returns the elapsed seconds, also when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = workload.run(gb, item)
        except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
            elapsed = time.perf_counter() - t0
            self._fail(workload, item, f"raised {type(exc).__name__}: {exc}")
            self.digests.append(hash(("raised", type(exc).__name__)))
            return elapsed
        elapsed = time.perf_counter() - t0
        self.digests.append(hash(workload.digest(output)))
        units = workload.check(item, output)
        if units is None:
            self._fail(workload, item, "output check failed")
        else:
            self.units += units
        return elapsed

    def _fail(self, workload, item, why):
        self.failed += 1
        if self.failed <= 3:
            print(f"# {workload.name} op {item['id']}: {why}", file=sys.stderr)


def timed_loop(workload, gb, pool, seconds):
    """Whole passes over the pool, at least MIN_PASSES, until ``seconds`` have passed."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.passes < MIN_PASSES or time.perf_counter() < deadline:
        tally.run_pass(workload, gb, pool)
    return tally


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end_metrics(tally, setup_s):
    """Throughput and latency percentiles over the scaled latencies of all ops."""
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (tally.units / sum(tally.latencies), "1/s"),
        "op_p50_ms": (percentile(tally.latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(tally.latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(workload, gb, pool):
    """One untraced pass over the pool, then the same pass traced."""
    plain = Tally()
    plain.run_pass(workload, gb, pool)
    tracer = Tracer(gb)
    traced = Tally()
    with tracer:
        traced.run_pass(workload, gb, pool, tracer)
    mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
    if mismatched:
        print(f"# traced outputs differ from untraced on {mismatched} ops", file=sys.stderr)
    return plain, traced, mismatched, sum(traced.latencies) / sum(plain.latencies), tracer


def per_layer_metrics(tracer, overhead):
    metrics = {}
    for name in _LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in _LAYER_SELF:
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in _LAYER_COUNTS:
        metrics[name] = (tracer.counters[name], "count")
    computed = tracer.counters["schedule.shares_computed"]
    steps = tracer.counters["mechanism.trace_steps"]
    metrics["schedule.shares_used_ratio"] = (steps / computed if computed else 0.0, "ratio")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "groupbuy" / "__init__.py").is_file():
        print(f"error: no groupbuy sources under {SRC}", file=sys.stderr)
        return 2

    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("# " + json.dumps(report["header"]))
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    results = ROOT / "bench" / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(workload, seed, seconds, trace):
    """Set up and run one workload; the report holds header, counts, metrics and trace records."""
    workdir = ROOT / "bench" / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        gb, pool, setup_s = set_up(workload, seed, workdir)
        if trace:
            plain, traced, mismatched, overhead, tracer = traced_pass(workload, gb, pool)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed + mismatched
            tally = plain
            metrics = per_layer_metrics(tracer, overhead)
        else:
            tally = timed_loop(workload, gb, pool, seconds)
            attempted, failed = tally.attempted, tally.failed
            metrics = end_to_end_metrics(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "header": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "commit": git_commit(),
            "workload": workload.name,
            "seed": seed,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "trace": trace,
            "ops": attempted,
            "pool": len(pool),
            "passes": tally.passes,
            "work_unit": workload.unit,
            "unscaled_op_s": tally.raw_s,
            "reference_kernel_ms_median": statistics.median(tally.kernel_s) * 1e3,
            "fail_ratio": failed / attempted,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if trace:
        report["trace"] = tracer.records()
    return report


if __name__ == "__main__":
    sys.exit(main())
