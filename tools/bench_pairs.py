"""Paired benchmark runs of two checkouts, recorded in one BENCH_<n>.json file.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_3.json \\
        --workload cli-scale --seeds 11-20,9173
    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_3.json \\
        --workload cli-scale --seeds 1 --trace 1

``--parent`` and ``--change`` are checkouts (git clones) of the two commits.
Each pair runs ``bench/run.py`` once per side, one process at a time, and the
side that runs first alternates from pair to pair.  Every run is appended to
``--out`` (created when missing) with its workload, seed, side, commit, Python
version, CPU count and the runner's final JSON line; ``--trace 1`` runs go
under ``"traced"``.  The ``"summary"`` block is recomputed from all untraced
runs in the file: per workload and end-to-end metric, each side's median and
quartiles, the number of pairs the change won, and two verdicts:

* ``claim_met``: at least ten pairs ran, the change won at least nine tenths
  of them, and its median beats the parent's by more than the parent's
  interquartile range;
* ``within_bound``: the change's median is worse than the parent's by no more
  than the metric's bound, as a share of the parent's median.

Each metric's direction (``better``) and bound come from ``BENCHMARK.json``,
which the tool reads and never writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_CLAIM_PAIRS = 10  # fewer pairs cannot show a gain, however many the change won
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(field, path=BENCHMARK_JSON):
    """End-to-end metric name -> its ``field`` in ``path``."""
    return {m["name"]: m[field] for m in json.loads(Path(path).read_text())["end_to_end"]}


def read_bounds(path=BENCHMARK_JSON):
    """End-to-end metric name -> the share by which it may worsen, from ``path``."""
    return declared("bound", path)


BETTER = declared("better")  # each end-to-end metric of bench/run.py: "lower" or "higher"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_tree(checkout):
    """Git tree id of the checkout's committed src/ directory, or None."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD:src"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout, side, workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    header = json.loads(next(line for line in lines if line.startswith("# "))[2:])
    return {
        "workload": workload, "seed": seed, "side": side, "commit": header["commit"],
        "src_tree": src_tree(checkout), "python": header["python"], "cpus": header["cpus"],
        "result": json.loads(lines[-1]),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, bounds):
    """Per workload and metric: medians, quartiles, change wins over seed-matched pairs,
    and the verdicts ``claim_met`` and ``within_bound`` (``bounds`` as :func:`read_bounds`)."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        sides = {
            side: {r["seed"]: r["result"]["metrics"] for r in runs
                   if r["workload"] == workload and r["side"] == side}
            for side in ("parent", "change")
        }
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if not seeds:
            continue
        rows = {}
        for name, better in BETTER.items():
            parent = [sides["parent"][s][name]["value"] for s in seeds]
            change = [sides["change"][s][name]["value"] for s in seeds]
            wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            gain = pm - cm if better == "lower" else cm - pm  # positive when the change is better
            rows[name] = {
                "better": better, "pairs": len(seeds), "change_wins": wins,
                "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
                "change_median": cm, "change_q1": c1, "change_q3": c3,
                "change_over_parent": cm / pm if pm else None,
                "claim_met": len(seeds) >= MIN_CLAIM_PAIRS and 10 * wins >= 9 * len(seeds)
                and gain > p3 - p1,
                "within_bound": -gain <= bounds[name] * pm,
            }
        failed = {side: sum(r["result"]["failed"] for r in runs
                            if r["workload"] == workload and r["side"] == side)
                  for side in ("parent", "change")}
        summary[workload] = {"seeds": seeds, "failed_ops": failed, "metrics": rows}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 11-20,9173")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": [], "traced": []}
    key = "traced" if args.trace else "runs"
    bounds = read_bounds()
    for j, seed in enumerate(parse_seeds(args.seeds)):
        order = [("parent", args.parent), ("change", args.change)]
        if j % 2:
            order.reverse()
        for side, checkout in order:
            record = run_once(checkout, side, args.workload, seed, args.trace)
            doc[key].append(record)
            print(f"{args.workload} seed {seed} {side}: failed {record['result']['failed']}",
                  file=sys.stderr)
            doc["summary"] = summarize(doc["runs"], bounds)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
