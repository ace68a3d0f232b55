"""Self-test of the benchmark at smoke size.

Run with ``python -m pytest bench/tests`` from the repository root.  Pools are
cut to a few items and set-up runs once, so each workload takes about a
second.
"""

import json
import math
import sys

import pytest

from bench import run, workloads

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch):
    monkeypatch.setattr(workloads, "FUZZ_POOL", 3)
    monkeypatch.setattr(workloads, "ORACLE_POOL", 5)
    monkeypatch.setattr(workloads, "CLI_SLOTS", workloads.CLI_SLOTS[::25])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)


@pytest.fixture(autouse=True)
def keep_groupbuy_modules():
    """The runner re-imports groupbuy; give other tests back the modules they hold."""
    saved = {k: m for k, m in sys.modules.items() if k == "groupbuy" or k.startswith("groupbuy.")}
    yield
    for key in [k for k in sys.modules if k == "groupbuy" or k.startswith("groupbuy.")]:
        del sys.modules[key]
    sys.modules.update(saved)


def _metric_names(kind):
    return {m["name"] for m in run.benchmark_spec()[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_emitted(name, trace):
    report = run.measure(workloads.WORKLOADS[name], seed=1, seconds=0, trace=trace)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    expected = _metric_names("per_layer" if trace else "end_to_end")
    assert set(report["metrics"]) == expected
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(report["metrics"][m]["value"] > 0 for m in expected)


def test_wrong_fuzz_expectation_is_counted(monkeypatch):
    right = workloads.expected_fuzz_scan

    def off_by_one(sizes, budget):
        profiles, truncated = right(sizes, budget)
        return profiles + 1, truncated

    monkeypatch.setattr(workloads, "expected_fuzz_scan", off_by_one)
    report = run.measure(workloads.WORKLOADS["coalition-fuzz"], seed=1, seconds=0, trace=0)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] > 0
    assert report["header"]["fail_ratio"] == 1


def test_wrong_oracle_expectation_is_counted(monkeypatch):
    oracle = workloads.WORKLOADS["validator-oracle"]
    setup = type(oracle).setup

    def flipped(self, gb, seed, workdir):
        pool = setup(self, gb, seed, workdir)
        for item in pool:
            item["planted"] = not item["planted"]
        return pool

    monkeypatch.setattr(type(oracle), "setup", flipped)
    report = run.measure(oracle, seed=1, seconds=0, trace=0)
    assert report["failed"] == report["attempted"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_returns_the_untraced_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    gb, pool, _ = run.set_up(workload, 1, tmp_path / "inputs")
    plain, traced, mismatched, overhead, tracer = run.traced_pass(workload, gb, pool)
    assert mismatched == 0 and traced.digests and plain.digests == traced.digests
    assert overhead > 0 and len(tracer.spans) == len(pool)
    # the originals are back once the traced pass ends
    assert not hasattr(gb.mechanism.compute_bid_trace, "__wrapped__")
    assert not hasattr(gb.utility.UtilityReport.value_at, "__wrapped__")
    assert not hasattr(gb.schedule.ShareSchedule.shares_for, "__wrapped__")


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_spec()
