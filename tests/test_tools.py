"""Unit tests of the scripts under ``tools/``, which are not part of the package."""

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from groupbuy.analysis import CoalitionScan, DeviationViolation, FuzzResult, PreferenceOutcome
from groupbuy.auction import AuctionConfig
from groupbuy.utility import UtilityReport

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")
BOUNDS = {"setup_s": 0.25, "throughput_per_s": 0.24, "op_p50_ms": 0.24,
          "op_p90_ms": 0.24, "peak_rss_mb": 0.2}


def runs(parent_p50, change_p50, workload="coalition-fuzz", seeds=None):
    """Synthetic runs of both sides: op_p50_ms as given per seed, the other metrics equal."""
    seeds = seeds or range(11, 11 + len(parent_p50))
    out = []
    for seed, p, c in zip(seeds, parent_p50, change_p50):
        for side, p50 in (("parent", p), ("change", c)):
            metrics = {"setup_s": 0.5, "throughput_per_s": 1000 / p50, "op_p50_ms": p50,
                       "op_p90_ms": 1.5 * p50, "peak_rss_mb": 40.0}
            out.append({"workload": workload, "seed": seed, "side": side,
                        "result": {"failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}})
    return out


PARENT = [4.1, 4.2, 4.15, 4.3, 4.25, 4.2, 4.18, 4.22, 4.35, 4.12]  # inclusive quartiles 4.1575 and 4.2425


class TestSummarize:
    def test_a_clear_gain_meets_the_claim(self):
        row = bench_pairs.summarize(runs(PARENT, [3.3] * 10), BOUNDS)["coalition-fuzz"]["metrics"]
        p50 = row["op_p50_ms"]
        assert (p50["pairs"], p50["change_wins"]) == (10, 10)
        assert p50["claim_met"] and p50["within_bound"]
        # higher is better for throughput, and the change's is higher
        assert row["throughput_per_s"]["claim_met"] and row["throughput_per_s"]["within_bound"]
        # a metric that did not move claims nothing and stays within its bound
        assert row["peak_rss_mb"]["change_wins"] == 0
        assert not row["peak_rss_mb"]["claim_met"] and row["peak_rss_mb"]["within_bound"]

    def test_eight_wins_of_ten_meet_no_claim(self):
        change = [3.3] * 8 + [4.5, 4.5]
        p50 = bench_pairs.summarize(runs(PARENT, change), BOUNDS)["coalition-fuzz"]["metrics"]["op_p50_ms"]
        assert p50["change_wins"] == 8
        assert not p50["claim_met"]

    def test_a_gain_inside_the_parents_spread_meets_no_claim(self):
        # every pair won, but the medians differ by 0.06 ms against an IQR of 0.085 ms
        change = [p - 0.06 for p in PARENT]
        p50 = bench_pairs.summarize(runs(PARENT, change), BOUNDS)["coalition-fuzz"]["metrics"]["op_p50_ms"]
        assert p50["change_wins"] == 10
        assert p50["parent_q3"] - p50["parent_q1"] == pytest.approx(0.085)
        assert not p50["claim_met"]

    # ops 1.3 times slower are 30% over the parent's median p50 but lower
    # throughput by 23%, within its 0.24; 1.35 times slower lowers it by 26%
    @pytest.mark.parametrize("slower,p50_within,throughput_within",
                             [(1.2, True, True), (1.3, False, True), (1.35, False, False)])
    def test_the_bound_is_a_share_of_the_parents_median(self, slower, p50_within, throughput_within):
        rows = bench_pairs.summarize(runs(PARENT, [p * slower for p in PARENT]), BOUNDS)
        metrics = rows["coalition-fuzz"]["metrics"]
        assert metrics["op_p50_ms"]["within_bound"] is p50_within
        assert metrics["throughput_per_s"]["within_bound"] is throughput_within
        assert not metrics["op_p50_ms"]["claim_met"]

    def test_fewer_than_ten_pairs_meet_no_claim(self):
        p50 = bench_pairs.summarize(runs(PARENT[:9], [3.3] * 9), BOUNDS)["coalition-fuzz"]["metrics"]["op_p50_ms"]
        assert p50["change_wins"] == 9
        assert not p50["claim_met"] and p50["within_bound"]

    def test_only_seed_matched_pairs_count(self):
        data = runs(PARENT, [3.3] * 10) + runs([4.0], [3.0], seeds=[99])[:1]  # parent only
        summary = bench_pairs.summarize(data, BOUNDS)["coalition-fuzz"]
        assert summary["seeds"] == list(range(11, 21))
        assert summary["metrics"]["op_p50_ms"]["pairs"] == 10


def test_bounds_come_from_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.read_bounds() == {m["name"]: m["bound"] for m in declared}
    assert set(bench_pairs.read_bounds()) == set(bench_pairs.BETTER)


def test_directions_come_from_benchmark_json():
    declared = {m["name"]: m["better"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert bench_pairs.BETTER == declared
    rows = bench_pairs.summarize(runs(PARENT, [3.3] * 10), BOUNDS)["coalition-fuzz"]["metrics"]
    assert {name: row["better"] for name, row in rows.items()} == declared


cli_parity = load_tool("cli_parity")


def test_scan_line_counts_and_digests_the_whole_result():
    scans = (CoalitionScan(1, "scanned", 2), CoalitionScan(2, "certified", 3))
    result = FuzzResult((), 5, True, scans)
    digest = hashlib.sha256(repr(result).encode("utf-8")).hexdigest()
    assert cli_parity.scan_line("label", result) == f"label violations=0 scans={digest}"
    # a field the line's count does not show still moves the digest
    moved = FuzzResult((), 5, True, (CoalitionScan(1, "scanned", 3), CoalitionScan(2, "certified", 2)))
    assert cli_parity.repr_digest([moved]) != cli_parity.repr_digest([result])

    # and so does one knot of a violation's truthful report
    def violation(top):
        deviant = (UtilityReport(((0, 0), (1, 1))),) * 2
        truth = (UtilityReport(((0, 0), (1, top))), deviant[1])
        outcome = PreferenceOutcome(Fraction(1, 2), True)
        return FuzzResult((DeviationViolation(1, truth, deviant, AuctionConfig(), (outcome,),
                                              (outcome,), False),), 5, False, scans)
    assert cli_parity.repr_digest([violation(1)]) != cli_parity.repr_digest([violation(2)])


def test_scan_parity_without_benchmark_seeds():
    # criterion 4's fourteen scans, then the exploit table over concave and
    # power menus in each lane under each tie policy
    lines = list(cli_parity.scan_lines())
    assert [line.split(" violations=")[0] for line in lines] == [
        *(f"criterion-4 scan {k} n={2 if k < 9 else 3}" for k in range(14)),
        *(f"exploit-scan menus={menus} lane={lane} tie={tie}" for menus in ("concave", "power")
          for lane in ("exact", "approx") for tie in ("group_wins", "group_loses")),
    ]
    assert [line.split(" violations=")[1].split()[0] for line in lines] == (
        ["0"] * 14 + ["169"] * 4 + ["402", "395"] * 2
    )


def test_oracle_parity_lines(monkeypatch):
    # each table in each lane against the concave class and, for a ranked
    # table, its power class; one seed of 200 samples keeps the test short
    monkeypatch.setattr(cli_parity, "ORACLE_SEEDS", range(1))
    monkeypatch.setattr(cli_parity, "ORACLE_SAMPLES", 200)
    lines = list(cli_parity.oracle_lines())
    classes = {"random0": [], "random1": [], "random2": [], "cmss": [], "ranked-sqrt": ["power:1/8-1/2"],
               "ranked-power": ["power:1/12-1/3"], "ranked-sqrt-float": ["power:1/8-1/2"]}
    assert [line.split(" witnesses=")[0] for line in lines] == [
        f"oracle table={table} lane={lane} class={cls} found={int(cls == 'concave' and table != 'cmss')}"
        for table, power in classes.items() for lane in ("exact", "approx") for cls in ("concave", *power)
    ]
