"""Exit code and output digests of a fixed set of CLI calls, for diffing two checkouts.

Usage, from the root of a checkout::

    python3 tools/cli_parity.py > calls.txt
    python3 tools/cli_parity.py --cli-scale-seeds 1,9173,11 > calls.txt

It runs ``groupbuy.cli.main`` in-process on the checkout's own ``src/``:

* ``run``, ``fuzz`` and ``compare``, each with ``--format`` text, json and
  csv, and ``validate-schedule``, which takes no ``--format``, on every
  bundled scenario;
* ``run``, ``fuzz`` and ``compare`` again with ``--out`` in each format on
  every bundled scenario;
* ``validate-schedule`` and ``fuzz``, the latter in each format, on the
  ranked scenarios with power:1/3 and identity weights (``RANKED_SCENARIOS``
  of ``tests/helpers.py``), written into a temporary directory;
* ``run`` in each format on bundled scenarios with one field misspelt, left
  out or of an unknown value (``BROKEN``), written into the same directory;
* ``run --format json`` and ``compare --format json`` on every cli-scale
  benchmark file of the given seeds (default 1 and 9173), written into a
  temporary directory by ``bench.workloads.CliScale().setup``;
* the coalition scans of every coalition-fuzz benchmark item of the same
  seeds (``bench.workloads.CoalitionFuzz``: its ``setup`` builds the pool and
  its ``run`` calls ``enumerate_coalition_deviations`` once per auction
  config);
* the validator and the sampling oracle on every validator-oracle benchmark
  item of the same seeds (``bench.workloads.ValidatorOracle``: its ``setup``
  builds the pool of tables and its ``run`` calls ``validate_monotonicity``
  and ``brute_force_monotonicity_check`` once each), ``bench/`` being only
  read;
* the coalition scan of the non-monotone ``exploit_table`` of
  ``tests/helpers.py`` from ``exploit_truth``, over menus on the
  ``EXPLOIT_LEVELS`` grid against a rival bid of 1/2, in each lane (exact and
  ``approx()``) under each tie policy.  These scans find violations, so their
  nets reach the digest;
* the coalition scans of ``exploit_table`` and of four seeded random
  three-buyer tables (``random_table`` of ``tests/helpers.py``, truthful
  reports from ``random_concave_utility``), with one rival bid at each
  distinct bound of the exact truthful trace, in each lane under each tie
  policy.  A rival equal to a bound is a tie in both lanes, so these lines
  separate the two tie policies;
* the group runs (``run_group_participation``) of the same five tables from
  their truthful reports, with one rival bid at each distinct bound of the
  exact truthful trace and one step either side of it (1/1000 in the exact
  lane, epsilon/2 in ``approx()``), in each lane under each tie policy.

It prints one line per CLI call: a label, the exit code, and the sha256 of
stdout and of stderr.  The checkout root and the temporary directory are
replaced by placeholders before hashing, so that the same call at two
checkouts hashes alike.  An ``--out`` call's line also carries the sha256 of
the file it wrote, or ``file=none``.  It prints one line per coalition-fuzz
item: the sha256 of each scan's profile count, truncation flag, coalition
scans (coalition, status and profiles of each) and violations (coalition,
deviant knots, tie-break flag and the ``repr`` of every net), so a float that
moves by one bit, or a coalition that moves between certified and scanned,
changes the line.  It prints one line per
validator-oracle item: the sha256 of each witness's buyer, subsets, the
``repr`` and type of its constant, and its knots.  It prints one line per
exploit scan and tie scan: its violation count and the same scan digest.  It
prints one line per table, lane and tie policy of the group runs: the sha256
of each run's outcome (purchased flag, winning set and the ``repr`` of its
fractions, payments and price).
Run it at both checkouts and diff the two files: identical files mean
byte-identical CLI output and exit codes on every call and bit-identical
scan results and witnesses on every item.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import operator
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import groupbuy  # noqa: E402
import groupbuy.cli  # noqa: E402
from bench.workloads import CliScale, CoalitionFuzz, ValidatorOracle  # noqa: E402
from groupbuy.analysis import concave_report_grid, enumerate_coalition_deviations  # noqa: E402
from groupbuy.auction import (  # noqa: E402
    GROUP_LOSES,
    GROUP_WINS,
    AuctionConfig,
    run_group_participation,
)
from groupbuy.mechanism import compute_bid_trace  # noqa: E402
from groupbuy.numeric import EXACT, approx  # noqa: E402
from helpers import (  # noqa: E402
    EXPLOIT_LEVELS,
    RANKED_SCENARIOS,
    exploit_table,
    exploit_truth,
    random_concave_utility,
    random_table,
)

FORMATS = ("text", "json", "csv")
LANES = (("exact", EXACT), ("approx", approx()))
# the step either side of a bound that the tie runs also put a rival at, per lane
TIE_STEPS = {"exact": Fraction(1, 1000), "approx": approx().epsilon / 2}
TIE_POLICIES = (GROUP_WINS, GROUP_LOSES)
# the formats each command is called with; None calls it without --format
COMMANDS = {"run": FORMATS, "validate-schedule": (None,), "fuzz": FORMATS, "compare": FORMATS}
# the commands that take --out
REPORTS = ("run", "fuzz", "compare")
# (file name, bundled scenario, path to a stanza, field, field put in its place
# or None, its value): a scenario with one broken field, which loading must reject
BROKEN = (
    ("example2-competing_bid", "example2", ("auction",), "competing_bids", "competing_bid",
     ["0.6"]),
    ("section6-table-weight", "section6-table", ("schedule",), "f", "weight", "sqrt"),
    ("example2-tie_polcy", "example2", ("auction",), "tie_policy", "tie_polcy", "group_loses"),
    ("example1-no-k", "example1", ("buyers", 1), "k", None, None),
    ("section6-table-no-base", "section6-table", ("schedule",), "base", None, None),
    ("section6-table-no-shares", "section6-table", ("schedules", "cmss"), "shares", None, None),
    ("section6-table-cube", "section6-table", ("schedules", "rras"), "f", "f", "cube"),
)


def bundled_scenarios():
    folder = Path(str(groupbuy.bundled_scenario_path("example1"))).parent
    return sorted(folder.glob("*.json"))


def digest(text, placeholders):
    for path, name in placeholders:
        text = text.replace(path, name)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(argv, placeholders):
    """Run the CLI once; return the exit code and the digests of stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = groupbuy.cli.main(argv)
    return code, [digest(text, placeholders) for text in (out.getvalue(), err.getvalue())]


def report_calls(path, commands, placeholders):
    """Call each command on ``path`` in each of its formats; print one line per call."""
    for command in commands:
        for fmt in COMMANDS[command]:
            argv = [command, str(path)] + (["--format", fmt] if fmt else [])
            code, (out, err) = call(argv, placeholders)
            print(f"{path.stem} {command} {fmt or 'default'} "
                  f"exit={code} stdout={out} stderr={err}")


def scan_digest(results):
    """sha256 over each FuzzResult's counts, coalition scans and violations, nets by ``repr``."""
    parts = []
    for result in results:
        parts.append(f"profiles={result.profiles} truncated={result.truncated}")
        parts.extend(f"scan {s.coalition} {s.status} {s.profiles}" for s in result.coalitions)
        for v in result.violations:
            knots = [report.knots for report in v.deviant_reports]
            nets = [(repr(p.net), p.wins_nonzero) for p in v.before + v.after]
            parts.append(f"{v.coalition} {knots} {v.uses_tiebreak} {nets}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def witness_digest(witnesses):
    """sha256 over each witness (or None): buyer, subsets, constant by ``repr`` and type, knots."""
    parts = []
    for w in witnesses:
        if w is None:
            parts.append("None")
        else:
            constant = f"{w.constant!r} {type(w.constant).__name__}"
            parts.append(f"{w.buyer} {w.subset_a} {w.subset_b} {constant} {w.utility.knots!r}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def outcome_digest(outcomes):
    """sha256 over each outcome: flag, winning set, and fractions, payments, price by ``repr``."""
    parts = [
        f"{o.purchased} {o.winning_set} {o.fractions!r} {o.payments!r} {o.price!r}"
        for o in outcomes
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def tie_tables():
    """(name, table, truthful reports): the exploit table and four seeded random tables."""
    tables = [("exploit", exploit_table(), exploit_truth())]
    rng = random.Random(2014)
    for k in range(4):
        table = random_table(rng, 3)
        truth = [
            random_concave_utility(rng.randrange(2 ** 32), table.share_points(i), 1)
            for i in range(3)
        ]
        tables.append((f"random{k}", table, truth))
    return tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli-scale-seeds", default="1,9173",
                        help="comma-separated seeds of all three benchmark pools ('' for none)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.cli_scale_seeds.split(",") if s.strip()]

    with tempfile.TemporaryDirectory() as tmp:
        placeholders = [(tmp, "<workdir>"), (str(ROOT), "<root>")]
        for path in bundled_scenarios():
            report_calls(path, COMMANDS, placeholders)
            for command in REPORTS:
                for fmt in FORMATS:
                    report = Path(tmp) / "report"
                    report.unlink(missing_ok=True)
                    argv = [command, str(path), "--format", fmt, "--out", str(report)]
                    code, (out, err) = call(argv, placeholders)
                    written = (digest(report.read_text(encoding="utf-8"), placeholders)
                               if report.exists() else "none")
                    print(f"{path.stem} {command} {fmt} --out "
                          f"exit={code} stdout={out} stderr={err} file={written}")
        for name, document in RANKED_SCENARIOS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            report_calls(path, ("validate-schedule", "fuzz"), placeholders)
        for name, source, keys, field, replacement, value in BROKEN:
            document = json.loads(
                Path(str(groupbuy.bundled_scenario_path(source))).read_text(encoding="utf-8")
            )
            stanza = functools.reduce(operator.getitem, keys, document)
            del stanza[field]
            if replacement is not None:
                stanza[replacement] = value
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            report_calls(path, ("run",), placeholders)
        for seed in seeds:
            workdir = Path(tmp) / f"cli-scale-{seed}"
            workdir.mkdir()
            for item in CliScale().setup(groupbuy, seed, workdir):
                path = Path(item["path"])
                for command in ("run", "compare"):
                    code, (out, err) = call([command, str(path), "--format", "json"], placeholders)
                    label = f"cli-scale:{seed} {path.name} {command} json"
                    print(f"{label} exit={code} stdout={out} stderr={err}")
            fuzz = CoalitionFuzz()
            workdir = Path(tmp) / f"coalition-fuzz-{seed}"
            workdir.mkdir()
            for item in fuzz.setup(groupbuy, seed, workdir):
                sizes, budget, results = fuzz.run(groupbuy, item)
                profiles = sum(result.profiles for result in results)
                print(f"coalition-fuzz:{seed} item {item['id']} {item['kind']} menus={sizes} "
                      f"budget={budget} profiles={profiles} scans={scan_digest(results)}")
            oracle = ValidatorOracle()
            workdir = Path(tmp) / f"validator-oracle-{seed}"
            workdir.mkdir()
            for item in oracle.setup(groupbuy, seed, workdir):
                witnesses = oracle.run(groupbuy, item)
                print(f"validator-oracle:{seed} item {item['id']} planted={item['planted']} "
                      f"witnesses={witness_digest(witnesses)}")
    schedule = exploit_table()
    grid = concave_report_grid(schedule, levels=EXPLOIT_LEVELS)
    for lane, policy in LANES:
        for tie_policy in TIE_POLICIES:
            cfg = AuctionConfig(0, (Fraction(1, 2),), tie_policy)
            result = enumerate_coalition_deviations(
                exploit_truth(), schedule, cfg, grid, budget=300_000, policy=policy
            )
            print(f"exploit-scan lane={lane} tie={tie_policy} "
                  f"violations={len(result.violations)} scans={scan_digest([result])}")
    for name, table, truth in tie_tables():
        grid = concave_report_grid(table, levels=EXPLOIT_LEVELS)
        bounds = sorted({step.max_payment for step in compute_bid_trace(truth, table).steps})
        for rival in bounds:
            for lane, policy in LANES:
                for tie_policy in TIE_POLICIES:
                    cfg = AuctionConfig(0, (rival,), tie_policy)
                    result = enumerate_coalition_deviations(
                        truth, table, cfg, grid, budget=300_000, policy=policy
                    )
                    print(f"tie-scan table={name} rival={rival} lane={lane} tie={tie_policy} "
                          f"violations={len(result.violations)} scans={scan_digest([result])}")
        for lane, policy in LANES:
            step = TIE_STEPS[lane]
            rivals = sorted({r for b in bounds for r in (b - step, b, b + step) if r >= 0})
            for tie_policy in TIE_POLICIES:
                outcomes = [
                    run_group_participation(
                        truth, table, AuctionConfig(0, (rival,), tie_policy), policy
                    )[1]
                    for rival in rivals
                ]
                purchased = sum(o.purchased for o in outcomes)
                print(f"tie-run table={name} lane={lane} tie={tie_policy} rivals={len(rivals)} "
                      f"purchased={purchased} runs={outcome_digest(outcomes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
