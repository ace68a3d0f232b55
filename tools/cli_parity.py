"""Exit codes and digests of a fixed set of CLI calls and scans, for diffing two checkouts.

Usage, from the root of a checkout::

    python3 tools/cli_parity.py > parity.txt
    python3 tools/cli_parity.py --seeds 1,9173,11 > parity.txt

It runs ``groupbuy.cli.main`` and the library in-process on the checkout's
own ``src/``:

* ``run``, ``fuzz`` and ``compare``, each with ``--format`` text, json and
  csv, and ``validate-schedule``, which takes no ``--format``, on every
  bundled scenario, then ``run``, ``fuzz`` and ``compare`` again with
  ``--out`` in each format;
* ``validate-schedule`` and ``fuzz``, the latter in each format, on the
  ranked scenarios with power:1/3 and identity weights (``RANKED_SCENARIOS``
  of ``tests/helpers.py``), written into a temporary directory;
* ``run`` in each format and ``validate-schedule`` on the share tables of
  ``KEYED_SCENARIOS`` of ``tests/helpers.py`` (a cmss and a table file keyed
  canonically, with members reversed, and with spaces), written into the same
  directory, so the lines cover both ways a table key is read;
* ``validate-schedule`` on the files of ``VALIDATE_SCENARIOS`` of
  ``tests/helpers.py``, written into the same directory: the failing tables
  (a cross-monotonicity witness, a two-buyer table with monotonicity and
  spot-check witnesses, a planted table under two seeds), the zero-share
  file (its stderr note), the tiny-share file (the note for a share within
  epsilon of 0), nine buyers (spot check skipped) and thirteen (exit 2);
* ``run``, ``fuzz`` and ``compare`` in each format on the one-buyer file
  whose bid falls short of its reserve by just over epsilon
  (``EPSILON_EDGE_SCENARIO`` of ``tests/helpers.py``), written into the
  same directory, so the lines show any change to the tolerance rule at
  its edge;
* every command in each format on the valid files of
  ``FLOAT_RANGE_SCENARIOS`` of ``tests/helpers.py`` (ratios that all round
  to inf, a bound past the largest float in each lane, and a price whose
  exact string has 4,301 digits), written into the same directory;
* ``run`` in each format on bundled scenarios with one field misspelt, left
  out or of an unknown value, a value or field name of 4,300 characters, a
  share row keyed by no subset, or a malformed share row or table entry
  under a key of 4,300 characters, the entry in the table file of
  ``KEYED_SCENARIOS`` (``BROKEN``), written into the same directory;
* ``run`` in each format on files that are no scenario document at all
  (``MALFORMED``: not UTF-8, a 4,301-digit JSON integer, arrays nested
  2,000 deep), written as raw bytes into the same directory;
* for each of the given seeds (default 1 and 9173) of the three benchmark
  pools in ``bench.workloads``, ``bench/`` being only read:
  ``run --format json`` and ``compare --format json`` on every cli-scale
  file; the coalition scans of every coalition-fuzz item, one per auction
  config; the validator's and the sampling oracle's witnesses on every
  validator-oracle item;
* acceptance criterion 4's scans (``criterion_4_scans`` of
  ``tests/helpers.py``) at ``CRITERION_4_BUDGET`` in the ``approx()`` lane;
* the coalition scan of the non-monotone ``exploit_table`` from
  ``exploit_truth`` against a rival bid of 1/2, over concave menus on the
  ``EXPLOIT_LEVELS`` grid and over ``EXPLOIT_POWER_MENU``'s power menus, in
  each lane (exact and ``approx()``) under each tie policy;
* the coalition scans of ``exploit_table`` and of four seeded random
  three-buyer tables (``random_table``, truthful reports from
  ``random_concave_utility``), with one rival bid at each distinct bound of
  the exact truthful trace, in each lane under each tie policy (a rival
  equal to a bound is a tie in both lanes, so these lines separate the two
  tie policies), and their group runs (``run_group_participation``) with a rival at each bound and
  one step either side of it (1/1000 exact, epsilon/2 in ``approx()``);
* the sampling oracle (``brute_force_monotonicity_check``, ``ORACLE_SAMPLES``
  samples) at seeds 0-3 on three seeded ``random_table`` tables, the monotone
  four-buyer ``renormalized_cmss`` table of weights (3, 1, 4, 2), ranked sqrt
  and power:1/3 tables on a ``Fraction`` base and a ranked sqrt table on the
  float base (0.5, 0.3, 0.2), in each lane, against the concave class and,
  where it differs, the table's own ``report_class_for`` class: the exact
  lane's integer test, its float-share path, the tolerance lane and the
  power class.

A CLI call's line carries a label, the exit code, and the sha256 of stdout
and of stderr, with the checkout root and the temporary directory replaced
by placeholders; an ``--out`` call's line also carries the sha256 of the
file it wrote, or ``file=none``.  Every other line carries one digest rule,
``repr_digest``: the sha256 of the ``repr`` of each ``FuzzResult``,
``MonotonicityWitness`` (or None) or ``AllocationOutcome``, one per line.
These are dataclasses, so the ``repr`` shows every field, and every number
with its type, so a float that moves by one bit, or a coalition that moves
between certified and scanned, changes the line.  Run it at both checkouts
and diff the two files: identical files mean byte-identical CLI output and
exit codes on every call and identical scans, witnesses and outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
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
from groupbuy.analysis import (  # noqa: E402
    concave_report_grid,
    enumerate_coalition_deviations,
    power_report_grid,
)
from groupbuy.auction import (  # noqa: E402
    GROUP_LOSES,
    GROUP_WINS,
    AuctionConfig,
    run_group_participation,
)
from groupbuy.mechanism import compute_bid_trace  # noqa: E402
from groupbuy.numeric import EXACT, approx  # noqa: E402
from groupbuy.schedule import (  # noqa: E402
    RankedSchedule,
    brute_force_monotonicity_check,
    report_class_for,
    sqrt_weight,
)
from groupbuy.utility import CONCAVE, ClosedFormUtility  # noqa: E402
from helpers import (  # noqa: E402
    CRITERION_4_BUDGET,
    EPSILON_EDGE_SCENARIO,
    EXPLOIT_LEVELS,
    FLOAT_RANGE_SCENARIOS,
    EXPLOIT_POWER_MENU,
    KEYED_SCENARIOS,
    RANKED_SCENARIOS,
    VALIDATE_SCENARIOS,
    exploit_table,
    exploit_truth,
    random_concave_utility,
    criterion_4_scans,
    random_table,
    renormalized_cmss,
)

FORMATS = ("text", "json", "csv")
LANES = (("exact", EXACT), ("approx", approx()))
# the step either side of a bound that the tie runs also put a rival at, per lane
TIE_STEPS = {"exact": Fraction(1, 1000), "approx": approx().epsilon / 2}
TIE_POLICIES = (GROUP_WINS, GROUP_LOSES)
ORACLE_SAMPLES = 1000  # per oracle call, as the validator-oracle benchmark draws
ORACLE_SEEDS = range(4)
# the formats each command is called with; None calls it without --format
COMMANDS = {"run": FORMATS, "validate-schedule": (None,), "fuzz": FORMATS, "compare": FORMATS}
# the commands that take --out
REPORTS = ("run", "fuzz", "compare")
# (file name, bundled scenario or name in KEYED_SCENARIOS, path to a stanza, field,
# field put in its place or None, its value): a scenario with one broken field,
# which loading must reject
BROKEN = (
    ("example2-competing_bid", "example2", ("auction",), "competing_bids", "competing_bid",
     ["0.6"]),
    ("section6-table-weight", "section6-table", ("schedule",), "f", "weight", "sqrt"),
    ("example2-tie_polcy", "example2", ("auction",), "tie_policy", "tie_polcy", "group_loses"),
    ("example1-no-k", "example1", ("buyers", 1), "k", None, None),
    ("section6-table-no-base", "section6-table", ("schedule",), "base", None, None),
    ("section6-table-no-shares", "section6-table", ("schedules", "cmss"), "shares", None, None),
    ("section6-table-cube", "section6-table", ("schedules", "rras"), "f", "f", "cube"),
    # values a refusal quotes by their first characters and length, and a key that is no subset
    ("example1-fixed_price-4300", "example1", (), "fixed_price", "fixed_price", "1" * 4300),
    ("section6-table-kind-4300", "section6-table", ("schedule",), "kind", "kind", "k" * 4300),
    ("example2-field-4300", "example2", ("auction",), "tie_policy", "t" * 4300, "group_wins"),
    ("section6-table-key-0,x", "section6-table", ("schedules", "cmss", "shares"), "0,1", "0,x",
     ["3/4", "1/4", "0"]),
    # a share row and a table entry of 4,300-character keys, labelled by their first characters
    ("section6-table-row-key-4300", "section6-table", ("schedules", "cmss", "shares"), "0,1",
     "0," * 2150, ["3/4", "x", "0"]),
    ("section6-table-array-key-4300", "section6-table", ("schedules", "cmss", "shares"), "0,1",
     "0," * 2150, "10"),
    ("table-mixed-keys-entry-key-4300", "table-mixed-keys", ("schedule", "entries"), "1,0",
     "0," * 2150, {"x": ["1/2", "x", "0"], "y": ["1/2", "1/2", "0"]}),
)

# (file name, raw bytes): a file that loading must reject before it reads any stanza
MALFORMED = (
    ("not-utf-8", b'\xff{"buyers": []}'),
    ("4301-digits", b'{"fixed_price": ' + b"1" * 4301 + b"}"),
    ("2000-deep", b"[" * 2000 + b"]" * 2000),
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


def repr_digest(objects):
    """sha256 over the ``repr`` of each object, one per line."""
    return hashlib.sha256("\n".join(map(repr, objects)).encode("utf-8")).hexdigest()


def scan_line(label, result):
    return f"{label} violations={len(result.violations)} scans={repr_digest([result])}"


def scan_lines():
    """A line per criterion 4 scan, then per exploit scan: menu family x lane x tie policy."""
    for k, (truth, schedule, cfg, grid) in enumerate(criterion_4_scans()):
        result = enumerate_coalition_deviations(
            truth, schedule, cfg, grid, budget=CRITERION_4_BUDGET, policy=approx()
        )
        yield scan_line(f"criterion-4 scan {k} n={schedule.n}", result)
    schedule = exploit_table()
    grids = {
        "concave": concave_report_grid(schedule, levels=EXPLOIT_LEVELS),
        "power": power_report_grid(schedule, **EXPLOIT_POWER_MENU),
    }
    for menus, grid in grids.items():
        for lane, policy in LANES:
            for tie_policy in TIE_POLICIES:
                cfg = AuctionConfig(0, (Fraction(1, 2),), tie_policy)
                result = enumerate_coalition_deviations(
                    exploit_truth(), schedule, cfg, grid, budget=300_000, policy=policy
                )
                yield scan_line(f"exploit-scan menus={menus} lane={lane} tie={tie_policy}", result)


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


def oracle_lines():
    """A line per oracle table, lane and report class: the witnesses at each of ``ORACLE_SEEDS``."""
    tables = [(f"random{k}", random_table(random.Random(k), 3)) for k in range(3)]
    fractions = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    tables += [
        ("cmss", renormalized_cmss(4, tuple(map(Fraction, (3, 1, 4, 2))))),
        ("ranked-sqrt", RankedSchedule((0, 1, 2), fractions, sqrt_weight())),
        ("ranked-power", RankedSchedule((0, 1, 2), fractions, ClosedFormUtility.power(1, Fraction(1, 3)))),
        ("ranked-sqrt-float", RankedSchedule((0, 1, 2), (0.5, 0.3, 0.2), sqrt_weight())),
    ]
    for name, table in tables:
        for lane, policy in LANES:
            for report_class in dict.fromkeys((CONCAVE, report_class_for(table)[0])):
                witnesses = [
                    brute_force_monotonicity_check(table, ORACLE_SAMPLES, seed, policy, report_class)
                    for seed in ORACLE_SEEDS
                ]
                found = sum(w is not None for w in witnesses)
                label = f"oracle table={name} lane={lane} class={report_class.kind}"
                if report_class.kind == "power":
                    label += f":{report_class.k_min}-{report_class.k_max}"
                yield f"{label} found={found} witnesses={repr_digest(witnesses)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,9173",
                        help="comma-separated seeds of all three benchmark pools ('' for none)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

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
        for documents, commands in ((RANKED_SCENARIOS, ("validate-schedule", "fuzz")),
                                    (KEYED_SCENARIOS, ("run", "validate-schedule")),
                                    (VALIDATE_SCENARIOS, ("validate-schedule",))):
            for name, document in documents.items():
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(document), encoding="utf-8")
                report_calls(path, commands, placeholders)
        path = Path(tmp) / "epsilon-edge.json"
        path.write_text(json.dumps(EPSILON_EDGE_SCENARIO), encoding="utf-8")
        report_calls(path, REPORTS, placeholders)
        for name, document in FLOAT_RANGE_SCENARIOS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            report_calls(path, COMMANDS, placeholders)
        for name, source, keys, field, replacement, value in BROKEN:
            document = (copy.deepcopy(KEYED_SCENARIOS[source]) if source in KEYED_SCENARIOS
                        else json.loads(Path(str(groupbuy.bundled_scenario_path(source)))
                                        .read_text(encoding="utf-8")))
            stanza = functools.reduce(operator.getitem, keys, document)
            del stanza[field]
            if replacement is not None:
                stanza[replacement] = value
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            report_calls(path, ("run",), placeholders)
        for name, content in MALFORMED:
            path = Path(tmp) / f"{name}.json"
            path.write_bytes(content)
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
                      f"budget={budget} profiles={profiles} scans={repr_digest(results)}")
            oracle = ValidatorOracle()
            workdir = Path(tmp) / f"validator-oracle-{seed}"
            workdir.mkdir()
            for item in oracle.setup(groupbuy, seed, workdir):
                witnesses = oracle.run(groupbuy, item)
                print(f"validator-oracle:{seed} item {item['id']} planted={item['planted']} "
                      f"witnesses={repr_digest(witnesses)}")
    for line in scan_lines():
        print(line)
    for line in oracle_lines():
        print(line)
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
                    print(scan_line(f"tie-scan table={name} rival={rival} lane={lane} "
                                    f"tie={tie_policy}", result))
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
                      f"purchased={purchased} runs={repr_digest(outcomes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
