"""Scenario-driven command line.

Subcommands::

    groupbuy run               <scenario.json>   # trace, bid, auction, division
    groupbuy validate-schedule <scenario.json>   # cross-monotonicity + monotonicity
    groupbuy fuzz              <scenario.json>   # coalition deviation scan
    groupbuy compare           <scenario.json>   # same reports across schedules

Each takes ``--epsilon`` and ``--exact``; ``--out`` and ``--format`` where it
writes a report (one rule, :func:`_emit`), ``--seed`` and ``--budget`` where it
samples; notes and warnings go to stderr.  ``run``, ``fuzz`` and ``compare``
enter the scenario's auction through :func:`run_group_participation`; a fixed
price is a reserve with no rival.  :mod:`groupbuy.report` builds every line
that the four commands print, both stderr notes among them; each ``cmd_*``
loads the scenario, calls the library, prints what the report module built
and chooses the exit code.  The class of utilities a schedule is checked and
fuzzed against is the library's (:func:`report_class_for`,
:func:`report_menus`).

Exit codes: 0 success/pass, 1 internal error or a failed check (violations,
witnesses), 2 invalid input, 3 budget-exhausted partial result.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .analysis import (
    DEFAULT_BUDGET,
    BudgetError,
    FuzzResult,
    compare_schedules,
    enumerate_coalition_deviations,
    report_menus,
)
from .auction import run_group_participation
from .report import class_note, compare_report, fuzz_report, run_report, validate_report
from .schedule import (
    ORACLE_MAX_BUYERS,
    SPOT_CHECK_SAMPLES,
    ScheduleError,
    brute_force_monotonicity_check,
    report_class_for,
    validate_cross_monotonic,
    validate_monotonicity,
)
from .scenario import ScenarioError, load_scenario_file


def _write(text: str, out_path) -> None:
    """Write ``text`` and a newline to ``out_path``; an unwritable path is invalid input."""
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit(args, summary: str, text, document, csv) -> None:
    """Show a report by the one output rule of ``run``, ``fuzz`` and ``compare``.

    ``text``, ``document`` and ``csv`` build the report's text lines, JSON
    document and CSV lines; only the ones shown are built.  Without ``--out``,
    stdout gets the report in the chosen format.  With it, the file gets the
    report (JSON under ``text``) and stdout the text lines under ``text``, else
    the ``summary`` lines.
    """
    render = {"text": text, "json": lambda: json.dumps(document(), indent=2), "csv": csv}
    if args.out:
        _write(render["json" if args.format == "text" else args.format](), args.out)
        print(text() if args.format == "text" else summary)
    else:
        print(render[args.format]())


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _load(args):
    return load_scenario_file(
        args.scenario, force_exact=args.exact, epsilon=args.epsilon, seed=getattr(args, "seed", None)
    )


def cmd_run(args) -> int:
    scenario = _load(args)
    report_class, _ = report_class_for(scenario.schedule)
    note = class_note(scenario.reports, report_class)
    if note is not None:
        print(note, file=sys.stderr)
    trace, outcome = run_group_participation(
        scenario.reports, scenario.schedule, scenario.auction, scenario.policy
    )
    _emit(args, *run_report(trace, outcome, scenario.fixed_price, scenario.policy))
    return 0


def cmd_validate_schedule(args) -> int:
    scenario = _load(args)
    schedule = scenario.schedule
    policy = scenario.policy
    # first: it rejects a schedule above its buyer cap before anything is printed
    cross = validate_cross_monotonic(schedule, policy=policy)
    report_class, crossing = report_class_for(schedule)
    mono = validate_monotonicity(schedule, policy=policy, report_class=report_class)
    samples = min(args.budget, SPOT_CHECK_SAMPLES) if schedule.n <= ORACLE_MAX_BUYERS else None
    spot = brute_force_monotonicity_check(
        schedule, samples=samples, seed=scenario.seed, policy=policy, report_class=report_class
    ) if samples else None
    note, text = validate_report(schedule, report_class, crossing, cross, mono, spot, samples, policy)
    if note is not None:
        print(note, file=sys.stderr)
    print(text)
    return 1 if any(w is not None for w in (cross, mono, spot)) else 0


def cmd_fuzz(args) -> int:
    """Coalition deviation scan over the scenario's truthful reports.

    Every profile runs the mechanism ``run`` executes: a ``fixed_price``
    scenario enters an auction with reserve = price and no rival bid.
    """
    scenario = _load(args)
    menus = report_menus(scenario.schedule)  # first: it rejects a schedule above the scan's cap
    if args.budget == 0:
        print("warning: budget 0, nothing fuzzed", file=sys.stderr)
        result = FuzzResult((), 0, False)
    else:
        result = enumerate_coalition_deviations(
            scenario.reports, scenario.schedule, scenario.auction, menus,
            budget=args.budget, seed=scenario.seed, policy=scenario.policy,
        )
    _emit(args, *fuzz_report(result, scenario.policy))
    if result.violations:
        return 1
    return 3 if result.truncated else 0


def cmd_compare(args) -> int:
    scenario = _load(args)
    policy = scenario.policy
    if args.schedules:
        names = [s.strip() for s in next(csv.reader([args.schedules], skipinitialspace=True))]
        missing = [n for n in names if n not in scenario.named_schedules]
        if missing:
            raise ScenarioError(f"unknown schedule name(s): {', '.join(missing)}")
    else:
        names = [n for n in scenario.named_schedules if n != "primary"] or ["primary"]
    schedules = {name: scenario.named_schedules[name] for name in names}
    comparison = compare_schedules(scenario.reports, schedules, scenario.auction, policy)
    _emit(args, *compare_report(comparison, scenario.auction.threshold, policy))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused.

    ``parse_args`` leaves the parser unchanged, and a parser is a cycle of
    some 300 objects that only the cyclic garbage collector frees, so callers
    that run :func:`main` many times in one process share one.
    """
    parser = argparse.ArgumentParser(
        prog="groupbuy",
        description="Group bidding for a shareable resource: run, validate, fuzz, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, report=True, sampling=True):
        """A subcommand with only the options that its ``func`` reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("scenario", help="path to a scenario JSON file")
        if report:
            p.add_argument("--out", help="write the report here (JSON under --format text)")
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if sampling:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
        p.add_argument("--epsilon", type=float, default=None,
                       help="force tolerance-based comparisons with this epsilon")
        p.add_argument("--exact", action="store_true",
                       help="force exact rational arithmetic")
        p.set_defaults(func=func)
        return p

    add_command("run", cmd_run, "trace, bid, auction result, division", sampling=False)
    add_command("validate-schedule", cmd_validate_schedule,
                "cross-monotonicity and monotonicity checks", report=False)
    add_command("fuzz", cmd_fuzz, "coalition deviation scan")
    p_cmp = add_command("compare", cmd_compare, "same reports across schedules", sampling=False)
    p_cmp.add_argument("--schedules", help="comma-separated names from the scenario's schedules "
                       "map; double-quote a name that holds a comma")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
