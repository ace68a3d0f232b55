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
price is a reserve with no rival.  The class of utilities a schedule is checked
and fuzzed against is the library's (:func:`report_class_for`, :func:`report_menus`).

Exit codes: 0 success/pass, 1 internal error or a failed check (violations,
witnesses), 2 invalid input, 3 budget-exhausted partial result.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import (
    BudgetError,
    FuzzResult,
    compare_schedules,
    enumerate_coalition_deviations,
    report_menus,
)
from .auction import run_group_participation
from .numeric import decimal_str
from .schedule import (
    ORACLE_MAX_BUYERS,
    ScheduleError,
    brute_force_monotonicity_check,
    members,
    nonempty_subsets,
    full_mask,
    report_class_for,
    subset_key,
    validate_cross_monotonic,
    validate_monotonicity,
)
from .scenario import (
    ScenarioError,
    auction_result_to_json,
    load_scenario_file,
    outcome_to_json,
    trace_to_json,
    violations_to_csv,
    violations_to_json,
)
from .utility import InvalidReportError, ReportClass


def _fmt(v) -> str:
    return f"{float(v):.6g}"


def _braces(mask: int) -> str:
    return "{" + subset_key(mask) + "}"


def _vec(values) -> str:
    return "/".join(_fmt(v) for v in values)


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


def _class_label(report_class: ReportClass) -> str:
    if report_class.kind == "power":
        return f"power family with exponents {_fmt(report_class.k_min)} to {_fmt(report_class.k_max)}"
    return "concave class"


def cmd_run(args) -> int:
    scenario = _load(args)
    policy = scenario.policy
    report_class, _ = report_class_for(scenario.schedule)
    outside = [i for i, report in enumerate(scenario.reports) if not report_class.contains(report)]
    if outside:
        print(
            f"note: buyer {outside[0]} lies outside the {_class_label(report_class)} "
            f"({len(outside)} such buyers); the incentive guarantees do not cover this run",
            file=sys.stderr,
        )
    trace, outcome = run_group_participation(
        scenario.reports, scenario.schedule, scenario.auction, policy
    )
    if scenario.fixed_price is None:
        summary = (
            f"bid {_fmt(trace.group_bid)}; win at {_fmt(outcome.price)}; "
            f"payments {_vec(outcome.payments)}"
            if outcome.purchased
            else f"bid {_fmt(trace.group_bid)}; lost"
        )
    else:
        summary = (
            f"fixed price {_fmt(scenario.fixed_price)}; winners {_braces(outcome.winning_set)}; "
            f"payments {_vec(outcome.payments)}; fractions {_vec(outcome.fractions)}"
            if outcome.purchased
            else f"fixed price {_fmt(scenario.fixed_price)}; no purchase"
        )

    def text():
        rows = (f"{j:<5} {_braces(s.subset):<13} {_fmt(s.max_payment):<15} {_braces(s.removed)}"
                for j, s in enumerate(trace.steps, start=1))
        return "\n".join(["step  subset        max_payment     removed", *rows, summary])

    def document():
        report = {"trace": trace_to_json(trace, policy)}
        if scenario.fixed_price is None:
            report["auction"] = auction_result_to_json(outcome, policy)
        report["outcome"] = outcome_to_json(outcome, policy)
        return report

    def csv():
        rows = (f'{j},"{subset_key(s.subset)}",{decimal_str(s.max_payment)},"{subset_key(s.removed)}"'
                for j, s in enumerate(trace.steps, start=1))
        return "\n".join(["step,subset,beta,removed", *rows])

    _emit(args, summary, text, document, csv)
    return 0


def cmd_validate_schedule(args) -> int:
    scenario = _load(args)
    schedule = scenario.schedule
    policy = scenario.policy
    # first: it rejects a schedule above its buyer cap before anything is printed
    cross = validate_cross_monotonic(schedule, policy=policy)

    zero_share_members = [
        (mask, i)
        for mask in nonempty_subsets(full_mask(schedule.n))
        for i in members(mask)
        if not schedule.shares_for(mask).resource[i] > 0
    ]
    if zero_share_members:
        mask, i = zero_share_members[0]
        print(
            f"note: buyer {i} holds a zero resource share in {_braces(mask)} "
            f"({len(zero_share_members)} such pairs); legal, but such a buyer can win nothing",
            file=sys.stderr,
        )

    report_class, crossing = report_class_for(schedule)
    class_label = _class_label(report_class)
    if crossing is not None:
        print(
            f"class: {class_label}, since the weight x^{_fmt(schedule.weight.k)} "
            f"times {_fmt(crossing.constant)} lies above x^{_fmt(crossing.utility.k)} "
            f"at x = {_fmt(crossing.x_above)} and not above it at x = {_fmt(crossing.x_not_above)}"
        )

    ok = True
    if cross is None:
        print("cross-monotonicity: Pass")
    else:
        ok = False
        print(
            f"cross-monotonicity: Witness buyer {cross.buyer}: "
            f"x{_braces(cross.subset_a)} < x{_braces(cross.subset_b)}"
        )

    mono = validate_monotonicity(schedule, policy=policy, report_class=report_class)
    if mono is None:
        print(f"monotonicity ({class_label}): Pass")
    else:
        ok = False
        print(
            f"monotonicity ({class_label}): Witness buyer {mono.buyer} on "
            f"{_braces(mono.subset_a)} within "
            f"{_braces(mono.subset_b)}; utility knots "
            f"{[(str(x), _fmt(u)) for x, u in mono.utility.knots]} with C={_fmt(mono.constant)}"
        )

    samples = min(args.budget, 5000)
    if schedule.n > ORACLE_MAX_BUYERS:
        print(f"brute-force spot check skipped (more than {ORACLE_MAX_BUYERS} buyers)")
    elif samples == 0:
        print("brute-force spot check skipped (budget 0)")
    else:
        spot = brute_force_monotonicity_check(
            schedule, samples=samples, seed=scenario.seed, policy=policy,
            report_class=report_class,
        )
        if spot is None:
            print(f"brute-force spot check ({samples} samples): Pass")
        else:
            ok = False
            print(
                f"brute-force spot check: Witness buyer {spot.buyer} on "
                f"{_braces(spot.subset_a)} within {_braces(spot.subset_b)} with C={_fmt(spot.constant)}"
            )

    print("Pass" if ok else "FAIL")
    return 0 if ok else 1


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
    summary = (
        f"{result.profiles} deviation profiles, {len(result.violations)} violations"
        + (", truncated by budget" if result.truncated else "")
    )
    _emit(
        args, summary,
        text=lambda: f"{summary}\n{violations_to_csv(result)}" if result.violations else summary,
        document=lambda: violations_to_json(result, scenario.policy),
        csv=lambda: violations_to_csv(result),
    )
    if result.violations:
        return 1
    return 3 if result.truncated else 0


def cmd_compare(args) -> int:
    scenario = _load(args)
    policy = scenario.policy
    if args.schedules:
        names = [s.strip() for s in args.schedules.split(",")]
        missing = [n for n in names if n not in scenario.named_schedules]
        if missing:
            raise ScenarioError(f"unknown schedule name(s): {', '.join(missing)}")
    else:
        names = [n for n in scenario.named_schedules if n != "primary"] or ["primary"]
    schedules = {name: scenario.named_schedules[name] for name in names}
    price = scenario.auction.threshold
    comparison = compare_schedules(scenario.reports, schedules, scenario.auction, policy)

    outcomes = [
        f"price {_fmt(price)}: {run.name} -> winners {_braces(run.outcome.winning_set)}, "
        f"payments {_vec(run.outcome.payments)}"
        if run.outcome.purchased
        else f"price {_fmt(price)}: {run.name} -> no purchase"
        for run in comparison.runs
    ]
    bids = [
        f"bid vectors: {a} {'equal to' if rel == 'equal' else rel} {b}"
        for (a, b), rel in comparison.dominance.items()
    ]
    summary = "\n".join(outcomes + bids)

    def rows():
        for run in comparison.runs:
            for j, step in enumerate(run.trace.steps, start=1):
                pair = schedules[run.name].shares_for(step.subset)
                yield (run.name, str(j), subset_key(step.subset), _vec(pair.resource),
                       _vec(pair.payment), decimal_str(step.max_payment), subset_key(step.removed))

    def text():
        header = ("schedule", "step", "subset", "resource", "payment", "max_payment", "removed")
        table = [header, *rows()]
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table]
        return "\n".join(lines + [summary])

    def document():
        runs = [
            {"schedule": run.name, "trace": trace_to_json(run.trace, policy),
             "outcomes": {decimal_str(price): outcome_to_json(run.outcome, policy)}}
            for run in comparison.runs
        ]
        dominance = {f"{a} vs {b}": rel for (a, b), rel in comparison.dominance.items()}
        return {"runs": runs, "dominance": dominance}

    def csv():
        lines = ["schedule,step,subset,resource_shares,payment_shares,beta,removed"]
        lines += [f'{r[0]},{r[1]},"{r[2]}",{r[3]},{r[4]},{r[5]},"{r[6]}"' for r in rows()]
        return "\n".join(lines)

    _emit(args, summary, text, document, csv)
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
            p.add_argument("--budget", type=non_negative_int, default=200_000)
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
    p_cmp.add_argument("--schedules", help="comma-separated names from the scenario's schedules map")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, InvalidReportError, ScheduleError) as exc:
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
