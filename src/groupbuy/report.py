"""The reports of all four commands, both stderr notes, and the helpers that
print numbers and subsets.

Each ``*_report`` function of ``run``, ``fuzz`` and ``compare`` returns
``(summary, text, document, csv)``: the summary lines, and callables that build
the text lines, the JSON document and the CSV lines, so that only the format
shown is built.  :func:`validate_report` returns ``validate-schedule``'s
zero-share note and its text lines, and :func:`class_note` the note that
``run`` writes when a buyer lies outside the schedule's report class.  Text
shows a number to 6 significant digits and a subset as "{0,2}".  JSON and CSV
show every number as a decimal string with 15 significant digits, and JSON
adds an exact "p/q" string under the exact arithmetic policy.  A CSV field
that holds a comma, a quote, CR or LF is quoted, its quotes doubled (RFC 4180).
"""

from __future__ import annotations

from .numeric import Num, NumericPolicy, decimal_str, exact_str, to_float
from .schedule import ORACLE_MAX_BUYERS, full_mask, members, nonempty_subsets, subset_key


def fmt(v) -> str:
    return f"{to_float(v):.6g}"


def braces(mask: int) -> str:
    return "{" + subset_key(mask) + "}"


def vec(values, show=fmt) -> str:
    return "/".join(show(v) for v in values)


def class_label(report_class) -> str:
    if report_class.kind == "power":
        return f"power family with exponents {fmt(report_class.k_min)} to {fmt(report_class.k_max)}"
    return "concave class"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _steps(trace):
    """(step number, step, subset key, removed key) for each step of ``trace``."""
    for j, step in enumerate(trace.steps, start=1):
        yield j, step, subset_key(step.subset), subset_key(step.removed)


def number_to_json(v: Num, policy: NumericPolicy):
    out = {"decimal": decimal_str(v)}
    if policy.exact:
        out["exact"] = exact_str(v)
    return out


def trace_to_json(trace, policy: NumericPolicy) -> dict:
    return {
        "steps": [
            {"subset": subset, "beta": number_to_json(step.max_payment, policy), "removed": removed}
            for _, step, subset, removed in _steps(trace)
        ],
        "bid": number_to_json(trace.group_bid, policy),
    }


def outcome_to_json(outcome, policy: NumericPolicy) -> dict:
    return {
        "purchased": outcome.purchased,
        "winning_set": subset_key(outcome.winning_set),
        "fractions": [number_to_json(v, policy) for v in outcome.fractions],
        "payments": [number_to_json(v, policy) for v in outcome.payments],
        "price": number_to_json(outcome.price, policy),
    }


def violations_to_json(result, policy: NumericPolicy) -> dict:
    """Fuzz result as a report document: profiles covered and evaluated, each
    coalition's scan, and each violation."""
    return {
        "profiles": result.profiles,
        "truncated": result.truncated,
        "evaluated": result.evaluated,
        "coalitions": [
            {
                "coalition": subset_key(scan.coalition),
                "status": scan.status,
                "profiles": scan.profiles,
                "evaluated": scan.evaluated,
            }
            for scan in result.coalitions
        ],
        "violations": [
            {
                "coalition": subset_key(v.coalition),
                "uses_tiebreak": v.uses_tiebreak,
                "deviant_reports": [
                    [[decimal_str(x), decimal_str(u)] for x, u in r.knots]
                    for r in v.deviant_reports
                ],
                "net_before": [number_to_json(p.net, policy) for p in v.before],
                "net_after": [number_to_json(p.net, policy) for p in v.after],
            }
            for v in result.violations
        ],
    }


def violations_to_csv(result) -> str:
    """One row per (violation, coalition member): nets before and after."""
    lines = ["violation,coalition,member,net_before,net_after,uses_tiebreak"]
    for idx, v in enumerate(result.violations):
        for member, before, after in zip(members(v.coalition), v.before, v.after):
            lines.append(
                f'{idx},"{subset_key(v.coalition)}",{member},'
                f"{decimal_str(before.net)},{decimal_str(after.net)},{v.uses_tiebreak}"
            )
    return "\n".join(lines)


def run_report(trace, outcome, fixed_price, policy: NumericPolicy):
    """The trace and the division of a group run; ``fixed_price`` is None for an auction."""
    if fixed_price is None:
        summary = (
            f"bid {fmt(trace.group_bid)}; win at {fmt(outcome.price)}; "
            f"payments {vec(outcome.payments)}"
            if outcome.purchased
            else f"bid {fmt(trace.group_bid)}; lost"
        )
    else:
        summary = (
            f"fixed price {fmt(fixed_price)}; winners {braces(outcome.winning_set)}; "
            f"payments {vec(outcome.payments)}; fractions {vec(outcome.fractions)}"
            if outcome.purchased
            else f"fixed price {fmt(fixed_price)}; no purchase"
        )

    def text():
        rows = (f"{j:<5} {'{' + subset + '}':<13} {fmt(step.max_payment):<15} {{{removed}}}"
                for j, step, subset, removed in _steps(trace))
        return "\n".join(["step  subset        max_payment     removed", *rows, summary])

    def csv():
        rows = (f'{j},"{subset}",{decimal_str(step.max_payment)},"{removed}"'
                for j, step, subset, removed in _steps(trace))
        return "\n".join(["step,subset,beta,removed", *rows])

    def document():
        return {"trace": trace_to_json(trace, policy), "outcome": outcome_to_json(outcome, policy)}

    return summary, text, document, csv


def fuzz_report(result, policy: NumericPolicy):
    """A coalition scan's counts and, one CSV row per coalition member, its violations."""
    summary = (
        f"{result.profiles} deviation profiles, {len(result.violations)} violations"
        + (", truncated by budget" if result.truncated else "")
    )
    return (
        summary,
        lambda: f"{summary}\n{violations_to_csv(result)}" if result.violations else summary,
        lambda: violations_to_json(result, policy),
        lambda: violations_to_csv(result),
    )


def compare_report(comparison, price, policy: NumericPolicy):
    """Each schedule's steps with its shares there, its outcome at ``price``, and
    how the bid vectors compare."""
    outcomes = [
        f"price {fmt(price)}: {run.name} -> winners {braces(run.outcome.winning_set)}, "
        f"payments {vec(run.outcome.payments)}"
        if run.outcome.purchased
        else f"price {fmt(price)}: {run.name} -> no purchase"
        for run in comparison.runs
    ]
    bids = [
        f"bid vectors: {a} {'equal to' if rel == 'equal' else rel} {b}"
        for (a, b), rel in comparison.dominance.items()
    ]
    summary = "\n".join(outcomes + bids)

    def rows(show):
        """Each step's fields, the numbers of its share vectors written by ``show``."""
        for run in comparison.runs:
            for j, step, subset, removed in _steps(run.trace):
                pair = run.schedule.shares_for(step.subset)
                yield (run.name, str(j), subset, vec(pair.resource, show), vec(pair.payment, show),
                       decimal_str(step.max_payment), removed)

    def text():
        header = ("schedule", "step", "subset", "resource", "payment", "max_payment", "removed")
        table = [header, *rows(fmt)]
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
        lines += [f'{_csv_field(name)},{j},"{subset}",{x},{y},{beta},"{removed}"'
                  for name, j, subset, x, y, beta, removed in rows(decimal_str)]
        return "\n".join(lines)

    return summary, text, document, csv


def class_note(reports, report_class):
    """``run``'s note when a report lies outside ``report_class``, else None."""
    outside = [i for i, report in enumerate(reports) if not report_class.contains(report)]
    if not outside:
        return None
    return (f"note: buyer {outside[0]} lies outside the {class_label(report_class)} "
            f"({len(outside)} such buyers); the incentive guarantees do not cover this run")


def _witness(w) -> str:
    return f"Witness buyer {w.buyer} on {braces(w.subset_a)} within {braces(w.subset_b)}"


def validate_report(schedule, report_class, crossing, cross, mono, spot, samples, policy: NumericPolicy):
    """``validate-schedule``'s zero-share note (None if there is none) and text.

    ``report_class`` and ``crossing`` are :func:`report_class_for`'s pair, and
    ``cross``, ``mono`` and ``spot`` the witnesses of the three checks, each
    None on a pass; ``samples`` is the spot check's, or None above its cap.
    """
    zero = [(mask, i) for mask in nonempty_subsets(full_mask(schedule.n)) for i in members(mask)
            if not policy.is_positive(schedule.shares_for(mask).resource[i])]
    note = None if not zero else (
        f"note: buyer {zero[0][1]} holds a zero resource share in {braces(zero[0][0])} "
        f"({len(zero)} such pairs); legal, but if that set wins, the buyer is listed "
        f"among its winners with that share")
    label = class_label(report_class)
    lines = [] if crossing is None else [
        f"class: {label}, since the weight x^{fmt(schedule.weight.k)} "
        f"times {fmt(crossing.constant)} lies above x^{fmt(crossing.utility.k)} "
        f"at x = {fmt(crossing.x_above)} and not above it at x = {fmt(crossing.x_not_above)}"
    ]
    lines.append("cross-monotonicity: " + ("Pass" if cross is None else (
        f"Witness buyer {cross.buyer}: x{braces(cross.subset_a)} < x{braces(cross.subset_b)}")))
    lines.append(f"monotonicity ({label}): " + ("Pass" if mono is None else (
        f"{_witness(mono)}; utility knots "
        f"{[(str(x), fmt(u)) for x, u in mono.utility.knots]} with C={fmt(mono.constant)}")))
    if samples is None:
        lines.append(f"brute-force spot check skipped (more than {ORACLE_MAX_BUYERS} buyers)")
    elif samples == 0:
        lines.append("brute-force spot check skipped (budget 0)")
    elif spot is None:
        lines.append(f"brute-force spot check ({samples} samples): Pass")
    else:
        lines.append(f"brute-force spot check: {_witness(spot)} with C={fmt(spot.constant)}")
    lines.append("Pass" if cross is None and mono is None and spot is None else "FAIL")
    return note, "\n".join(lines)
