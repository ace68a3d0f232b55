"""Shared test fixtures and reference implementations that the library itself does not need."""

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Iterable, Optional, Sequence

from groupbuy.analysis import (
    DeviationViolation,
    FuzzResult,
    PreferenceOutcome,
    concave_report_grid,
    report_menus,
    strictly_prefers,
    weakly_prefers,
)
from groupbuy.auction import (
    GROUP_WINS,
    AuctionConfig,
    decide_winning_set,
    run_group_participation,
)
from groupbuy.mechanism import AllocationOutcome, BidTrace, RatioColumn, bid_steps, divide
from groupbuy.numeric import EXACT, Num, NumericPolicy, approx
from groupbuy.scenario import bundled_scenario_path
from groupbuy.schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    ScheduleError,
    SharePair,
    ShareSchedule,
    TableSchedule,
    full_mask,
    members,
    nonempty_subsets,
    parse_subset_key,
    sqrt_weight,
    subset_key,
)
from groupbuy.utility import (
    ClosedFormUtility,
    UtilityReport,
    random_concave_knots,
    sample_report,
)


def rras_resource_table(order: Sequence[int], base: Sequence) -> dict:
    """Resource shares of the ranked rule for every non-empty subset.

    Builds the cross-monotonic twin (payment = resource) of a ranked schedule;
    the ranked rule's resource shares are cross-monotonic.
    """
    ranked = RankedSchedule(order, base)
    masks = nonempty_subsets(full_mask(len(order)))
    return {mask: ranked.shares_for(mask).resource for mask in masks}


def reference_ranked_shares(schedule: RankedSchedule, subset: int) -> tuple:
    """Reference for ``RankedSchedule.shares_for``: (resource, payment) valued afresh.

    Every live member's weight is valued at its share of ``subset``, summed
    and divided in index order; an absent member gets ``0 * base`` of
    resource and the int 0 of payment.
    """
    inside = [bool(subset >> i & 1) for i in range(schedule.n)]
    top = next(i for i in schedule.order if inside[i])
    outside = sum(b for b, live in zip(schedule.base, inside) if not live)
    resource = tuple(
        (b + outside if i == top else b) if live else 0 * b
        for i, (b, live) in enumerate(zip(schedule.base, inside))
    )
    weights = [schedule.weight.value_at(x) if live else None for x, live in zip(resource, inside)]
    total = sum(w for w in weights if w is not None)
    return resource, tuple(w / total if w is not None else 0 for w in weights)


def same_numbers(a: Sequence, b: Sequence) -> bool:
    """Whether two number sequences agree entry by entry in type and value, floats to the bit."""
    return len(a) == len(b) and all(
        type(x) is type(y) and (x.hex() == y.hex() if type(x) is float else x == y)
        for x, y in zip(a, b)
    )


def reference_table_shares(n: int, entries) -> dict:
    """Reference for ``TableSchedule(n, entries)``: mask -> its SharePair, or the error it raises.

    Every key is read by ``parse_subset_key`` (a str) or ``int`` (a mask),
    every row is checked by :func:`reference_check_share_vector`, and the
    masks 1..2^n - 1 are walked for the first one missing.
    """
    table = {}
    for key, value in entries.items():
        mask = parse_subset_key(key, n) if isinstance(key, str) else int(key)
        if not 0 < mask <= full_mask(n):
            raise ScheduleError(f"subset mask {mask} outside 1..{full_mask(n)}")
        if mask in table:
            raise ScheduleError(f"subset {{{subset_key(mask)}}} listed twice")
        xs, ys = value
        pair = SharePair(tuple(xs), tuple(ys))
        reference_check_share_vector(pair.resource, mask, n, "resource")
        if pair.payment is not pair.resource:
            reference_check_share_vector(pair.payment, mask, n, "payment")
        table[mask] = pair
    missing = next((m for m in range(1, full_mask(n) + 1) if m not in table), None)
    if missing is not None:
        raise ScheduleError(f"no shares defined for subset {{{subset_key(missing)}}}")
    return table


def reference_check_share_vector(values: Sequence, subset: int, n: int, label: str) -> None:
    """Reference for the check of one share row: its length, then entry by entry
    its sign and support, then its sum, exact rows over their common denominator."""
    if len(values) != n:
        raise ScheduleError(f"{label} shares for {{{subset_key(subset)}}} must have {n} entries")
    den, nums = 1, values
    if all(type(v) is F or type(v) is int for v in values):
        den = math.lcm(*[v.denominator for v in values])
        nums = [v.numerator * (den // v.denominator) for v in values]
    for i, v in enumerate(nums):
        if v < 0:
            raise ScheduleError(f"negative {label} share for buyer {i} in {{{subset_key(subset)}}}")
        if v > 0 and not subset >> i & 1:
            raise ScheduleError(
                f"positive {label} share for buyer {i} outside subset {{{subset_key(subset)}}}"
            )
    if sum(nums) != den:
        raise ScheduleError(f"{label} shares for {{{subset_key(subset)}}} sum to {sum(values)}, not 1")


def renormalized_cmss(n, weights):
    """Proportional weights renormalized over each subset: cross-monotonic, payment = resource."""
    table = {}
    for mask in nonempty_subsets(full_mask(n)):
        total = sum(weights[i] for i in members(mask))
        table[mask] = tuple(
            weights[i] / total if mask >> i & 1 else F(0) for i in range(n)
        )
    return CrossMonotonicSchedule(n, table)


def random_table(rng, n: int) -> TableSchedule:
    """Random n-buyer table, each share a ratio of draws in 1..11.

    Every subset draws its resource row and then its payment row: two
    independent draws, which agree for certain only on singletons, where the
    member holds everything.
    """
    def vector(mask):
        raw = [F(rng.randrange(1, 12)) if mask >> i & 1 else F(0) for i in range(n)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    entries = {m: (vector(m), vector(m)) for m in nonempty_subsets(full_mask(n))}
    return TableSchedule(n, entries)


def reference_validate_knots(knots: Sequence) -> Optional[str]:
    """Reference for :func:`groupbuy.utility.validate_knots`.

    The same checks in the same order on the coordinates as given: exact
    comparisons when every coordinate is an int or a Fraction (a bool is
    neither), the default tolerance otherwise, and concavity as quotient
    slopes compared by ``policy.le``.
    """
    if len(knots) == 0:
        return "knot list is empty"
    policy = EXACT if all(type(c) in (int, F) for knot in knots for c in knot) else approx()
    x0, u0 = knots[0]
    if not (policy.eq(x0, 0) and policy.eq(u0, 0)):
        return "first knot must be (0, 0), violated at knot 0"
    for i in range(1, len(knots)):
        if not policy.lt(knots[i - 1][0], knots[i][0]):
            return f"knot x values must be strictly increasing at knot {i}"
    if not policy.eq(knots[-1][0], 1):
        return f"last knot must sit at x=1, violated at knot {len(knots) - 1}"
    for i in range(1, len(knots)):
        if not policy.le(knots[i - 1][1], knots[i][1]):
            return f"values decrease at knot {i}"
    prev_slope = None
    for i in range(1, len(knots)):
        slope = (knots[i][1] - knots[i - 1][1]) / (knots[i][0] - knots[i - 1][0])
        if prev_slope is not None and not policy.le(slope, prev_slope):
            return f"not concave at knot {i}"
        prev_slope = slope
    return None


def filtered_concave_report_grid(
    schedule: ShareSchedule,
    levels: Sequence[Num] = (0, F(1, 4), F(1, 2), F(3, 4), 1),
) -> list:
    """Reference for :func:`groupbuy.analysis.concave_report_grid`.

    Validates every tuple in the product of the levels with
    :func:`reference_validate_knots` and keeps the admissible ones, in the
    product's order.
    """
    scaled = tuple(F(l) for l in levels)
    grid = []
    for buyer in range(schedule.n):
        points = schedule.share_points(buyer)
        menu = []
        for values in itertools.product(scaled, repeat=len(points)):
            knots = ((F(0), F(0)), *zip(points, values))
            if reference_validate_knots(knots) is None:
                menu.append(UtilityReport(knots))
        grid.append(menu)
    return grid


def random_concave_utility(seed: int, points: Iterable[Num], u_max: Num) -> UtilityReport:
    """The report through :func:`groupbuy.utility.random_concave_knots`."""
    return UtilityReport(random_concave_knots(seed, points, u_max))


def scaled_report(report: UtilityReport, factor: Num) -> UtilityReport:
    """``report`` with every value multiplied by ``factor``."""
    return UtilityReport(tuple((x, u * factor) for x, u in report.knots))


def run_at_price(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    price: Num,
    policy: NumericPolicy = EXACT,
) -> AllocationOutcome:
    """The group run at a fixed ``price`` as ``run`` does it: reserve = price, ties to the group."""
    return run_group_participation(reports, schedule, AuctionConfig(reserve=price), policy)[1]


def divide_at_price(
    steps: Iterable, schedule: ShareSchedule, price: Num, policy: NumericPolicy = EXACT
) -> AllocationOutcome:
    """:func:`run_at_price` on steps already traced, such as those from a ``start`` subset."""
    return divide(schedule, decide_winning_set(steps, AuctionConfig(reserve=price), policy), price)


def reference_group_run(
    trace: BidTrace, schedule: ShareSchedule, cfg: AuctionConfig, policy: NumericPolicy = EXACT
) -> AllocationOutcome:
    """Reference for :func:`groupbuy.auction.decide_winning_set` followed by the division.

    The second-price rule on the group bid first: the group wins when its bid
    strictly exceeds the threshold, or equals it under ``group_wins``, and
    then pays the exact threshold.  The winner is the earliest traced subset
    whose bound covers that price, compared buyer-favorably (>=).  Every
    comparison is with the threshold as a lane number.
    """
    threshold = policy.lane(cfg.threshold)
    bid = trace.group_bid
    if policy.gt(bid, threshold) or (policy.eq(bid, threshold) and cfg.tie_policy == GROUP_WINS):
        for step in trace.steps:
            if policy.ge(step.max_payment, threshold):
                return divide(schedule, step.subset, cfg.threshold)
    return AllocationOutcome.not_purchased(schedule.n)


def fixed_price_outcome(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    price: Num,
    policy: NumericPolicy = EXACT,
) -> AllocationOutcome:
    """Fixed-price variant: drop everyone unaffordable at once, then retry.

    From the current subset, every member whose reported utility for its
    resource share falls short of its payment share of the price is removed
    in one sweep; the sweep repeats until the survivors can all pay (buy) or
    nobody is left (no purchase).  This is the reference the engine's trace
    path is checked against.
    """
    if len(reports) != schedule.n:
        raise ValueError(f"{len(reports)} reports for a {schedule.n}-buyer schedule")
    for i, report in enumerate(reports):
        if not isinstance(report, (UtilityReport, ClosedFormUtility)):
            raise ValueError(f"report {i} is neither a UtilityReport nor a ClosedFormUtility")
    if price < 0:
        raise ValueError("price must be non-negative")
    subset = full_mask(schedule.n)
    while subset:
        pair = schedule.shares_for(subset)
        failing = 0
        for i in members(subset):
            y = pair.payment[i]
            if policy.is_positive(y):
                if policy.lt(reports[i].value_at(pair.resource[i]), price * y):
                    failing |= 1 << i
        if not failing:
            payments = tuple(price * y for y in pair.payment)
            return AllocationOutcome(True, subset, pair.resource, payments, price)
        subset &= ~failing
    return AllocationOutcome.not_purchased(schedule.n)


@dataclass(frozen=True)
class ConsistencyViolation:
    """A buyer worth more than the whole price was left out (or nothing was bought)."""

    buyer: int
    purchased: bool


def check_individual_consistency(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    price: Num,
    policy: NumericPolicy = EXACT,
) -> Optional[ConsistencyViolation]:
    """If anyone values the whole resource above the price, the group must buy
    and every such buyer must be in the winning set.  Assumes a monotone
    schedule.  The group runs at the price as ``run`` does at a fixed price:
    an auction with reserve = price, no rival bid and ties to the group."""
    eligible = [i for i in range(schedule.n) if policy.gt(reports[i].value_at(F(1)), price)]
    if not eligible:
        return None
    outcome = run_at_price(reports, schedule, price, policy)
    if not outcome.purchased:
        return ConsistencyViolation(eligible[0], False)
    for i in eligible:
        if not outcome.winning_set >> i & 1:
            return ConsistencyViolation(i, True)
    return None


def reference_coalition_scan(
    true_reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    cfg: AuctionConfig,
    report_grid: Sequence[Sequence[UtilityReport]],
    budget: int = 250_000,
    seed: int = 0,
    policy: NumericPolicy = EXACT,
) -> FuzzResult:
    """Reference for :func:`groupbuy.analysis.enumerate_coalition_deviations`.

    The scan without certificates and without an outcome table: every
    profile of every coalition runs the engine, and a coalition divides and
    values a winning set on its first reach.  The sampled branch draws as
    the library's does.  It reports violations, ``profiles`` and
    ``truncated``, and no coalition scans.  A closed-form deviant is recorded
    as its knot list at the buyer's positive share points.
    """
    n = schedule.n
    everyone = full_mask(n)
    threshold = policy.lane(cfg.threshold)
    true_columns = [RatioColumn(schedule, policy, i, r) for i, r in enumerate(true_reports)]
    menus = [[RatioColumn(schedule, policy, i, r) for r in report_grid[i]] for i in range(n)]

    def decide(columns):
        return decide_winning_set(bid_steps(columns, policy, everyone), cfg, policy)

    def recorded(i, report):
        if isinstance(report, ClosedFormUtility):
            return sample_report(report, schedule.share_points(i))
        return report

    def prefs(won, idxs):
        outcome = divide(schedule, won, threshold)
        return tuple(
            PreferenceOutcome(
                policy.lane(true_reports[i].value_at(outcome.fractions[i])) - outcome.payments[i],
                policy.is_positive(outcome.fractions[i]),
            )
            for i in idxs
        )

    base_prefs = prefs(decide(true_columns), range(n))

    def judge(idxs, won):
        after = prefs(won, idxs)
        before = tuple(base_prefs[i] for i in idxs)
        all_weak = all(weakly_prefers(a, b, policy) for a, b in zip(after, before))
        any_strict = any(strictly_prefers(a, b, policy) for a, b in zip(after, before))
        if not (all_weak and any_strict):
            return None
        net_only = all(policy.ge(a.net, b.net) for a, b in zip(after, before)) and any(
            policy.gt(a.net, b.net) for a, b in zip(after, before)
        )
        return before, after, not net_only

    rng = random.Random(seed)
    violations = []
    profiles = 0
    truncated = False
    for mask in sorted(nonempty_subsets(everyone), key=lambda m: (len(members(m)), m)):
        idxs = members(mask)
        picks = [menus[i] for i in idxs]
        total = math.prod(len(m) for m in picks)
        if len(idxs) <= 2 or total <= budget - profiles:
            scan = itertools.product(*picks)
        else:
            truncated = True
            remaining = max(budget - profiles, 0)
            scan = (tuple(rng.choice(menu) for menu in picks) for _ in range(remaining))
        verdicts = {}
        for profile in scan:
            profiles += 1
            columns = list(true_columns)
            for i, column in zip(idxs, profile):
                columns[i] = column
            won = decide(columns)
            if won not in verdicts:
                verdicts[won] = judge(idxs, won)
            if verdicts[won] is not None:
                before, after, uses_tiebreak = verdicts[won]
                violations.append(DeviationViolation(
                    mask, tuple(true_reports[i] for i in idxs),
                    tuple(recorded(i, column.report) for i, column in zip(idxs, profile)),
                    cfg, before, after, uses_tiebreak,
                ))
    violations.sort(key=lambda v: (v.coalition, tuple(r.knots for r in v.deviant_reports)))
    return FuzzResult(tuple(violations), profiles, truncated)


def worked_trio(sched: ShareSchedule) -> list:
    """Linear, square-root and log buyers sampled at their share points."""
    forms = [
        ClosedFormUtility.linear(1),
        ClosedFormUtility.power(1, F(1, 2)),
        ClosedFormUtility.log(1),
    ]
    return [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]


CRITERION_4_BUDGET = 400_000  # every scan of acceptance criterion 4, in the approx() lane


def criterion_4_scans() -> list:
    """Acceptance criterion 4's scans: (truthful reports, schedule, config, menus).

    Two buyers, full cross-products with three configs each: equal split and
    renormalized weights (2, 1) on a five-level grid, and ranked sqrt on its
    power menus.  Three buyers, budgeted: equal split on an 11-level grid
    against 3/5, renormalized weights (3, 2, 1) on a 7-level grid against 2/5
    and 11/10, and ranked sqrt (order 0, 1, 2, base 1/2, 1/4, 1/4) with power
    buyers on its power menus against 3/5 and 3/2.
    """
    five_levels = (0, F(1, 4), F(1, 2), F(3, 4), 1)

    def sampled(sched, forms):
        return [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]

    linear_sqrt = (ClosedFormUtility.linear(1), ClosedFormUtility.power(1, F(1, 2)))
    powers = (ClosedFormUtility.power(1, F(1, 3)), ClosedFormUtility.power(1, F(1, 2)))
    eq2 = EqualSplitSchedule(2)
    cm2 = renormalized_cmss(2, (F(2), F(1)))
    rr2 = RankedSchedule((0, 1), (F(1, 2), F(1, 2)), sqrt_weight())
    legs2 = [
        (eq2, sampled(eq2, linear_sqrt), concave_report_grid(eq2, levels=five_levels)),
        (cm2, sampled(cm2, linear_sqrt), concave_report_grid(cm2, levels=five_levels)),
        (rr2, sampled(rr2, powers), report_menus(rr2)),
    ]
    cfgs2 = [
        AuctionConfig(0, (F(3, 10),)),
        AuctionConfig(0, (F(9, 10),)),
        AuctionConfig(F(1, 2), (F(14, 10),)),
    ]
    scans = [(truth, sched, cfg, grid) for sched, truth, grid in legs2 for cfg in cfgs2]

    eq3 = EqualSplitSchedule(3)
    grid_eq = concave_report_grid(eq3, levels=tuple(F(k, 10) for k in range(11)))
    scans.append((worked_trio(eq3), eq3, AuctionConfig(0, (F(3, 5),)), grid_eq))
    cm3 = renormalized_cmss(3, (F(3), F(2), F(1)))
    grid_cm = concave_report_grid(cm3, levels=tuple(F(k, 6) for k in range(7)))
    for cfg in (AuctionConfig(0, (F(2, 5),)), AuctionConfig(0, (F(11, 10),))):
        scans.append((worked_trio(cm3), cm3, cfg, grid_cm))
    rr3 = RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight())
    truth_rr = sampled(rr3, (
        ClosedFormUtility.power(1, F(1, 4)),
        ClosedFormUtility.power(1, F(1, 3)),
        ClosedFormUtility.power(1, F(1, 2)),
    ))
    grid_rr = report_menus(rr3)
    for cfg in (AuctionConfig(0, (F(3, 5),)), AuctionConfig(0, (F(3, 2),))):
        scans.append((truth_rr, rr3, cfg, grid_rr))
    return scans


# the value levels of the menus that scan :func:`exploit_table`
EXPLOIT_LEVELS = (0, F(7, 20), F(1, 2), F(3, 4), 1)
# the power menus that scan :func:`exploit_table`: arguments of ``power_report_grid``
EXPLOIT_POWER_MENU = {
    "coefficients": (0, F(1, 2), F(3, 4), 1, F(3, 2), 2),
    "exponents": (F(1, 4), F(1, 2), 1),
}


def exploit_table() -> TableSchedule:
    """Non-monotone: buyer 0's resource share doubles from L to {0,1} at equal payment."""
    entries = {
        "0,1,2": ((F(1, 3),) * 3, (F(1, 3),) * 3),
        "0,1": ((F(2, 3), F(1, 3), 0), (F(1, 3), F(2, 3), 0)),
        "0,2": ((F(1, 2), 0, F(1, 2)), (F(1, 2), 0, F(1, 2))),
        "1,2": ((0, F(1, 2), F(1, 2)), (0, F(1, 2), F(1, 2))),
        "0": ((1, 0, 0), (1, 0, 0)),
        "1": ((0, 1, 0), (0, 1, 0)),
        "2": ((0, 0, 1), (0, 0, 1)),
    }
    return TableSchedule(3, entries)


def exploit_truth() -> list:
    """Truthful reports under which :func:`exploit_table` is exploitable."""
    return [
        UtilityReport(((F(0), F(0)), (F(1, 3), F(3, 20)), (F(1, 2), F(1, 5)),
                       (F(2, 3), F(1, 4)), (F(1), F(1, 4)))),
        UtilityReport(((F(0), F(0)), (F(1, 3), F(7, 20)), (F(1, 2), F(2, 5)), (F(1), F(2, 5)))),
        UtilityReport(((F(0), F(0)), (F(1, 3), F(3, 20)), (F(1, 2), F(3, 20)), (F(1), F(3, 20)))),
    ]


# Three-buyer ranked scenario files (JSON documents) with weights other than
# sqrt, against a rival bid of 3/5: a power:1/3 weight, which narrows the
# report class to the power family 1/12 <= k <= 1/3, with buyers inside it,
# and the identity weight, which keeps the concave class, with mixed buyers.
RANKED_SCENARIOS = {
    "ranked-power-third": {
        "buyers": [
            {"kind": "power", "c": "1", "k": "1/3"},
            {"kind": "power", "c": "3/2", "k": "1/4"},
            {"kind": "power", "c": "1", "k": "1/6"},
        ],
        "schedule": {"kind": "rras", "order": [0, 1, 2], "base": ["1/2", "1/4", "1/4"],
                     "f": "power:1/3"},
        "auction": {"reserve": "0", "competing_bids": ["3/5"]},
    },
    "ranked-identity": {
        "buyers": [
            {"kind": "linear", "c": "1"},
            {"kind": "power", "c": "1", "k": "1/2"},
            {"kind": "log", "c": "1"},
        ],
        "schedule": {"kind": "rras", "order": [2, 0, 1], "base": ["1/2", "1/4", "1/4"],
                     "f": "identity"},
        "auction": {"reserve": "0", "competing_bids": ["3/5"]},
    },
}

# A one-buyer file on the tolerance lane's edge: the buyer bears
# a = 0.3333333323333333 against a reserve of 1/3.  The sum a + 1e-9 rounds
# to float(1/3), but the difference float(1/3) - a is 1.0000000272e-09,
# past epsilon.  Every comparison decides on the difference, so the bid
# falls short of the threshold: run, compare and fuzz all see no purchase.
EPSILON_EDGE_SCENARIO = {
    "buyers": [{"kind": "linear", "c": "0.3333333323333333"}],
    "schedule": {"kind": "equal-split"},
    "auction": {"reserve": "1/3"},
    "policy": {"epsilon": "1e-9"},
}

# A cmss stanza for the section6-table buyers whose bid vector (about 1.414,
# 1.587, 1) crosses both of that file's schedules: "incomparable" to each.
CROSSING_CMSS = {"kind": "cmss", "shares": {
    "0,1,2": ["1/4", "1/4", "1/2"], "0,1": ["1/2", "1/2", "0"], "0,2": ["1/4", "0", "3/4"],
    "1,2": ["0", "1/4", "3/4"], "0": ["1", "0", "0"], "1": ["0", "1", "0"], "2": ["0", "0", "1"],
}}


def section6_with_crossing() -> dict:
    """The bundled section6-table document with ``CROSSING_CMSS`` added as "crossing"."""
    with open(bundled_scenario_path("section6-table"), encoding="utf-8") as fh:
        document = json.load(fh)
    document["schedules"]["crossing"] = CROSSING_CMSS
    return document


# Valid files whose numbers are all finite floats but whose derived values are
# not.  "power-1.7e308": three buyers whose ratios u/y all round to inf in the
# tolerance lane, so the bottleneck step must remove equal infinities.
# "knots-1.7e308" (tolerance lane) and "knots-1.7e308-exact": a bound of about
# 3.4e308, inf as a float and an exact "p/q" in the exact lane.
# "fixed-price-1e-4300": an exact price whose denominator has 4,301 digits.
_KNOTS_1_7E308 = {"kind": "knots", "points": [["0", "0"], ["1/2", "1.7e308"], ["1", "1.7e308"]]}
FLOAT_RANGE_SCENARIOS = {
    "power-1.7e308": {
        "buyers": [{"kind": "power", "c": "1.7e308", "k": "1/2"}] * 3,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1/2",
    },
    "knots-1.7e308": {
        "buyers": [_KNOTS_1_7E308] * 2,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1/2",
        "policy": {"epsilon": "1e-9"},
    },
    "knots-1.7e308-exact": {
        "buyers": [_KNOTS_1_7E308] * 2,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1/2",
    },
    "fixed-price-1e-4300": {
        "buyers": [{"kind": "linear", "c": "1"}] * 2,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1e-4300",
    },
}


def _linear_table_scenario(n, entries, **fields):
    """A scenario document: ``n`` linear buyers with c = 1, a table schedule, price 1/2."""
    return {
        "buyers": [{"kind": "linear", "c": "1"}] * n,
        "schedule": {"kind": "table", "entries": entries},
        "fixed_price": "1/2",
        **fields,
    }


_SINGLETONS_3 = {
    "0": {"x": ["1", "0", "0"], "y": ["1", "0", "0"]},
    "1": {"x": ["0", "1", "0"], "y": ["0", "1", "0"]},
    "2": {"x": ["0", "0", "1"], "y": ["0", "0", "1"]},
}
# a non-monotone three-buyer table whose spot-check witness depends on the seed
_PLANTED_ENTRIES = {
    "0,1,2": {"x": ["1/3"] * 3, "y": ["1/3"] * 3},
    "0,1": {"x": ["2/3", "1/3", "0"], "y": ["1/3", "2/3", "0"]},
    "0,2": {"x": ["1/2", "0", "1/2"], "y": ["1/2", "0", "1/2"]},
    "1,2": {"x": ["0", "1/2", "1/2"], "y": ["0", "1/2", "1/2"]},
    **_SINGLETONS_3,
}

# Scenario files (JSON documents) on which validate-schedule takes each path
# other than the bundled scenarios' and RANKED_SCENARIOS': a cross-monotonicity
# witness (buyer 0 holds 1/3 in {0,1} and 1/2 in {0,1,2}); a two-buyer table
# with monotonicity and spot-check witnesses; the planted table under two
# seeds; a cmss schedule that gives buyer 1 nothing in {0,1} (the stderr
# note); one that gives buyer 1 1e-12 of {0,1} under epsilon 1e-9, a share
# the tolerance lane counts as zero (the note again); nine buyers (spot check
# skipped); thirteen buyers (exit 2 before any output).
VALIDATE_SCENARIOS = {
    "cross-witness": _linear_table_scenario(3, {
        "0,1,2": {"x": ["1/2", "1/4", "1/4"], "y": ["1/2", "1/4", "1/4"]},
        "0,1": {"x": ["1/3", "2/3", "0"], "y": ["1/3", "2/3", "0"]},
        "0,2": {"x": ["1/2", "0", "1/2"], "y": ["1/2", "0", "1/2"]},
        "1,2": {"x": ["0", "1/2", "1/2"], "y": ["0", "1/2", "1/2"]},
        **_SINGLETONS_3,
    }),
    "two-buyer-witness": _linear_table_scenario(2, {
        "0,1": {"x": ["1/3", "2/3"], "y": ["2/3", "1/3"]},
        "0": {"x": ["1", "0"], "y": ["1", "0"]},
        "1": {"x": ["0", "1"], "y": ["0", "1"]},
    }),
    "planted-5": _linear_table_scenario(3, _PLANTED_ENTRIES, seed=5),
    "planted-77": _linear_table_scenario(3, _PLANTED_ENTRIES, seed=77),
    "zero-share": {
        "buyers": [{"kind": "linear", "c": "1"}] * 2,
        "schedule": {"kind": "cmss",
                     "shares": {"0,1": ["1", "0"], "0": ["1", "0"], "1": ["0", "1"]}},
        "fixed_price": "1/2",
    },
    "tiny-share": {
        "buyers": [{"kind": "linear", "c": "1"}] * 2,
        "schedule": {"kind": "cmss",
                     "shares": {"0,1": ["0.999999999999", "0.000000000001"],
                                "0": ["1", "0"], "1": ["0", "1"]}},
        "fixed_price": "1/2",
        "policy": {"epsilon": "1e-9"},
    },
    "nine-buyers": {
        "buyers": [{"kind": "linear", "c": "1"}] * 9,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1/2",
    },
    "thirteen-buyers": {
        "buyers": [{"kind": "linear", "c": "1"}] * 13,
        "schedule": {"kind": "equal-split"},
        "fixed_price": "1/2",
    },
}


def _renormalized_rows(weights: Sequence[int], key) -> dict:
    """The rows of :func:`renormalized_cmss` as scenario strings, keyed by ``key(members)``."""
    table = renormalized_cmss(len(weights), [F(w) for w in weights])
    return {key(members(m)): [str(v) for v in table.shares_for(m).resource]
            for m in range(1, 1 << len(weights))}


def _mixed_key(idx: tuple) -> str:
    """A subset key by the subset's size: canonical for 1 or 4 members, reversed for 2, spaced for 3."""
    return (",".join(map(str, idx)), ",".join(map(str, reversed(idx))),
            " " + ", ".join(map(str, idx)))[(len(idx) - 1) % 3]


# Share tables keyed in three ways (canonical, members reversed, spaced), so
# the loader reads some keys from its map of canonical keys and parses the
# rest: a four-buyer cmss file, and a three-buyer table file whose payment
# rows are not its resource rows, each against a rival bid of 3/5.
KEYED_SCENARIOS = {
    "cmss-mixed-keys": {
        "buyers": [{"kind": "linear", "c": c} for c in ("1", "3/2", "2", "5/4")],
        "schedule": {"kind": "cmss", "shares": _renormalized_rows((1, 2, 3, 4), _mixed_key)},
        "auction": {"reserve": "0", "competing_bids": ["3/5"]},
    },
    "table-mixed-keys": {
        "buyers": [{"kind": "linear", "c": c} for c in ("1", "3/2", "2")],
        "schedule": {"kind": "table", "entries": {
            key: {"x": x, "y": y}
            for (key, x), y in zip(_renormalized_rows((1, 2, 2), _mixed_key).items(),
                                   _renormalized_rows((2, 1, 1), _mixed_key).values())
        }},
        "auction": {"reserve": "0", "competing_bids": ["3/5"]},
    },
}
