"""Shared test fixtures and reference implementations that the library itself does not need."""

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Iterable, Optional, Sequence

from groupbuy.auction import (
    GROUP_WINS,
    AuctionConfig,
    decide_winning_set,
    run_group_participation,
)
from groupbuy.mechanism import AllocationOutcome, BidTrace, divide
from groupbuy.numeric import EXACT, Num, NumericPolicy
from groupbuy.schedule import (
    CrossMonotonicSchedule,
    RankedSchedule,
    ShareSchedule,
    TableSchedule,
    full_mask,
    members,
    nonempty_subsets,
)
from groupbuy.utility import (
    ClosedFormUtility,
    UtilityReport,
    random_concave_knots,
    validate_knots,
)


def rras_resource_table(order: Sequence[int], base: Sequence) -> dict:
    """Resource shares of the ranked rule for every non-empty subset.

    Builds the cross-monotonic twin (payment = resource) of a ranked schedule;
    the ranked rule's resource shares are cross-monotonic.
    """
    ranked = RankedSchedule(order, base)
    masks = nonempty_subsets(full_mask(len(order)))
    return {mask: ranked.shares_for(mask).resource for mask in masks}


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
    """Random n-buyer table, payment = resource, each share a ratio of draws in 1..11."""
    def vector(mask):
        raw = [F(rng.randrange(1, 12)) if mask >> i & 1 else F(0) for i in range(n)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    entries = {m: (vector(m), vector(m)) for m in nonempty_subsets(full_mask(n))}
    return TableSchedule(n, entries)


def filtered_concave_report_grid(
    schedule: ShareSchedule,
    levels: Sequence[Num] = (0, F(1, 4), F(1, 2), F(3, 4), 1),
) -> list:
    """Reference for :func:`groupbuy.analysis.concave_report_grid`.

    Validates every tuple in the product of the levels and keeps the
    admissible ones, in the product's order.
    """
    scaled = tuple(F(l) for l in levels)
    grid = []
    for buyer in range(schedule.n):
        points = [p for p in schedule.share_points(buyer) if p > 0]
        menu = []
        for values in itertools.product(scaled, repeat=len(points)):
            knots = ((F(0), F(0)), *zip(points, values))
            if validate_knots(knots) is None:
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
    then pays the threshold.  The winner is the earliest traced subset whose
    bound covers that price, compared buyer-favorably (>=).
    """
    threshold = cfg.threshold
    bid = trace.group_bid
    if policy.gt(bid, threshold) or (policy.eq(bid, threshold) and cfg.tie_policy == GROUP_WINS):
        for step in trace.steps:
            if policy.ge(step.max_payment, threshold):
                return divide(schedule, step.subset, threshold)
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


# the value levels of the menus that scan :func:`exploit_table`
EXPLOIT_LEVELS = (0, F(7, 20), F(1, 2), F(3, 4), 1)


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
