"""The aggregation engine: bearable payments over shrinking subsets, then division.

Starting from the whole group (or any start subset), each step computes the
largest total payment the current subset could bear: the smallest ratio of a
member's reported utility for its resource share to its payment share.  The
members whose reports exactly meet that bound (the bottleneck buyers, those
with ``policy.eq(ratio, bound)``: the one rule of :mod:`groupbuy.numeric`)
are removed and the step repeats until nobody is left.  :func:`compute_bid_trace`
is that one loop.  The largest bearable payment across steps is the group's
bid; once a price is realized, :func:`allocate` picks the largest traced
subset whose bearable payment covers it, which divides resource and payment
by its shares.  :func:`fixed_price_outcome` is the separate fixed-price sweep,
kept as the reference the trace path is checked against.

The loop runs on a compiled form of its inputs (:class:`CompiledSchedule`):
each report becomes a column subset -> u_i(x_i(S)) / y_i(S), filled the first
time the loop reads a subset.  A report is always evaluated at the exact
share.  In the exact lane the ratio stays exact (a ``Fraction`` for rational
data); in the tolerance lane it becomes a ``float`` once, so the loop compares
floats only.  Called with plain reports and a schedule,
:func:`compute_bid_trace` compiles them for that call and fills only the
subsets its trace visits.  A caller that runs many profiles on one schedule
(the coalition scan) compiles once, passes the columns, and hands the
:class:`CompiledSchedule`, whose shares are floats in the tolerance lane, to
:func:`allocate` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numeric import EXACT, Num, NumericPolicy
from .schedule import (
    DegenerateScheduleError,
    SharePair,
    ShareSchedule,
    full_mask,
    is_subset,
    mask_of,
    members,
    subset_key,
)
from .utility import ClosedFormUtility, UtilityReport


@dataclass(frozen=True)
class BidStep:
    """One engine step: the subset considered, what it could bear, who fell out."""

    subset: int
    max_payment: Num
    removed: int


@dataclass(frozen=True)
class BidTrace:
    steps: tuple

    @property
    def group_bid(self) -> Num:
        """The bid submitted to the external auction: the largest bearable payment."""
        return max(step.max_payment for step in self.steps)


@dataclass(frozen=True)
class AllocationOutcome:
    purchased: bool
    winning_set: int
    fractions: tuple
    payments: tuple
    price: Num

    @classmethod
    def not_purchased(cls, n: int) -> "AllocationOutcome":
        zeros = (Fraction(0),) * n
        return cls(False, 0, zeros, zeros, Fraction(0))


def _check_inputs(reports: Sequence[UtilityReport], schedule: ShareSchedule):
    if len(reports) != schedule.n:
        raise ValueError(f"{len(reports)} reports for a {schedule.n}-buyer schedule")
    for i, report in enumerate(reports):
        if not isinstance(report, (UtilityReport, ClosedFormUtility)):
            raise ValueError(f"report {i} is neither a UtilityReport nor a ClosedFormUtility")


class RatioColumn(dict):
    """One buyer's report compiled against a schedule: subset -> ratio.

    The ratio is u_i(x_i(S)) / y_i(S), or None where y_i(S) is not positive.
    Each subset is computed on its first read and kept.
    """

    __slots__ = ("compiled", "buyer", "report")

    def __init__(self, compiled: "CompiledSchedule", buyer: int, report):
        super().__init__()
        self.compiled = compiled
        self.buyer = buyer
        self.report = report

    def __missing__(self, subset: int):
        compiled, i = self.compiled, self.buyer
        pair = compiled.schedule.shares_for(subset)
        ratio = None
        if compiled.policy.is_positive(pair.payment[i]):
            ratio = compiled.number(self.report.value_at(pair.resource[i]) / pair.payment[i])
        self[subset] = ratio
        return ratio


class CompiledSchedule:
    """A schedule compiled for one arithmetic lane.

    :meth:`shares_for` returns the schedule's shares as lane numbers, and
    :meth:`column` compiles a report into its :class:`RatioColumn`.  Lane
    numbers are the values themselves in the exact lane and floats in the
    tolerance lane, each converted once from the exact value.
    """

    def __init__(self, schedule: ShareSchedule, policy: NumericPolicy):
        self.schedule = schedule
        self.policy = policy
        self.n = schedule.n
        self._shares: dict = {}

    def number(self, v: Num) -> Num:
        return v if self.policy.exact else float(v)

    def shares_for(self, subset: int) -> SharePair:
        pair = self._shares.get(subset)
        if pair is None:
            pair = self.schedule.shares_for(subset)
            if not self.policy.exact:
                pair = SharePair(
                    tuple(map(float, pair.resource)), tuple(map(float, pair.payment))
                )
            self._shares[subset] = pair
        return pair

    def column(self, buyer: int, report) -> RatioColumn:
        """The report's column; a column this schedule compiled for the buyer passes as is."""
        if isinstance(report, RatioColumn):
            if report.compiled is not self or report.buyer != buyer:
                raise ValueError(f"report {buyer} was compiled for another buyer or schedule")
            return report
        if not isinstance(report, (UtilityReport, ClosedFormUtility)):
            raise ValueError(f"report {buyer} is neither a UtilityReport nor a ClosedFormUtility")
        return RatioColumn(self, buyer, report)


def compute_bid_trace(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    policy: NumericPolicy = EXACT,
    start: Optional[int] = None,
) -> BidTrace:
    """Run the shrinking-subset computation from ``start`` (default: the full group).

    Reports are validated at construction (closed forms are admissible by
    construction and evaluated at the queried share); the engine assumes
    admissibility.  ``schedule`` may be a :class:`CompiledSchedule` for
    ``policy``, and then ``reports`` may hold the columns it compiled.
    Terminates in at most n steps: payment shares sum to one, so some member
    has a ratio, and the one at the minimum passes ``policy.eq(ratio, bound)``.
    Starting from a smaller set exercises winning-set stability: removing
    non-winners up front must not change the winner, and removing one winner
    shrinks it.
    """
    if isinstance(schedule, CompiledSchedule):
        if schedule.policy != policy:
            raise ValueError("schedule was compiled for another arithmetic policy")
        compiled = schedule
    else:
        compiled = CompiledSchedule(schedule, policy)
    if len(reports) != compiled.n:
        raise ValueError(f"{len(reports)} reports for a {compiled.n}-buyer schedule")
    columns = [compiled.column(i, report) for i, report in enumerate(reports)]
    if start is None:
        start = full_mask(compiled.n)
    elif start == 0:
        raise ValueError("start subset must be non-empty")
    elif not is_subset(start, full_mask(compiled.n)):
        raise ValueError("start subset outside the buyer range")
    steps = []
    subset = start
    while subset:
        ratios = {}
        for i in members(subset):
            ratio = columns[i][subset]
            if ratio is not None:
                ratios[i] = ratio
        if not ratios:
            raise DegenerateScheduleError(
                f"no member of {{{subset_key(subset)}}} has a positive payment share",
                subset,
            )
        bound = min(ratios.values())
        removed = mask_of(i for i, ratio in ratios.items() if policy.eq(ratio, bound))
        steps.append(BidStep(subset, bound, removed))
        subset &= ~removed
    return BidTrace(tuple(steps))


def allocate(
    trace: BidTrace,
    schedule: ShareSchedule,
    price: Num,
    policy: NumericPolicy = EXACT,
) -> AllocationOutcome:
    """Divide resource and payment at a realized price.

    The winner is the earliest (largest) traced subset whose bearable payment
    covers the price, compared buyer-favorably (>=).  A price above the group
    bid buys nothing.  Given a :class:`CompiledSchedule`, the division is in
    its lane numbers.
    """
    if price < 0:
        raise ValueError("price must be non-negative")
    for step in trace.steps:
        if policy.ge(step.max_payment, price):
            pair = schedule.shares_for(step.subset)
            payments = tuple(price * y for y in pair.payment)
            return AllocationOutcome(True, step.subset, pair.resource, payments, price)
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
    nobody is left (no purchase).
    """
    _check_inputs(reports, schedule)
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
