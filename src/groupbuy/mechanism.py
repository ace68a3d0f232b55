"""The aggregation engine: bearable payments over shrinking subsets, then division.

Starting from the whole group (or any start subset), each step computes the
largest total payment the current subset could bear: the smallest ratio of a
member's reported utility for its resource share to its payment share.  The
members whose reports exactly meet that bound (the bottleneck buyers, those
with ``policy.eq(ratio, bound)``: the one rule of :mod:`groupbuy.numeric`)
are removed and the step repeats until nobody is left.  The largest bearable
payment across steps is the group's bid.  The auction
(:func:`groupbuy.auction.decide_winning_set`) reads the steps and names the
winning set, and :func:`divide` divides resource and payment by that subset's
shares at the clearing price.

:func:`compute_bid_trace` is the engine's one checked entry.  It checks the
reports and the start subset, compiles each report into a :class:`RatioColumn`
and keeps every step.  A column maps subset -> u_i(x_i(S)) / y_i(S) at the
schedule's exact shares, filled on the loop's first read of the subset; the
ratio becomes a lane number once (``policy.ratio``), so the tolerance lane
compares floats only.  A column values a share only when it is another object
than the one it valued last.  :func:`bid_steps` is the bare loop over
columns, as a generator.  The coalition scan builds each column once per
instance (truth, schedule, menus, policy), for all its profiles under every
auction config scanned on that instance in a row, and reads each profile's
steps only up to the one that decides the auction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .numeric import EXACT, Num, NumericPolicy
from .schedule import ShareSchedule, full_mask, is_subset, members
from .utility import ClosedFormUtility, UtilityReport


class BidStep(NamedTuple):
    """One engine step: the subset considered, what it could bear, who fell out.

    A named tuple, cheap to build: the coalition scan makes one per step of
    every profile it runs.
    """

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


class RatioColumn(dict):
    """One buyer's report compiled against a schedule and policy: subset -> ratio.

    The ratio is u_i(x_i(S)) / y_i(S) at the schedule's exact shares, as a lane
    number (``policy.ratio``), or None where y_i(S) is not positive.  Each
    subset is computed on its first read and kept.  The last share the column
    valued, and its value, are a one-entry memo keyed by identity: a ranked
    member below the top keeps its base share object from subset to subset,
    so it is valued once per run of steps.  The column holds that object, so
    its identity cannot pass to another; keying by value would hash every
    ``Fraction`` share on every fill.
    """

    __slots__ = ("schedule", "policy", "buyer", "report", "_share", "_value")

    def __init__(self, schedule: ShareSchedule, policy: NumericPolicy, buyer: int, report):
        if not isinstance(report, (UtilityReport, ClosedFormUtility)):
            raise ValueError(f"report {buyer} is neither a UtilityReport nor a ClosedFormUtility")
        super().__init__()
        self.schedule = schedule
        self.policy = policy
        self.buyer = buyer
        self.report = report
        self._share = self._value = None

    def __missing__(self, subset: int):
        policy, i = self.policy, self.buyer
        pair = self.schedule.shares_for(subset)
        y = pair.payment[i]
        ratio = None
        if policy.is_positive(y):
            x = pair.resource[i]
            if x is not self._share:
                self._share, self._value = x, self.report.value_at(x)
            ratio = policy.ratio(self._value, y)
        self[subset] = ratio
        return ratio


def bid_steps(
    columns: Sequence[RatioColumn], policy: NumericPolicy, subset: int
) -> Iterator[BidStep]:
    """Yield the shrinking-subset steps from ``subset``, one column per buyer.

    The bare loop: it trusts what :func:`compute_bid_trace` checks (one
    column per buyer, compiled for one schedule and ``policy``, and a
    non-empty ``subset`` of the buyers).  Terminates in at most n steps:
    every schedule is built so that each subset S has a member paying at least
    1/|S| >= 1/``MAX_BUYERS``, which ``policy.is_positive`` passes (an epsilon
    stays below half of it), so some member has a ratio, and the one at the
    minimum passes ``policy.eq(ratio, bound)``, an ``inf`` bound included.
    """
    while subset:
        pairs = []
        bound = None
        for i in members(subset):
            ratio = columns[i][subset]
            if ratio is not None:
                pairs.append((i, ratio))
                if bound is None or ratio < bound:
                    bound = ratio
        removed = 0
        for i, ratio in pairs:
            if policy.eq(ratio, bound):
                removed |= 1 << i
        yield BidStep(subset, bound, removed)
        subset &= ~removed


def compute_bid_trace(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    policy: NumericPolicy = EXACT,
    start: Optional[int] = None,
) -> BidTrace:
    """Every step of :func:`bid_steps`, from ``start`` (default: the full group).

    The engine's checked entry: one report per buyer, each a
    :class:`UtilityReport` or :class:`ClosedFormUtility` (validated at
    construction; the engine assumes admissibility), and a non-empty ``start``
    within the buyers.  Starting from a smaller set exercises winning-set
    stability: removing non-winners up front must not change the winner, and
    removing one winner shrinks it.
    """
    if len(reports) != schedule.n:
        raise ValueError(f"{len(reports)} reports for a {schedule.n}-buyer schedule")
    columns = [RatioColumn(schedule, policy, i, report) for i, report in enumerate(reports)]
    if start is None:
        start = full_mask(schedule.n)
    elif start == 0:
        raise ValueError("start subset must be non-empty")
    elif not is_subset(start, full_mask(schedule.n)):
        raise ValueError("start subset outside the buyer range")
    return BidTrace(tuple(bid_steps(columns, policy, start)))


def divide(schedule: ShareSchedule, subset: int, price: Num) -> AllocationOutcome:
    """The purchase by ``subset`` at ``price``, divided by its exact shares.

    Subset 0 is the group that does not buy: nothing is divided and nobody
    pays, whatever ``price`` is.  At a ``float`` price (the tolerance lane's)
    ``price * share`` is ``price * float(share)``, a float.
    """
    if not subset:
        return AllocationOutcome.not_purchased(schedule.n)
    pair = schedule.shares_for(subset)
    payments = tuple(price * y for y in pair.payment)
    return AllocationOutcome(True, subset, pair.resource, payments, price)
