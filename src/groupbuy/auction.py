"""Sealed-bid second-price auction with a reserve, and the end-to-end group run.

The group enters one joint bid and divides the resource and the payment only
if it wins, so a group run has one result: the :class:`AllocationOutcome`,
purchased exactly when the group won, at the clearing price.  Whether it wins
and which traced subset then buys is one decision, :func:`decide_winning_set`;
a winning group pays the threshold, max(reserve, best rival bid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple

from .mechanism import AllocationOutcome, BidStep, BidTrace, compute_bid_trace, divide
from .numeric import EXACT, Num, NumericPolicy, quote, to_float
from .schedule import ShareSchedule
from .utility import UtilityReport

GROUP_WINS = "group_wins"
GROUP_LOSES = "group_loses"


@dataclass(frozen=True)
class AuctionConfig:
    """Reserve price, exogenous competing bids, and how an exact tie resolves."""

    reserve: Num = 0
    competing_bids: tuple = ()
    tie_policy: str = GROUP_WINS

    def __post_init__(self):
        object.__setattr__(self, "competing_bids", tuple(self.competing_bids))
        if self.tie_policy not in (GROUP_WINS, GROUP_LOSES):
            raise ValueError(f"unknown tie policy {quote(self.tie_policy)}")
        for v in (self.reserve, *self.competing_bids):
            if not math.isfinite(to_float(v)) or v < 0:
                raise ValueError("reserve and bids must be finite and non-negative")

    @cached_property  # not a field: repr, == and hash see only the three above
    def threshold(self) -> Num:
        """The price the group must meet: max of reserve and best rival bid, computed once."""
        return max(self.reserve, *self.competing_bids, 0)


def decide_winning_set(
    steps: Iterable[BidStep], cfg: AuctionConfig, policy: NumericPolicy = EXACT
) -> int:
    """The winning set of a group run, or 0 when the group does not buy.

    This is the auction's one rule, and it alone compares a bound with the
    threshold, made a lane number (``policy.lane``).  The group wins when its
    bid, the largest bound in ``steps``, strictly exceeds it, or equals it under
    ``group_wins``; it then buys at the first (largest) traced subset whose
    bound covers the threshold (``policy.ge``).  ``steps`` are read only up to
    the deciding one: under ``group_wins`` the first covering bound decides,
    and under ``group_loses`` a bound equal to the threshold decides nothing
    until a later bound exceeds it strictly (the group buys at that first
    subset) or the steps run out.
    """
    threshold = policy.lane(cfg.threshold)
    first = 0
    for step in steps:
        if not first and policy.ge(step.max_payment, threshold):
            first = step.subset
        if first and (cfg.tie_policy == GROUP_WINS or policy.gt(step.max_payment, threshold)):
            return first
    return 0


def run_group_participation(
    reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    cfg: AuctionConfig,
    policy: NumericPolicy = EXACT,
) -> Tuple[BidTrace, AllocationOutcome]:
    """Compute the trace, enter the auction with it, divide on a win.

    The outcome is purchased exactly when the group won, and its ``price`` is
    then the clearing price, the exact threshold, which never exceeds the
    group bid under ``policy``.
    """
    trace = compute_bid_trace(reports, schedule, policy)
    won = decide_winning_set(trace.steps, cfg, policy)
    return trace, divide(schedule, won, cfg.threshold)
