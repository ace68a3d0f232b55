import math
import random
from fractions import Fraction as F

import pytest

from groupbuy.auction import (
    GROUP_LOSES,
    GROUP_WINS,
    AuctionConfig,
    decide_winning_set,
    run_group_participation,
)
from groupbuy.mechanism import (
    AllocationOutcome,
    BidStep,
    BidTrace,
    RatioColumn,
    bid_steps,
    compute_bid_trace,
)
from groupbuy.numeric import EXACT, approx
from groupbuy.schedule import EqualSplitSchedule, full_mask
from groupbuy.utility import ClosedFormUtility, UtilityReport, sample_report

from helpers import (
    exploit_table,
    exploit_truth,
    random_concave_utility,
    random_table,
    reference_group_run,
)

APPROX = approx()


def worked_setup():
    sched = EqualSplitSchedule(3)
    forms = [
        ClosedFormUtility.linear(1),
        ClosedFormUtility.power(1, F(1, 2)),
        ClosedFormUtility.log(1),
    ]
    reports = [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]
    return reports, sched


def rational_setup():
    """Rational reports on equal split, so the exact lane's bid is a Fraction."""
    sched = EqualSplitSchedule(3)
    reports = [
        UtilityReport(((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1, 2), F(2, 3)), (F(1), F(1)))),
        UtilityReport(((F(0), F(0)), (F(1, 3), F(2, 5)), (F(1, 2), F(1, 2)), (F(1), F(3, 5)))),
        sample_report(ClosedFormUtility.linear(1), sched.share_points(2)),
    ]
    return reports, sched


def clearing_price(bid, cfg):
    """The price a one-buyer group bidding ``bid`` pays in ``cfg``, or None when it loses.

    The buyer values the whole resource at ``bid``, so its trace is the one
    step (buyer 0, bound ``bid``).
    """
    report = UtilityReport(((F(0), F(0)), (F(1), F(bid))))
    trace, outcome = run_group_participation([report], EqualSplitSchedule(1), cfg)
    assert trace.steps == (BidStep(0b1, bid, 0b1),)
    assert decide_winning_set(trace.steps, cfg) == outcome.winning_set
    return outcome.price if outcome.purchased else None


class TestSecondPrice:
    def test_win_at_the_rival_bid(self):
        assert clearing_price(1, AuctionConfig(0, (F(3, 5),))) == F(3, 5)

    def test_win_at_higher_rival_bid(self):
        assert clearing_price(1, AuctionConfig(0, (F(9, 10),))) == F(9, 10)

    def test_outbid(self):
        assert clearing_price(1, AuctionConfig(0, (F(6, 5),))) is None

    def test_below_reserve(self):
        assert clearing_price(1, AuctionConfig(F(11, 10), ())) is None

    def test_reserve_beats_low_rival(self):
        assert clearing_price(1, AuctionConfig(F(1, 2), (F(1, 4),))) == F(1, 2)

    def test_tie_policies(self):
        cfg_win = AuctionConfig(0, (1,), GROUP_WINS)
        cfg_lose = AuctionConfig(0, (1,), GROUP_LOSES)
        assert clearing_price(1, cfg_win) == 1
        assert clearing_price(1, cfg_lose) is None

    def test_no_rivals_no_reserve(self):
        # a price of 0 is a win, not a loss
        price = clearing_price(F(1, 2), AuctionConfig())
        assert price is not None and price == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            AuctionConfig(-1)
        with pytest.raises(ValueError):
            AuctionConfig(0, (float("inf"),))
        with pytest.raises(ValueError):
            AuctionConfig(0, (), "coin_flip")

    @pytest.mark.parametrize("reserve,bids", [(F(10**400), ()), (0, (F(1, 2), -F(10**400)))])
    def test_numbers_beyond_float_range_rejected(self, reserve, bids):
        with pytest.raises(ValueError, match="finite and non-negative"):
            AuctionConfig(reserve, bids)

    def test_threshold_is_no_field(self):
        # computed once and kept beside the fields, which alone make repr, == and hash
        cfg = AuctionConfig(F(1, 2), (F(3, 5), F(1, 4)), GROUP_LOSES)
        seen = (repr(cfg), hash(cfg))
        assert cfg.threshold is cfg.threshold == F(3, 5)
        assert (repr(cfg), hash(cfg)) == seen
        assert cfg == AuctionConfig(F(1, 2), (F(3, 5), F(1, 4)), GROUP_LOSES)
        assert repr(cfg) == (
            "AuctionConfig(reserve=Fraction(1, 2), competing_bids=(Fraction(3, 5), "
            "Fraction(1, 4)), tie_policy='group_loses')"
        )

    def test_clearing_never_exceeds_bid_on_win(self):
        for rival in (F(0), F(1, 3), F(2, 3), F(1)):
            price = clearing_price(1, AuctionConfig(0, (rival,)))
            if price is not None:
                assert price <= 1


class TestGroupParticipation:
    def test_low_rival_whole_group_wins(self):
        reports, sched = worked_setup()
        trace, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(3, 5),)), APPROX
        )
        assert outcome.purchased and outcome.price == F(3, 5)
        assert outcome.winning_set == 0b111
        assert [float(p) for p in outcome.payments] == [0.2, 0.2, 0.2]

    def test_higher_rival_shrinks_winning_set(self):
        reports, sched = worked_setup()
        _, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(9, 10),)), APPROX
        )
        assert outcome.purchased and outcome.winning_set == 0b011
        assert [float(p) for p in outcome.payments] == [0.45, 0.45, 0.0]

    def test_rival_above_bid_empty_outcome(self):
        reports, sched = worked_setup()
        _, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(3, 2),)), APPROX
        )
        assert not outcome.purchased and sum(outcome.payments) == 0

    def test_payment_depends_only_on_threshold(self):
        # same max(rival, reserve) => identical division, whatever the rest
        reports, sched = worked_setup()
        cfgs = [
            AuctionConfig(0, (F(7, 10),)),
            AuctionConfig(F(7, 10), (F(1, 10), F(3, 10))),
            AuctionConfig(F(2, 10), (F(7, 10), F(7, 10))),
        ]
        outcomes = [run_group_participation(reports, sched, c, APPROX)[1] for c in cfgs]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_clearing_price_never_above_group_bid(self):
        # The invariant a group run rests on: a purchase is at the clearing
        # price, never above the group bid, and a lost auction divides nothing.
        # Both lanes and both tie policies, with the threshold on a rival grid
        # and at the group bid and one step either side of it.
        lanes = [(EXACT, rational_setup, F(1, 1000)), (APPROX, worked_setup, APPROX.epsilon / 2)]
        for policy, setup, step in lanes:
            reports, sched = setup()
            bid = compute_bid_trace(reports, sched, policy).group_bid
            for tie_policy in (GROUP_WINS, GROUP_LOSES):
                tie_won = tie_policy == GROUP_WINS
                if policy.exact:
                    near = [(bid - step, True), (bid, tie_won), (bid + step, False)]
                else:  # every threshold within epsilon of the bid is a tie
                    near = [(bid - step, tie_won), (bid, tie_won), (bid + step, tie_won)]
                grid = [(r, None) for r in (F(0), F(43, 100), F(86, 100), F(99, 100), F(1))]
                for rival, expected in grid + near:
                    cfg = AuctionConfig(0, (rival,), tie_policy)
                    trace, outcome = run_group_participation(reports, sched, cfg, policy)
                    if outcome.purchased:
                        assert outcome.price == rival
                        assert policy.le(outcome.price, trace.group_bid)
                    else:
                        assert outcome == AllocationOutcome.not_purchased(3)
                    if expected is not None:
                        assert outcome.purchased == expected


class TestDecideWinningSet:
    @staticmethod
    def instances():
        """The exploit table and seeded random three-buyer tables, rational reports."""
        yield exploit_table(), exploit_truth()
        rng = random.Random(1207)
        for _ in range(6):
            table = random_table(rng, 3)
            truth = [
                random_concave_utility(rng.randrange(2 ** 32), table.share_points(i), F(1))
                for i in range(3)
            ]
            yield table, truth

    def test_agrees_with_the_full_run(self):
        # Thresholds at every bound of the trace and one step either side of
        # it; a threshold equal to a bound is where the tie policies part.
        # The whole outcome of the group run must match the reference's, every
        # float to the bit.
        lanes = [(EXACT, F(1, 1000)), (APPROX, APPROX.epsilon / 2)]
        for table, truth in self.instances():
            for policy, step in lanes:
                columns = [RatioColumn(table, policy, i, r) for i, r in enumerate(truth)]
                bounds = {s.max_payment for s in compute_bid_trace(truth, table, policy).steps}
                thresholds = {t for b in bounds for t in (b - step, b, b + step) if t >= 0}
                for threshold in thresholds:
                    for tie_policy in (GROUP_WINS, GROUP_LOSES):
                        cfg = AuctionConfig(0, (threshold,), tie_policy)
                        trace, outcome = run_group_participation(truth, table, cfg, policy)
                        want = reference_group_run(trace, table, cfg, policy)
                        assert outcome == want and repr(outcome) == repr(want)
                        steps = bid_steps(columns, policy, full_mask(3))
                        won = decide_winning_set(steps, cfg, policy)
                        assert won == want.winning_set

    @pytest.mark.parametrize("tie_policy, expected", [(GROUP_WINS, 0b1), (GROUP_LOSES, 0)])
    def test_tolerance_lane_compares_with_the_float_threshold(self, tie_policy, expected):
        # float(1/3) lies below 1/3, and the bound falls short of it by at
        # most epsilon: it ties the exact threshold exactly as it ties the
        # float one, and the reference's eq agrees with the auction's ge
        a = math.nextafter(0.3333333323333333, 1)
        assert float(F(1, 3)) - a <= APPROX.epsilon
        steps = (BidStep(0b1, a, 0b1),)
        for threshold in (F(1, 3), float(F(1, 3))):
            cfg = AuctionConfig(threshold, (), tie_policy)
            assert decide_winning_set(steps, cfg, APPROX) == expected
            want = reference_group_run(BidTrace(steps), EqualSplitSchedule(1), cfg, APPROX)
            assert want.winning_set == expected

    @pytest.mark.parametrize("tie_policy", [GROUP_WINS, GROUP_LOSES])
    def test_tolerance_lane_bound_past_epsilon_loses(self, tie_policy):
        # a + epsilon rounds to float(1/3), yet float(1/3) - a exceeds
        # epsilon: the difference decides, so the bound falls short of both
        # thresholds and the group loses under either tie policy
        a = 0.3333333323333333
        assert a + APPROX.epsilon == float(F(1, 3))
        assert float(F(1, 3)) - a > APPROX.epsilon
        steps = (BidStep(0b1, a, 0b1),)
        for threshold in (F(1, 3), float(F(1, 3))):
            cfg = AuctionConfig(threshold, (), tie_policy)
            assert decide_winning_set(steps, cfg, APPROX) == 0
            want = reference_group_run(BidTrace(steps), EqualSplitSchedule(1), cfg, APPROX)
            assert want.winning_set == 0

    def test_reads_no_further_than_the_deciding_step(self):
        steps = [BidStep(0b111, F(1, 4), 0b001), BidStep(0b110, F(1, 2), 0b010),
                 BidStep(0b100, F(1, 3), 0b100)]
        rest = iter(steps)
        assert decide_winning_set(rest, AuctionConfig(0, (F(1, 2),)), EXACT) == 0b110
        assert list(rest) == steps[2:]

    @pytest.mark.parametrize(
        "later, won_if_loses",
        [(F(3, 4), 0b111), (F(1, 4), 0)],
        ids=["later-bound-exceeds", "no-later-bound-exceeds"],
    )
    def test_group_loses_tie_waits_for_a_strict_bound(self, later, won_if_loses):
        # The first bound only equals the threshold.  Under group_loses the
        # group buys, at that first subset, only if a later bound exceeds it.
        sched = EqualSplitSchedule(3)
        steps = (BidStep(0b111, F(1, 2), 0b001), BidStep(0b110, later, 0b110))
        for tie_policy, expected in ((GROUP_WINS, 0b111), (GROUP_LOSES, won_if_loses)):
            cfg = AuctionConfig(0, (F(1, 2),), tie_policy)
            assert decide_winning_set(iter(steps), cfg, EXACT) == expected
            assert reference_group_run(BidTrace(steps), sched, cfg).winning_set == expected
