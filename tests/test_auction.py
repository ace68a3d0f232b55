from fractions import Fraction as F

import pytest

from groupbuy.auction import (
    GROUP_LOSES,
    GROUP_WINS,
    AuctionConfig,
    run_group_participation,
    run_second_price,
)
from groupbuy.numeric import approx
from groupbuy.schedule import EqualSplitSchedule
from groupbuy.utility import ClosedFormUtility, sample_report

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


class TestSecondPrice:
    def test_win_at_the_rival_bid(self):
        result = run_second_price(1, AuctionConfig(0, (F(3, 5),)))
        assert result.group_won and result.clearing_price == F(3, 5)

    def test_win_at_higher_rival_bid(self):
        result = run_second_price(1, AuctionConfig(0, (F(9, 10),)))
        assert result.group_won and result.clearing_price == F(9, 10)

    def test_outbid(self):
        result = run_second_price(1, AuctionConfig(0, (F(6, 5),)))
        assert not result.group_won and result.clearing_price is None

    def test_below_reserve(self):
        result = run_second_price(1, AuctionConfig(F(11, 10), ()))
        assert not result.group_won

    def test_reserve_beats_low_rival(self):
        result = run_second_price(1, AuctionConfig(F(1, 2), (F(1, 4),)))
        assert result.group_won and result.clearing_price == F(1, 2)

    def test_tie_policies(self):
        cfg_win = AuctionConfig(0, (1,), GROUP_WINS)
        cfg_lose = AuctionConfig(0, (1,), GROUP_LOSES)
        assert run_second_price(1, cfg_win).group_won
        assert not run_second_price(1, cfg_lose).group_won

    def test_no_rivals_no_reserve(self):
        result = run_second_price(F(1, 2), AuctionConfig())
        assert result.group_won and result.clearing_price == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            AuctionConfig(-1)
        with pytest.raises(ValueError):
            AuctionConfig(0, (float("inf"),))
        with pytest.raises(ValueError):
            AuctionConfig(0, (), "coin_flip")
        with pytest.raises(ValueError):
            run_second_price(-1, AuctionConfig())

    @pytest.mark.parametrize("reserve,bids", [(F(10**400), ()), (0, (F(1, 2), -F(10**400)))])
    def test_numbers_beyond_float_range_rejected(self, reserve, bids):
        with pytest.raises(ValueError, match="finite and non-negative"):
            AuctionConfig(reserve, bids)

    def test_clearing_never_exceeds_bid_on_win(self):
        for rival in (F(0), F(1, 3), F(2, 3), F(1)):
            result = run_second_price(1, AuctionConfig(0, (rival,)))
            if result.group_won:
                assert result.clearing_price <= 1


class TestGroupParticipation:
    def test_low_rival_whole_group_wins(self):
        reports, sched = worked_setup()
        trace, result, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(3, 5),)), APPROX
        )
        assert result.group_won
        assert outcome.winning_set == 0b111
        assert [float(p) for p in outcome.payments] == [0.2, 0.2, 0.2]

    def test_higher_rival_shrinks_winning_set(self):
        reports, sched = worked_setup()
        _, result, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(9, 10),)), APPROX
        )
        assert result.group_won and outcome.winning_set == 0b011
        assert [float(p) for p in outcome.payments] == [0.45, 0.45, 0.0]

    def test_rival_above_bid_empty_outcome(self):
        reports, sched = worked_setup()
        _, result, outcome = run_group_participation(
            reports, sched, AuctionConfig(0, (F(3, 2),)), APPROX
        )
        assert not result.group_won
        assert not outcome.purchased and sum(outcome.payments) == 0

    def test_payment_depends_only_on_threshold(self):
        # same max(rival, reserve) => identical division, whatever the rest
        reports, sched = worked_setup()
        cfgs = [
            AuctionConfig(0, (F(7, 10),)),
            AuctionConfig(F(7, 10), (F(1, 10), F(3, 10))),
            AuctionConfig(F(2, 10), (F(7, 10), F(7, 10))),
        ]
        outcomes = [run_group_participation(reports, sched, c, APPROX)[2] for c in cfgs]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_clearing_price_never_above_group_bid(self):
        reports, sched = worked_setup()
        for rival in (F(0), F(43, 100), F(86, 100), F(99, 100), F(1)):
            trace, result, outcome = run_group_participation(
                reports, sched, AuctionConfig(0, (rival,)), APPROX
            )
            if result.group_won:
                assert result.clearing_price <= trace.group_bid
                assert outcome.purchased
