import itertools
import math
import random
from fractions import Fraction as F

import pytest

from groupbuy.mechanism import (
    AllocationOutcome,
    BidStep,
    BidTrace,
    RatioColumn,
    bid_steps,
    compute_bid_trace,
)
from groupbuy.numeric import EXACT, approx
from groupbuy.scenario import load_scenario
from groupbuy.schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    ScheduleError,
    TableSchedule,
    full_mask,
    members,
    nonempty_subsets,
    sqrt_weight,
)
from groupbuy.utility import (
    ClosedFormUtility,
    UtilityReport,
    sample_report,
)

from helpers import (
    FLOAT_RANGE_SCENARIOS,
    divide_at_price,
    fixed_price_outcome,
    random_concave_utility,
    rras_resource_table,
    run_at_price,
    same_numbers,
    scaled_report,
)

APPROX = approx()


def equal3():
    return EqualSplitSchedule(3)


def worked_reports(sched=None):
    """The running trio: x, sqrt(x), ln(1+x), sampled at the schedule's share points."""
    sched = sched or equal3()
    forms = [
        ClosedFormUtility.linear(1),
        ClosedFormUtility.power(1, F(1, 2)),
        ClosedFormUtility.log(1),
    ]
    return [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]


class TestTrace:
    def test_worked_example_trace(self):
        trace = compute_bid_trace(worked_reports(), equal3(), APPROX)
        assert [s.subset for s in trace.steps] == [0b111, 0b011, 0b010]
        assert [s.removed for s in trace.steps] == [0b100, 0b001, 0b010]
        values = [s.max_payment for s in trace.steps]
        assert values[0] == pytest.approx(3 * math.log(4 / 3), abs=1e-12)
        assert values[1] == 1 and values[2] == 1
        assert trace.group_bid == 1

    def test_singleton_linear(self):
        rep = [UtilityReport(((F(0), F(0)), (F(1), F(1))))]
        trace = compute_bid_trace(rep, EqualSplitSchedule(1))
        assert len(trace.steps) == 1
        assert trace.steps[0].max_payment == 1
        assert trace.steps[0].removed == 0b1

    def test_all_zero_reports(self):
        reps = [sample_report(ClosedFormUtility.linear(0), [F(1, 3), F(1, 2)]) for _ in range(3)]
        trace = compute_bid_trace(reps, equal3())
        assert trace.group_bid == 0
        assert trace.steps[0].removed == 0b111
        outcome = run_at_price(reps, equal3(), 0)
        assert outcome.purchased and outcome.winning_set == 0b111
        assert sum(outcome.payments) == 0

    def test_at_most_n_steps_and_shrinking(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 6)
            sched = EqualSplitSchedule(n)
            reps = [
                random_concave_utility(rng.randrange(2**32), sched.share_points(i), F(2))
                for i in range(n)
            ]
            trace = compute_bid_trace(reps, sched)
            assert len(trace.steps) <= n
            seen = full_mask(n)
            for step in trace.steps:
                assert step.subset == seen
                assert step.removed & step.subset == step.removed and step.removed
                seen &= ~step.removed
            assert seen == 0

    @pytest.mark.parametrize("gap,trace", [
        (1.5e-9, [(0b11, 0b01), (0b10, 0b10)]),
        (0.5e-9, [(0b11, 0b11)]),
    ])
    def test_bottleneck_tie_is_absolute_epsilon_on_ratios(self, gap, trace):
        # ratios 1 and 1 + gap: a tie only within epsilon = 1e-9 of the bound
        reps = [ClosedFormUtility.linear(1), ClosedFormUtility.linear(1 + gap)]
        got = compute_bid_trace(reps, EqualSplitSchedule(2), APPROX)
        assert [(s.subset, s.removed) for s in got.steps] == trace

    def test_report_count_mismatch(self):
        with pytest.raises(ValueError):
            compute_bid_trace(worked_reports()[:2], equal3())

    def test_degenerate_schedule_names_subset(self):
        # a zero weight would leave {0,1} without a payer: the schedule is
        # refused when it is built, naming the weight, so no trace reaches it
        flat = ClosedFormUtility.linear(0)
        named = r"with c > 0, positive at 1/32, not ClosedFormUtility\(kind='power', c=0"
        with pytest.raises(ScheduleError, match=named):
            RankedSchedule((0, 1), (F(1, 2), F(1, 2)), flat)

    def test_scale_covariance(self):
        # scaling every report scales every bearable payment, same subsets
        base = compute_bid_trace(worked_reports(), equal3(), APPROX)
        scaled_reports = [scaled_report(r, F(7, 2)) for r in worked_reports()]
        scaled = compute_bid_trace(scaled_reports, equal3(), APPROX)
        assert [s.subset for s in scaled.steps] == [s.subset for s in base.steps]
        assert [s.removed for s in scaled.steps] == [s.removed for s in base.steps]
        for a, b in zip(scaled.steps, base.steps):
            assert a.max_payment == pytest.approx(float(F(7, 2)) * b.max_payment, rel=1e-12)


class CountingRanked(RankedSchedule):
    """A ranked schedule that records every subset whose shares are requested."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requested = set()

    def shares_for(self, subset):
        self.requested.add(subset)
        return super().shares_for(subset)


class TestCompiled:
    def test_trace_requests_only_the_subsets_it_visits(self):
        # 32 closed-form buyers: compiling all 2^32 subsets up front could
        # never finish, so the columns must fill one visited subset at a time
        n = 32
        sched = CountingRanked(list(range(n)), [F(1, n)] * n, sqrt_weight())
        reports = [ClosedFormUtility.power(1 + F(i, 7), F(1, 2 + i % 3)) for i in range(n)]
        trace = compute_bid_trace(reports, sched, APPROX)
        assert len(sched.requested) <= len(trace.steps)
        assert sched.requested == {step.subset for step in trace.steps}

    def test_tolerance_lane_rounds_each_exact_ratio_once(self):
        # rational reports: the float lane's bounds are the exact bounds, rounded
        rng = random.Random(3)
        for sched in (equal3(), RankedSchedule((2, 0, 1), (F(1, 5), F(3, 10), F(1, 2)))):
            reports = [
                random_concave_utility(rng.randrange(2**32), sched.share_points(i), F(2))
                for i in range(3)
            ]
            exact = compute_bid_trace(reports, sched)
            rounded = compute_bid_trace(reports, sched, APPROX)
            assert [(s.subset, s.removed) for s in rounded.steps] == [
                (s.subset, s.removed) for s in exact.steps
            ]
            assert all(type(s.max_payment) is float for s in rounded.steps)
            assert [s.max_payment for s in rounded.steps] == [
                float(s.max_payment) for s in exact.steps
            ]

    def test_compiled_columns_give_the_plain_trace(self):
        sched = equal3()
        reports = worked_reports(sched)
        columns = [RatioColumn(sched, APPROX, i, r) for i, r in enumerate(reports)]
        steps = tuple(bid_steps(columns, APPROX, full_mask(3)))
        assert steps == compute_bid_trace(reports, sched, APPROX).steps

    def test_trace_rejects_a_compiled_column(self):
        # columns enter only through bid_steps; the checked entry takes reports
        sched = equal3()
        reports = worked_reports(sched)
        columns = [RatioColumn(sched, APPROX, i, r) for i, r in enumerate(reports)]
        with pytest.raises(ValueError, match="report 1 is neither a UtilityReport"):
            compute_bid_trace([reports[0], columns[1], reports[2]], sched, APPROX)

    @pytest.mark.parametrize("again", [
        "same", F(1, 2), 0.5,
    ], ids=["same-object", "equal-fraction", "equal-float"])
    def test_column_values_shares_a_b_a(self, again):
        # buyer 0 holds A = 1/2 in {0,1}, B = 1/4 in {0,2}, and A again in
        # {0,1,2}: the same object, an equal Fraction or the equal float.  Read
        # as A, B, A and as A, A, B, each ratio is the lane of the share's
        # fresh value over the payment share, in value and type
        a = F(1, 2)
        third = a if again == "same" else again
        sched = TableSchedule(3, {
            0b001: ((1, 0, 0), (1, 0, 0)), 0b010: ((0, 1, 0), (0, 1, 0)),
            0b100: ((0, 0, 1), (0, 0, 1)), 0b110: ((0, a, a), (0, a, a)),
            0b011: ((a, F(1, 2), 0), (F(1, 3), F(2, 3), 0)),
            0b101: ((F(1, 4), 0, F(3, 4)), (F(1, 5), 0, F(4, 5))),
            0b111: ((third, F(1, 4), F(1, 4)), (F(1, 7), F(3, 7), F(3, 7))),
        })
        knots = UtilityReport(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1))))
        for report in (ClosedFormUtility.linear(F(2)), ClosedFormUtility.power(1, F(1, 2)), knots):
            for policy in (EXACT, APPROX):
                for reads in ((0b011, 0b101, 0b111), (0b011, 0b111, 0b101)):
                    column = RatioColumn(sched, policy, 0, report)
                    for mask in reads:
                        pair = sched.shares_for(mask)
                        fresh = policy.lane(report.value_at(pair.resource[0]) / pair.payment[0])
                        assert same_numbers([column[mask]], [fresh]), (report, policy, reads, mask)

    def test_column_values_a_ranked_share_once_per_run(self, monkeypatch):
        # buyer 2, ranked last, keeps its base share in {0,1,2} and {1,2},
        # and takes everything in {2}: two values for three subsets
        sched = RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)))
        report = UtilityReport(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1), F(1))))
        valued = []
        value_at = UtilityReport.value_at
        monkeypatch.setattr(UtilityReport, "value_at", lambda self, x: valued.append(x) or value_at(self, x))
        column = RatioColumn(sched, EXACT, 2, report)
        assert [column[mask] for mask in (0b111, 0b110, 0b100)] == [F(2), F(2), F(1)]
        assert valued == [F(1, 4), F(1)]


class TestBidSteps:
    """compute_bid_trace keeps every step of the one loop, bid_steps."""

    @staticmethod
    def rational_reports(sched):
        return [
            random_concave_utility(seed, sched.share_points(i), F(2))
            for i, seed in enumerate((3, 5, 8))
        ]

    @pytest.mark.parametrize("start", [None, 0b011, 0b100])
    def test_trace_is_every_step(self, start):
        sched = equal3()
        for policy, reports in ((EXACT, self.rational_reports(sched)),
                                (APPROX, worked_reports(sched))):
            columns = [RatioColumn(sched, policy, i, r) for i, r in enumerate(reports)]
            trace = compute_bid_trace(reports, sched, policy, start)
            assert trace == BidTrace(tuple(bid_steps(columns, policy, start or full_mask(3))))
            assert trace.steps[0].subset == (start or full_mask(3))

    def test_columns_built_once_serve_every_start(self):
        # the coalition scan's use: one set of columns read by many runs, in
        # any order, each giving the checked entry's trace from its start
        sched = equal3()
        starts = [0b001, 0b011, full_mask(3), 0b110, 0b100]
        for policy, reports in ((EXACT, self.rational_reports(sched)),
                                (APPROX, worked_reports(sched))):
            columns = [RatioColumn(sched, policy, i, r) for i, r in enumerate(reports)]
            for start in starts:
                steps = tuple(bid_steps(columns, policy, start))
                assert steps == compute_bid_trace(reports, sched, policy, start).steps

    def test_checks_raise_by_the_first_step(self):
        sched = equal3()
        reports = worked_reports(sched)
        bad = [
            ((reports[:2], sched, APPROX), "2 reports for a 3-buyer schedule"),
            (([reports[0], reports[1], "x"], sched, APPROX), "neither a UtilityReport"),
            ((reports, sched, APPROX, 0), "start subset must be non-empty"),
            ((reports, sched, APPROX, 0b1000), "start subset outside the buyer range"),
        ]
        for args, message in bad:
            with pytest.raises(ValueError, match=message):
                compute_bid_trace(*args)

    def test_equal_infinite_ratios_leave_in_one_step(self):
        # every ratio rounds to inf in the tolerance lane; eq(inf, inf) holds,
        # so the first step removes all three (islice stops a loop that would not)
        sc = load_scenario(FLOAT_RANGE_SCENARIOS["power-1.7e308"])
        assert not sc.policy.exact
        columns = [RatioColumn(sc.schedule, sc.policy, i, r) for i, r in enumerate(sc.reports)]
        steps = list(itertools.islice(bid_steps(columns, sc.policy, full_mask(sc.n)), sc.n + 1))
        assert steps == [BidStep(0b111, math.inf, 0b111)]


class TestReferenceTable:
    """Ranked vs cross-monotonic traces on the power-utility trio."""

    ORDER = (0, 1, 2)
    BASE = (F(1, 2), F(1, 4), F(1, 4))

    def reports(self, *scheds):
        forms = [
            ClosedFormUtility.power(1, F(1, 4)),
            ClosedFormUtility.power(1, F(1, 3)),
            ClosedFormUtility.power(1, F(1, 2)),
        ]
        return [
            sample_report(f, {p for s in scheds for p in s.share_points(i)})
            for i, f in enumerate(forms)
        ]

    def test_ranked_sqrt_trace(self):
        sched = RankedSchedule(self.ORDER, self.BASE, sqrt_weight())
        trace = compute_bid_trace(self.reports(sched), sched, APPROX)
        assert [s.subset for s in trace.steps] == [0b111, 0b011, 0b010]
        got = [s.max_payment for s in trace.steps]
        # smallest of the three value/payment-share ratios, worked out per step
        assert got[0] == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-9)
        assert got[1] == pytest.approx((3 / 4) ** 0.25 * (1 + math.sqrt(3)) / math.sqrt(3), abs=1e-9)
        assert got[2] == pytest.approx(1, abs=1e-12)
        assert trace.group_bid == pytest.approx(1.707, abs=1e-3)

    def test_cross_monotonic_twin_trace(self):
        sched = CrossMonotonicSchedule(3, rras_resource_table(self.ORDER, self.BASE))
        trace = compute_bid_trace(self.reports(sched), sched, APPROX)
        assert [s.subset for s in trace.steps] == [0b111, 0b110, 0b100]
        got = [s.max_payment for s in trace.steps]
        assert got[0] == pytest.approx(2 ** 0.75, abs=1e-9)
        assert got[1] == pytest.approx((3 / 4) ** (-2 / 3), abs=1e-9)
        assert got[2] == pytest.approx(1, abs=1e-12)


class TestAllocate:
    """The group run's division at a fixed price."""

    def test_low_price_whole_group(self):
        outcome = run_at_price(worked_reports(), equal3(), F(3, 5), APPROX)
        assert outcome.purchased and outcome.winning_set == 0b111
        assert [float(p) for p in outcome.payments] == [0.2, 0.2, 0.2]

    def test_higher_price_drops_bottleneck_buyer(self):
        outcome = run_at_price(worked_reports(), equal3(), F(9, 10), APPROX)
        assert outcome.winning_set == 0b011
        assert [float(p) for p in outcome.payments] == [0.45, 0.45, 0.0]
        assert outcome.fractions[2] == 0

    def test_price_above_bid_buys_nothing(self):
        trace = compute_bid_trace(worked_reports(), equal3(), APPROX)
        outcome = run_at_price(worked_reports(), equal3(), trace.group_bid + 1, APPROX)
        assert outcome == AllocationOutcome.not_purchased(3)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_at_price(worked_reports(), equal3(), -1, APPROX)

    def test_budget_balance_exact(self):
        reps = [
            random_concave_utility(seed, EqualSplitSchedule(4).share_points(i), F(2))
            for i, seed in enumerate((11, 12, 13, 14))
        ]
        sched = EqualSplitSchedule(4)
        price = compute_bid_trace(reps, sched).steps[0].max_payment
        outcome = run_at_price(reps, sched, price)
        assert sum(outcome.payments) == price
        assert sum(outcome.fractions) == 1

    def test_budget_balance_with_float_payment_shares(self):
        # sqrt-weighted payment shares are floats; the sum stays within n*eps
        sched = RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight())
        reps = [
            random_concave_utility(seed, sched.share_points(i), F(2))
            for i, seed in enumerate((21, 22, 23))
        ]
        trace = compute_bid_trace(reps, sched, APPROX)
        outcome = run_at_price(reps, sched, F(1, 2) * trace.group_bid, APPROX)
        assert outcome.purchased
        assert abs(sum(outcome.payments) - outcome.price) <= 3e-9

    @pytest.mark.parametrize("sched", [
        equal3(), RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)))
    ])
    def test_float_price_divides_as_the_exact_shares_would(self, sched):
        # equal-split thirds and a ranked identity table: Fraction shares
        reps = worked_reports(sched)
        bid = compute_bid_trace(reps, sched, APPROX).group_bid
        for price in (bid, 0.1, 2 / 3, math.pi / 7):
            outcome = run_at_price(reps, sched, price, APPROX)
            assert outcome.purchased
            shares = sched.shares_for(outcome.winning_set)
            assert outcome.payments == tuple(price * y for y in shares.payment)
            assert all(type(p) is float for p in outcome.payments)
            assert outcome.fractions == shares.resource
            assert all(type(x) is F for x in outcome.fractions)

    def test_individual_rationality_for_truthful_winners(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randrange(2, 5)
            sched = EqualSplitSchedule(n)
            reps = [
                random_concave_utility(rng.randrange(2**32), sched.share_points(i), F(2))
                for i in range(n)
            ]
            price = compute_bid_trace(reps, sched).group_bid * F(rng.randrange(0, 101), 100)
            outcome = run_at_price(reps, sched, price)
            if outcome.purchased:
                for i in members(outcome.winning_set):
                    assert outcome.payments[i] <= reps[i].value_at(outcome.fractions[i])


class TestFixedPrice:
    def test_worked_fixed_price_example(self):
        outcome = fixed_price_outcome(worked_reports(), equal3(), F(9, 10), APPROX)
        assert outcome.purchased and outcome.winning_set == 0b011
        assert [float(p) for p in outcome.payments] == [0.45, 0.45, 0.0]
        assert outcome.fractions == (F(1, 2), F(1, 2), F(0))

    def test_price_zero_whole_set_free(self):
        outcome = fixed_price_outcome(worked_reports(), equal3(), 0, APPROX)
        assert outcome.winning_set == 0b111
        assert sum(outcome.payments) == 0

    def test_unaffordable_price_no_purchase(self):
        # everyone's value per payment share stays below 3 with these utilities
        outcome = fixed_price_outcome(worked_reports(), equal3(), 10, APPROX)
        assert outcome == AllocationOutcome.not_purchased(3)


class TestRerunFrom:
    """The engine started from a subset instead of the full group."""

    def test_full_start_equals_standard_path(self):
        reps = worked_reports()
        trace = compute_bid_trace(reps, equal3(), APPROX)
        rerun = compute_bid_trace(reps, equal3(), APPROX, start=0b111)
        assert rerun == trace
        for price in (F(3, 5), F(9, 10), F(2)):
            assert divide_at_price(rerun.steps, equal3(), price, APPROX) == run_at_price(
                reps, equal3(), price, APPROX
            )

    def test_removing_the_loser_keeps_the_winners(self):
        reps = worked_reports()
        trace = compute_bid_trace(reps, equal3(), APPROX, start=0b011)
        out = divide_at_price(trace.steps, equal3(), F(9, 10), APPROX)
        assert out.winning_set == 0b011

    def test_starting_at_the_winning_set_reproduces_it(self):
        reps = worked_reports()
        baseline = run_at_price(reps, equal3(), F(9, 10), APPROX)
        trace = compute_bid_trace(reps, equal3(), APPROX, start=baseline.winning_set)
        again = divide_at_price(trace.steps, equal3(), F(9, 10), APPROX)
        assert again.winning_set == baseline.winning_set

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            compute_bid_trace(worked_reports(), equal3(), APPROX, start=0)
        with pytest.raises(ValueError):
            compute_bid_trace(worked_reports(), equal3(), APPROX, start=0b1000)

    def test_winning_set_stable_under_nonwinner_removal(self):
        # removing any set of non-winners from the start leaves the winner alone
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(2, 5)
            sched = EqualSplitSchedule(n)
            reps = [
                random_concave_utility(rng.randrange(2**32), sched.share_points(i), F(2))
                for i in range(n)
            ]
            price = compute_bid_trace(reps, sched).group_bid * F(rng.randrange(0, 121), 100)
            baseline = run_at_price(reps, sched, price)
            losers = full_mask(n) & ~baseline.winning_set
            for removed in nonempty_subsets(losers):
                start = full_mask(n) & ~removed
                if start == 0:
                    continue
                rerun = compute_bid_trace(reps, sched, start=start)
                again = divide_at_price(rerun.steps, sched, price)
                assert again.winning_set == baseline.winning_set


class TestPathEquivalence:
    def test_fixed_price_matches_trace_path_on_worked_example(self):
        reps = worked_reports()
        for price in (0, F(1, 2), F(3, 5), F(87, 100), F(9, 10), 1, F(11, 10)):
            a = run_at_price(reps, equal3(), price, APPROX)
            b = fixed_price_outcome(reps, equal3(), price, APPROX)
            assert a.winning_set == b.winning_set
            assert a.purchased == b.purchased
