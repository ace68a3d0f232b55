import hashlib
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from groupbuy import analysis
from groupbuy.analysis import (
    BudgetError,
    CoalitionScan,
    PreferenceOutcome,
    compare_schedules,
    concave_report_grid,
    enumerate_coalition_deviations,
    power_report_grid,
    report_menus,
    strictly_prefers,
    weakly_prefers,
)
from groupbuy.auction import GROUP_LOSES, GROUP_WINS, AuctionConfig, run_group_participation
from groupbuy.mechanism import RatioColumn
from groupbuy.numeric import EXACT, approx
from groupbuy.scenario import bundled_scenario_path, load_scenario, load_scenario_file
from groupbuy.schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    ScheduleError,
    SharePair,
    ShareSchedule,
    TableSchedule,
    report_class_for,
    sqrt_weight,
)
from groupbuy.utility import ClosedFormUtility, UtilityReport, sample_report

from helpers import (
    CRITERION_4_BUDGET,
    EXPLOIT_LEVELS,
    EXPLOIT_POWER_MENU,
    check_individual_consistency,
    criterion_4_scans,
    exploit_table,
    exploit_truth,
    filtered_concave_report_grid,
    reference_coalition_scan,
    renormalized_cmss,
    rras_resource_table,
    section6_with_crossing,
)

APPROX = approx()


def worked_reports(sched):
    forms = [
        ClosedFormUtility.linear(1),
        ClosedFormUtility.power(1, F(1, 2)),
        ClosedFormUtility.log(1),
    ]
    return [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]


class TestPreferences:
    def test_net_dominates(self):
        hi = PreferenceOutcome(F(1, 2), False)
        lo = PreferenceOutcome(F(1, 4), True)
        assert strictly_prefers(hi, lo, EXACT)
        assert not strictly_prefers(lo, hi, EXACT)

    def test_tie_rule_engages_only_at_equal_net(self):
        win = PreferenceOutcome(F(0), True)
        lose = PreferenceOutcome(F(0), False)
        assert strictly_prefers(win, lose, EXACT)
        assert weakly_prefers(win, lose, EXACT) and not weakly_prefers(lose, win, EXACT)
        near = PreferenceOutcome(F(1, 10**6), False)
        assert strictly_prefers(near, win, EXACT)

    def test_total_preorder(self):
        outs = [
            PreferenceOutcome(F(0), True),
            PreferenceOutcome(F(0), False),
            PreferenceOutcome(F(1, 2), True),
            PreferenceOutcome(F(-1, 2), False),
        ]
        for a in outs:
            assert weakly_prefers(a, a, EXACT)
            for b in outs:
                assert weakly_prefers(a, b, EXACT) or weakly_prefers(b, a, EXACT)


class HalfShares(ShareSchedule):
    """Equal split of half the resource: no buyer can ever receive all of it."""

    def _compute(self, subset):
        k = subset.bit_count()
        resource = tuple(F(1, 2 * k) if subset >> i & 1 else F(0) for i in range(self.n))
        payment = tuple(F(1, k) if subset >> i & 1 else F(0) for i in range(self.n))
        return SharePair(resource, payment)


FIVE_LEVELS = (0, F(1, 4), F(1, 2), F(3, 4), 1)
MENU_CASES = {
    "equal-split-2": (EqualSplitSchedule(2), FIVE_LEVELS),
    "equal-split-3": (EqualSplitSchedule(3), FIVE_LEVELS),
    "cmss": (CrossMonotonicSchedule(3, rras_resource_table((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)))),
             FIVE_LEVELS),
    # A float base gives float share points, so the menus use the tolerance
    # policy; values k/10 at x = 0.5, 0.7 lie on a line whose float slopes differ.
    "ranked-sqrt": (RankedSchedule((0, 1, 2), (0.5, 0.3, 0.2), sqrt_weight()),
                    tuple(F(k, 10) for k in range(11))),
    "exploit": (exploit_table(), EXPLOIT_LEVELS),
    "criterion-4-eleven": (EqualSplitSchedule(3), tuple(F(k, 10) for k in range(11))),
    "criterion-4-seven": (renormalized_cmss(3, (F(3), F(2), F(1))),
                          tuple(F(k, 6) for k in range(7))),
    "no-point-at-one": (HalfShares(2), FIVE_LEVELS),
}


class TestReportMenus:
    @pytest.mark.parametrize("case", sorted(MENU_CASES))
    def test_pruned_menus_equal_the_filtered_product(self, case):
        sched, levels = MENU_CASES[case]
        got = concave_report_grid(sched, levels=levels)
        want = filtered_concave_report_grid(sched, levels=levels)
        assert [[repr(r.knots) for r in menu] for menu in got] == [
            [repr(r.knots) for r in menu] for menu in want
        ]
        if case == "ranked-sqrt":
            assert any(type(x) is float for menu in got for r in menu for x, _ in r.knots)
        if case == "no-point-at-one":
            assert got == [[], []]
        else:
            assert all(got)

    @pytest.mark.parametrize("sched,explicit", [
        # criterion 4's ranked sqrt legs rr3 and rr2, with the exponents they scanned
        (RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight()),
         lambda s: power_report_grid(s, exponents=(F(1, 8), F(1, 4), F(3, 8), F(1, 2)))),
        (RankedSchedule((0, 1), (F(1, 2), F(1, 2)), sqrt_weight()),
         lambda s: power_report_grid(s, exponents=(F(1, 8), F(1, 4), F(3, 8), F(1, 2)))),
        (EqualSplitSchedule(3), concave_report_grid),
        (RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)),
                        ClosedFormUtility.power(1, F(1, 3))),
         lambda s: power_report_grid(s, exponents=(F(1, 12), F(1, 6), F(1, 4), F(1, 3)))),
    ], ids=["rr3", "rr2", "equal-split", "ranked-power-third"])
    def test_report_menus_are_the_class_grid(self, sched, explicit):
        # entries by repr: knot lists and closed forms alike, number types included
        got, want = report_menus(sched), explicit(sched)
        assert [[repr(r) for r in menu] for menu in got] == [
            [repr(r) for r in menu] for menu in want
        ]

    def test_power_members_equal_at_every_share_point_collapse(self):
        # a lone buyer's only share point is 1, where c*x**k is c at every k:
        # each coefficient keeps its first exponent
        grid = power_report_grid(EqualSplitSchedule(1), coefficients=(0, F(1, 2), 1),
                                 exponents=(F(1, 4), F(1, 2)))
        assert grid == [[ClosedFormUtility.linear(0), ClosedFormUtility.power(F(1, 2), F(1, 4)),
                         ClosedFormUtility.power(1, F(1, 4))]]
        # two buyers share 1/2 too, where the exponents differ
        assert [len(menu) for menu in power_report_grid(
            EqualSplitSchedule(2), coefficients=(0, F(1, 2), 1), exponents=(F(1, 4), F(1, 2))
        )] == [5, 5]

    @pytest.mark.parametrize("sched", [
        EqualSplitSchedule(3),
        MENU_CASES["cmss"][0],
        RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight()),
        RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)),
                       ClosedFormUtility.power(1, F(1, 3))),
    ], ids=["equal-split", "cmss", "ranked-sqrt", "ranked-power-third"])
    def test_menus_lie_in_their_class(self, sched):
        report_class, _ = report_class_for(sched)
        menus = report_menus(sched)
        assert all(menus)
        assert all(report_class.contains(entry) for menu in menus for entry in menu)


class TestUnilateral:
    def test_equal_split_no_profitable_misreport(self):
        # unilateral deviations are the scan's singleton coalitions
        sched = EqualSplitSchedule(3)
        truth = worked_reports(sched)
        grid = concave_report_grid(sched)
        for rival in (F(3, 5), F(9, 10), F(6, 5)):
            result = enumerate_coalition_deviations(
                truth, sched, AuctionConfig(0, (rival,)), grid, policy=APPROX
            )
            assert not result.truncated
            assert result.profiles == math.prod(len(g) + 1 for g in grid) - 1
            assert [v for v in result.violations if v.coalition.bit_count() == 1] == []

    def test_identity_deviation_changes_nothing(self):
        sched = EqualSplitSchedule(3)
        truth = worked_reports(sched)
        cfg = AuctionConfig(0, (F(3, 5),))
        baseline = run_group_participation(truth, sched, cfg, APPROX)[1]
        again = run_group_participation(list(truth), sched, cfg, APPROX)[1]
        assert baseline == again

    def test_underreport_by_slack_winner_changes_nothing(self):
        # buyer 1 shades its report but stays away from every binding ratio
        sched = EqualSplitSchedule(3)
        truth = worked_reports(sched)
        cfg = AuctionConfig(0, (F(3, 5),))
        baseline = run_group_participation(truth, sched, cfg, APPROX)[1]
        shaved = UtilityReport(
            ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1, 2), F(3, 5)), (F(1), F(4, 5)))
        )
        outcome = run_group_participation([truth[0], shaved, truth[2]], sched, cfg, APPROX)[1]
        assert outcome == baseline

    def test_overreport_never_helps_the_dropped_buyer(self):
        sched = EqualSplitSchedule(3)
        truth = worked_reports(sched)
        cfg = AuctionConfig(0, (F(9, 10),))
        base = run_group_participation(truth, sched, cfg, APPROX)[1]
        assert not base.fractions[2] > 0
        grid = concave_report_grid(sched)
        for deviant in grid[2]:
            outcome = run_group_participation([truth[0], truth[1], deviant], sched, cfg, APPROX)[1]
            net = truth[2].value_at(outcome.fractions[2]) - outcome.payments[2]
            assert net <= 1e-12  # unchanged (0) or a strict loss


# the power-menu scan of the exploit table, as the knot-list menus gave it
POWER_SCAN_COALITIONS = [
    (0b001, "scanned", 16), (0b010, "scanned", 16), (0b100, "certified", 16),
    (0b011, "scanned", 256), (0b101, "scanned", 256), (0b110, "scanned", 256),
    (0b111, "scanned", 4096),
]
POWER_SCAN_VIOLATIONS = {0b001: 15, 0b011: 180, 0b101: 15, 0b110: 12, 0b111: 180}
POWER_SCAN_TIEBREAKS = 0
POWER_SCAN_DIGESTS = {
    "exact": "19c93bdabc57273cda94697370168ef545b08d96cf8b88c2a5e078ae080b9c09",
    "approx": "932b784baab14769ca8738625bec2a76201d81f048fb41c1f3977aeaf09d930c",
}


class TestCoalitions:
    def test_four_buyers_raise_schedule_error(self):
        # a limit like every other: ScheduleError, which the CLI maps to exit 2
        sched = EqualSplitSchedule(4)
        truth = [ClosedFormUtility.linear(1)] * 4
        with pytest.raises(ScheduleError, match="deviation enumeration capped at 3 buyers"):
            enumerate_coalition_deviations(truth, sched, AuctionConfig(), [[]] * 4)

    def test_equal_split_two_buyers_fully_enumerated(self):
        sched = EqualSplitSchedule(2)
        truth = [
            sample_report(ClosedFormUtility.linear(1), sched.share_points(0)),
            sample_report(ClosedFormUtility.power(1, F(1, 2)), sched.share_points(1)),
        ]
        grid = concave_report_grid(sched)
        for cfg in (
            AuctionConfig(0, (F(2, 5),)),
            AuctionConfig(0, (F(9, 10),)),
            AuctionConfig(F(1, 2), (F(13, 10),)),
        ):
            result = enumerate_coalition_deviations(truth, sched, cfg, grid, policy=APPROX)
            assert result.violations == ()
            g = [len(m) for m in grid]
            assert result.profiles == g[0] + g[1] + g[0] * g[1]
            assert not result.truncated

    def test_ranked_sqrt_with_power_menus_clean(self):
        sched = RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight())
        forms = [
            ClosedFormUtility.power(1, F(1, 4)),
            ClosedFormUtility.power(1, F(1, 3)),
            ClosedFormUtility.power(1, F(1, 2)),
        ]
        truth = [sample_report(f, sched.share_points(i)) for i, f in enumerate(forms)]
        grid = report_menus(sched)
        result = enumerate_coalition_deviations(
            truth, sched, AuctionConfig(0, (F(13, 10),)), grid, policy=APPROX
        )
        assert result.violations == ()

    def test_non_monotone_table_is_exploitable(self):
        # buyer 0 over-reports a flat ramp, survives the first sweep, and ends
        # in {0,1} where its doubled resource share beats its payment share
        sched = exploit_table()
        truth = exploit_truth()
        cfg = AuctionConfig(0, (F(1, 2),))
        grid = concave_report_grid(sched, levels=EXPLOIT_LEVELS)
        result = enumerate_coalition_deviations(truth, sched, cfg, grid, budget=300_000)
        assert len(result.violations) > 0
        singles = [v for v in result.violations if v.coalition == 0b001]
        assert singles, "expected a unilateral exploit for buyer 0"
        v = singles[0]
        assert not v.uses_tiebreak  # a genuine net gain, not a tie-rule artifact
        assert v.after[0].net > 0 == v.before[0].net

    @pytest.mark.parametrize("policy", [EXACT, APPROX], ids=["exact", "approx"])
    def test_non_monotone_table_scan_is_pinned(self, policy):
        # The whole scan result, pinned: buyer 0 gains 1/12 with any non-zero
        # menu report, alone or with partners who gain 1/60 or break even;
        # nobody wins a share when all report truthfully.  Deviant reports
        # are named by their index in the buyer's menu.
        sched = exploit_table()
        grid = concave_report_grid(sched, levels=EXPLOIT_LEVELS)
        assert [len(menu) for menu in grid] == [9, 10, 10]
        result = enumerate_coalition_deviations(
            exploit_truth(), sched, AuctionConfig(0, (F(1, 2),)), grid, budget=300_000,
            policy=policy,
        )
        assert (result.profiles, result.truncated) == (1209, False)
        gains = {
            0b001: (F(1, 12),),
            0b011: (F(1, 12), F(1, 60)),
            0b101: (F(1, 12), F(0)),
            0b110: (F(1, 60), F(0)),
            0b111: (F(1, 12), F(1, 60), F(0)),
        }
        expected = (
            [(0b001, (a,)) for a in range(1, 9)]
            + [(0b011, (a, b)) for a in range(1, 9) for b in range(1, 10)]
            + [(0b101, (a, 0)) for a in range(1, 9)]
            + [(0b110, (b, 0)) for b in range(1, 10)]
            + [(0b111, (a, b, 0)) for a in range(1, 9) for b in range(1, 10)]
        )
        assert len(result.violations) == len(expected) == 169
        for v, (coalition, picks) in zip(result.violations, expected):
            buyers = [i for i in range(3) if coalition >> i & 1]
            assert v.coalition == coalition
            assert [r.knots for r in v.deviant_reports] == [
                grid[i][k].knots for i, k in zip(buyers, picks)
            ]
            assert not v.uses_tiebreak
            assert [(b.net, b.wins_nonzero) for b in v.before] == [(0, False)] * len(buyers)
            assert [a.wins_nonzero for a in v.after] == [g > 0 for g in gains[coalition]]
            nets = [a.net for a in v.after]
            if policy.exact:
                assert nets == list(gains[coalition])
            else:
                assert all(abs(a - g) <= 1e-12 for a, g in zip(nets, gains[coalition]))

    @pytest.mark.parametrize("policy", [EXACT, APPROX], ids=["exact", "approx"])
    def test_non_monotone_table_power_scan_is_pinned(self, policy):
        # The whole scan over power menus, pinned as the knot-list menus gave
        # it: each violation's coalition, deviant reports (named c^k by the
        # power form whose knot list at the buyer's share points they are; 0
        # for every c = 0),
        # nets by repr, win flags and tie-break flag, in scan order.
        sched = exploit_table()
        grid = power_report_grid(sched, **EXPLOIT_POWER_MENU)
        assert [len(menu) for menu in grid] == [16, 16, 16]
        result = enumerate_coalition_deviations(
            exploit_truth(), sched, AuctionConfig(0, (F(1, 2),)), grid, budget=300_000,
            policy=policy,
        )
        assert (result.profiles, result.truncated) == (4912, False)
        assert [(s.coalition, s.status, s.profiles) for s in result.coalitions] == (
            POWER_SCAN_COALITIONS
        )
        names = {}
        for i in range(3):
            points = sched.share_points(i)
            for c in EXPLOIT_POWER_MENU["coefficients"]:
                for k in EXPLOIT_POWER_MENU["exponents"]:
                    knots = sample_report(ClosedFormUtility.power(c, k), points).knots
                    names.setdefault((i, knots), f"{c}^{k}" if c else "0")
        lines = []
        for v in result.violations:
            buyers = [i for i in range(3) if v.coalition >> i & 1]
            deviants = [names[i, r.knots] for i, r in zip(buyers, v.deviant_reports)]
            outcomes = [(repr(p.net), p.wins_nonzero) for p in v.before + v.after]
            lines.append(f"{v.coalition} {deviants} {outcomes} {v.uses_tiebreak}")
        assert len(lines) == 402
        assert Counter(v.coalition for v in result.violations) == POWER_SCAN_VIOLATIONS
        assert sum(v.uses_tiebreak for v in result.violations) == POWER_SCAN_TIEBREAKS
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == POWER_SCAN_DIGESTS["exact" if policy.exact else "approx"]

    def test_budget_refusal_names_the_estimate(self):
        sched = EqualSplitSchedule(2)
        truth = [
            sample_report(ClosedFormUtility.linear(1), sched.share_points(0)),
            sample_report(ClosedFormUtility.linear(1), sched.share_points(1)),
        ]
        grid = concave_report_grid(sched)
        with pytest.raises(BudgetError) as err:
            enumerate_coalition_deviations(truth, sched, AuctionConfig(), grid, budget=10)
        g = [len(m) for m in grid]
        assert err.value.estimate == g[0] + g[1] + g[0] * g[1]

    def test_one_true_report_per_buyer(self):
        sched = EqualSplitSchedule(2)
        truth = [sample_report(ClosedFormUtility.linear(1), sched.share_points(i)) for i in (0, 1)]
        grid = concave_report_grid(sched)
        for reports in (truth[:1], truth + truth[:1]):
            with pytest.raises(ValueError, match=f"{len(reports)} reports for a 2-buyer schedule"):
                enumerate_coalition_deviations(reports, sched, AuctionConfig(), grid)
        for menus in (grid[:1], grid + grid[:1]):  # and one menu per buyer
            with pytest.raises(ValueError, match="report grid must have one menu per buyer"):
                enumerate_coalition_deviations(truth, sched, AuctionConfig(), menus)

    def test_three_buyer_coalition_sampling_respects_budget(self):
        sched = EqualSplitSchedule(3)
        truth = worked_reports(sched)
        grid = concave_report_grid(sched)
        exhaustive = sum(len(g) for g in grid) + sum(
            len(grid[i]) * len(grid[j]) for i, j in ((0, 1), (0, 2), (1, 2))
        )
        budget = exhaustive + 50
        result = enumerate_coalition_deviations(
            truth, sched, AuctionConfig(0, (F(3, 5),)), grid, budget=budget, policy=APPROX
        )
        assert result.truncated
        assert result.profiles == budget
        assert result.violations == ()


def certified(result):
    return {scan.coalition for scan in result.coalitions if scan.status == "certified"}


def assert_matches_the_reference(args, kwargs):
    """The library scan equals the reference in every field it reports, and
    every certified coalition's full reference scan finds no violation."""
    result = enumerate_coalition_deviations(*args, **kwargs)
    reference = reference_coalition_scan(*args, **kwargs)
    assert replace(result, coalitions=()) == reference
    masks = range(1, 2 ** len(args[0]))
    assert [scan.coalition for scan in result.coalitions] == sorted(
        masks, key=lambda m: (m.bit_count(), m)
    )
    assert sum(scan.profiles for scan in result.coalitions) == result.profiles
    if reference.truncated:
        reference = reference_coalition_scan(*args, **{**kwargs, "budget": 10 ** 9})
        assert not reference.truncated
    assert not {v.coalition for v in reference.violations} & certified(result)
    return result


EXPLOIT_SCANS = [
    pytest.param(policy, tie, id=f"{lane}-{tie}")
    for policy, lane in ((EXACT, "exact"), (APPROX, "approx"))
    for tie in (GROUP_WINS, GROUP_LOSES)
]


class TestCertification:
    @pytest.mark.parametrize("policy,tie", EXPLOIT_SCANS)
    def test_exploit_table_matches_the_reference(self, policy, tie):
        grid = concave_report_grid(exploit_table(), levels=EXPLOIT_LEVELS)
        args = (exploit_truth(), exploit_table(), AuctionConfig(0, (F(1, 2),), tie), grid)
        result = assert_matches_the_reference(args, {"budget": 300_000, "policy": policy})
        # pinned: no outcome improves buyer 2 alone, so only {2} is
        # certified; every coalition with a violation is scanned
        assert len(result.violations) == 169
        assert certified(result) == {0b100}
        assert {v.coalition for v in result.violations} <= {
            scan.coalition for scan in result.coalitions if scan.status == "scanned"
        }
        assert result.evaluated == 1209 - 10

    @pytest.mark.parametrize("policy,tie", EXPLOIT_SCANS)
    def test_exploit_table_sampled_scan_matches_the_reference(self, policy, tie):
        # budget 50 past the one- and two-buyer coalitions: the violating
        # three-buyer coalition is scanned on 50 draws, as the reference draws them
        grid = concave_report_grid(exploit_table(), levels=EXPLOIT_LEVELS)
        args = (exploit_truth(), exploit_table(), AuctionConfig(0, (F(1, 2),), tie), grid)
        result = assert_matches_the_reference(args, {"budget": 359, "seed": 5, "policy": policy})
        assert (result.profiles, result.truncated) == (359, True)
        assert result.coalitions[-1] == CoalitionScan(0b111, "scanned", 50)

    @pytest.mark.parametrize("policy", [EXACT, APPROX], ids=["exact", "approx"])
    def test_exploit_table_power_menus_match_the_reference(self, policy):
        # closed-form menu entries, recorded as knot lists by both scans
        grid = power_report_grid(exploit_table(), **EXPLOIT_POWER_MENU)
        args = (exploit_truth(), exploit_table(), AuctionConfig(0, (F(1, 2),)), grid)
        result = assert_matches_the_reference(args, {"budget": 300_000, "policy": policy})
        assert len(result.violations) == 402
        assert certified(result) == {0b100}

    def test_criterion_4_matches_the_reference(self):
        got = []
        for truth, sched, cfg, grid in criterion_4_scans():
            result = assert_matches_the_reference(
                (truth, sched, cfg, grid), {"budget": CRITERION_4_BUDGET, "policy": APPROX}
            )
            got.append(sorted(certified(result)))
        # pinned: nine two-buyer scans, then five three-buyer ones; the grand
        # coalition is certified in all of them
        assert got == [
            [3], [2, 3], [1, 3], [3], [2, 3], [1, 3], [3], [1, 2, 3], [1, 2, 3],
            [7], [7], [1, 4, 5, 7], [1, 3, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7],
        ]

    def test_certified_sampled_coalition_draws_nothing(self, monkeypatch):
        # the three-buyer coalition is sampled (budget 50 past the exhaustive
        # part) and certified: it covers the remaining budget, runs no profile
        # and leaves the random stream where it was
        sched = EqualSplitSchedule(3)
        grid = concave_report_grid(sched)
        sizes = [len(menu) for menu in grid]
        exhaustive = sum(sizes) + sum(sizes[i] * sizes[j] for i, j in ((0, 1), (0, 2), (1, 2)))
        args = (worked_reports(sched), sched, AuctionConfig(0, (F(3, 5),)), grid)
        kwargs = {"budget": exhaustive + 50, "seed": 7, "policy": APPROX}
        made = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=Recorded))
        result = assert_matches_the_reference(args, kwargs)
        assert (result.profiles, result.truncated) == (exhaustive + 50, True)
        assert result.coalitions[-1] == CoalitionScan(0b111, "certified", 50)
        assert result.coalitions[-1].evaluated == 0
        assert result.evaluated == exhaustive
        assert [rng.getstate() for rng in made] == [random.Random(7).getstate()]


def counted_fills(monkeypatch) -> list:
    """The subsets every ratio column fills from now on, one entry per fill."""
    fills = []
    missing = RatioColumn.__missing__

    def counted(column, subset):
        fills.append(subset)
        return missing(column, subset)

    monkeypatch.setattr(RatioColumn, "__missing__", counted)
    return fills


def exploit_instance():
    """(truth, schedule, concave menus, two configs) on the non-monotone table, freshly built."""
    sched = exploit_table()
    cfgs = (AuctionConfig(0, (F(1, 2),)), AuctionConfig(F(1, 5), (F(3, 10),), GROUP_LOSES))
    return exploit_truth(), sched, concave_report_grid(sched, levels=EXPLOIT_LEVELS), cfgs


def ranked_sqrt_instance():
    """(truth, schedule, power menus, two configs) on ranked sqrt, freshly built."""
    sched = RankedSchedule((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), sqrt_weight())
    truth = [ClosedFormUtility.power(1, k) for k in (F(1, 4), F(1, 3), F(1, 2))]
    return truth, sched, report_menus(sched), (AuctionConfig(0, (F(13, 10),)), AuctionConfig(0, (F(3, 5),)))


class TestInstanceReuse:
    @pytest.mark.parametrize("policy", [EXACT, APPROX], ids=["exact", "approx"])
    @pytest.mark.parametrize("build", [exploit_instance, ranked_sqrt_instance], ids=["exploit", "ranked-sqrt"])
    def test_configs_a_b_a_scan_as_fresh_instances(self, build, policy, monkeypatch):
        truth, sched, grid, (a, b) = build()
        got = [enumerate_coalition_deviations(truth, sched, cfg, grid, policy=policy) for cfg in (a, b)]
        fills = counted_fills(monkeypatch)
        # an equal policy object names the instance too
        got.append(enumerate_coalition_deviations(truth, sched, a, grid, policy=replace(policy)))
        assert fills == []  # the repeated config reads the columns the first one filled
        for cfg, result in zip((a, b, a), got):
            fresh_truth, fresh_sched, fresh_grid, _ = build()
            fresh = enumerate_coalition_deviations(fresh_truth, fresh_sched, cfg, fresh_grid, policy=policy)
            assert repr(result) == repr(fresh)
        assert fills
        if build is exploit_instance:
            assert got[0].violations

    @pytest.mark.parametrize(
        "change", ["grid-rebuilt", "entry-replaced", "schedule-rebuilt", "policy-changed"]
    )
    def test_other_objects_recompile(self, change, monkeypatch):
        # equal content is not the same instance: only identity reuses one
        truth, sched, grid, (cfg, _) = exploit_instance()
        policy = EXACT
        first = enumerate_coalition_deviations(truth, sched, cfg, grid, policy=policy)
        fills = counted_fills(monkeypatch)
        assert enumerate_coalition_deviations(truth, sched, cfg, grid, policy=policy) == first
        assert fills == []
        if change == "grid-rebuilt":
            grid = concave_report_grid(sched, levels=EXPLOIT_LEVELS)
        elif change == "entry-replaced":
            grid[1][0] = UtilityReport(grid[1][0].knots)
        elif change == "schedule-rebuilt":
            sched = exploit_table()
        else:
            policy = APPROX
        got = enumerate_coalition_deviations(truth, sched, cfg, grid, policy=policy)
        assert fills
        fresh_truth, fresh_sched, fresh_grid, _ = exploit_instance()
        assert repr(got) == repr(
            enumerate_coalition_deviations(fresh_truth, fresh_sched, cfg, fresh_grid, policy=policy)
        )


class TestIndividualConsistency:
    def test_strong_buyer_forces_purchase_and_wins(self):
        sched = EqualSplitSchedule(3)
        reports = [
            sample_report(ClosedFormUtility.linear(2), sched.share_points(0)),
            sample_report(ClosedFormUtility.power(1, F(1, 2)), sched.share_points(1)),
            sample_report(ClosedFormUtility.log(1), sched.share_points(2)),
        ]
        assert check_individual_consistency(reports, sched, F(3, 2), APPROX) is None

    def test_vacuous_when_nobody_affords_alone(self):
        sched = EqualSplitSchedule(3)
        assert check_individual_consistency(worked_reports(sched), sched, 5, APPROX) is None

    def test_worked_example_winners_cover_the_strong_buyers(self):
        sched = EqualSplitSchedule(3)
        reports = worked_reports(sched)
        assert check_individual_consistency(reports, sched, F(9, 10), APPROX) is None
        # and indeed exactly buyers 0 and 1 value the whole resource above 0.9
        strong = [i for i in range(3) if reports[i].value_at(F(1)) > F(9, 10)]
        assert strong == [0, 1]

    def test_detects_exclusion_on_a_bad_table(self):
        entries = {
            "0,1": ((0, 1), (F(1, 2), F(1, 2))),
            "0": ((1, 0), (1, 0)),
            "1": ((0, 1), (0, 1)),
        }
        sched = TableSchedule(2, entries)
        reports = [
            UtilityReport(((F(0), F(0)), (F(1), F(1)))),
            UtilityReport(((F(0), F(0)), (F(1), F(4, 5)))),
        ]
        witness = check_individual_consistency(reports, sched, F(3, 5))
        assert witness is not None and witness.buyer == 0 and witness.purchased

    def test_detects_missed_purchase_on_a_bad_table(self):
        entries = {
            "0,1": ((F(1, 2), F(1, 2)), (F(9, 10), F(1, 10))),
            "0": ((1, 0), (1, 0)),
            "1": ((0, 1), (0, 1)),
        }
        sched = TableSchedule(2, entries)
        reports = [
            UtilityReport(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)))),
            UtilityReport(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1, 2)))),
        ]
        witness = check_individual_consistency(reports, sched, F(7, 10))
        assert witness is not None and witness.buyer == 0 and not witness.purchased


class TestCompareSchedules:
    ORDER = (0, 1, 2)
    BASE = (F(1, 2), F(1, 4), F(1, 4))

    def reference_setup(self):
        rras = RankedSchedule(self.ORDER, self.BASE, sqrt_weight())
        cmss = CrossMonotonicSchedule(3, rras_resource_table(self.ORDER, self.BASE))
        forms = [
            ClosedFormUtility.power(1, F(1, 4)),
            ClosedFormUtility.power(1, F(1, 3)),
            ClosedFormUtility.power(1, F(1, 2)),
        ]
        reports = [
            sample_report(f, set(rras.share_points(i)) | set(cmss.share_points(i)))
            for i, f in enumerate(forms)
        ]
        return reports, rras, cmss

    def test_ranked_dominates_its_cross_monotonic_twin(self):
        reports, rras, cmss = self.reference_setup()
        cfg = AuctionConfig(reserve=F(1))
        cmp = compare_schedules(reports, {"rras": rras, "cmss": cmss}, cfg, APPROX)
        assert cmp.dominance[("rras", "cmss")] == "dominates"
        by_name = {run.name: run for run in cmp.runs}
        assert [round(float(s.max_payment), 3) for s in by_name["rras"].trace.steps] == [1.707, 1.468, 1.0]
        assert [round(float(s.max_payment), 2) for s in by_name["cmss"].trace.steps] == [1.68, 1.21, 1.0]
        for run in cmp.runs:
            assert run.outcome.winning_set == 0b111

    @pytest.mark.parametrize("a,b,relation", [
        ("rras", "cmss", "dominates"),
        ("cmss", "rras", "dominated"),
        ("rras", "crossing", "incomparable"),
        ("crossing", "cmss", "incomparable"),
    ])
    def test_bid_vector_relations(self, a, b, relation):
        sc = load_scenario(section6_with_crossing())
        schedules = {name: sc.named_schedules[name] for name in (a, b)}
        cmp = compare_schedules(sc.reports, schedules, sc.auction, sc.policy)
        assert cmp.dominance == {(a, b): relation}

    def test_self_comparison_is_equal(self):
        reports, rras, _ = self.reference_setup()
        cmp = compare_schedules(reports, {"a": rras, "b": rras}, AuctionConfig(reserve=F(1)), APPROX)
        assert cmp.dominance[("a", "b")] == "equal"

    def test_equal_split_equals_renormalized_equal_base(self):
        sched = EqualSplitSchedule(3)
        reports = worked_reports(sched)
        table = {
            mask: EqualSplitSchedule(3).shares_for(mask).resource
            for mask in [0b111, 0b011, 0b101, 0b110, 0b001, 0b010, 0b100]
        }
        twin = CrossMonotonicSchedule(3, table)
        cmp = compare_schedules(
            reports, {"equal": sched, "twin": twin}, AuctionConfig(reserve=F(3, 5)), APPROX
        )
        assert cmp.dominance[("equal", "twin")] == "equal"
        a, b = cmp.runs
        assert [s.subset for s in a.trace.steps] == [s.subset for s in b.trace.steps]

    def test_dimension_mismatch_rejected(self):
        reports, rras, _ = self.reference_setup()
        with pytest.raises(ValueError):
            compare_schedules(
                reports, {"bad": EqualSplitSchedule(2)}, AuctionConfig(reserve=F(1)), APPROX
            )

    @pytest.mark.parametrize("name", ["example1", "example2", "section6-table"])
    def test_each_run_is_the_scenarios_auction(self, name):
        # compare divides only through run_group_participation, in the
        # scenario's own auction (a fixed price is a reserve with no rival)
        sc = load_scenario_file(bundled_scenario_path(name))
        cmp = compare_schedules(sc.reports, sc.named_schedules, sc.auction, sc.policy)
        assert [run.name for run in cmp.runs] == list(sc.named_schedules)
        for run in cmp.runs:
            schedule = sc.named_schedules[run.name]
            trace, outcome = run_group_participation(sc.reports, schedule, sc.auction, sc.policy)
            assert run.trace == trace
            assert run.outcome == outcome
