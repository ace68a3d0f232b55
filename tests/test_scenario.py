import json
import math
from fractions import Fraction as F

import pytest

from groupbuy.auction import AuctionConfig, run_group_participation
from groupbuy.mechanism import compute_bid_trace
from groupbuy.scenario import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    load_scenario_file,
)
from groupbuy.report import number_to_json, outcome_to_json, trace_to_json
from groupbuy.schedule import EqualSplitSchedule, RankedSchedule, subset_key
from groupbuy.numeric import EXACT, approx
from groupbuy.utility import ClosedFormUtility

from helpers import fixed_price_outcome


def minimal(**overrides):
    data = {
        "buyers": [
            {"kind": "knots", "points": [["0", "0"], ["1/2", "1/2"], ["1", "3/4"]]},
            {"kind": "linear", "c": "1"},
        ],
        "schedule": {"kind": "equal-split"},
        "fixed_price": "0.6",
    }
    data.update(overrides)
    return data


class TestLoading:
    def test_minimal_scenario(self):
        sc = load_scenario(minimal())
        assert sc.n == 2
        assert sc.policy.exact  # knots and linear coefficients are rational
        assert sc.fixed_price == F(3, 5)
        assert sc.auction == AuctionConfig(reserve=F(3, 5))  # no rival bid, ties to the group
        assert isinstance(sc.schedule, EqualSplitSchedule)

    def test_closed_forms_force_tolerance_policy(self):
        data = minimal()
        data["buyers"][1] = {"kind": "power", "c": "1", "k": "1/2"}
        sc = load_scenario(data)
        assert not sc.policy.exact

    def test_exact_refuses_irrational_sampling(self):
        data = minimal()
        data["buyers"][1] = {"kind": "log", "c": "1"}
        refusal = r"a buyer has irrational values \(power k<1 or log\)"
        with pytest.raises(ScenarioError, match=refusal):
            load_scenario(data, force_exact=True)

    def test_irrational_weight_forces_tolerance_policy(self):
        # rational buyers, but x**(1/3) payment shares are floats: the payments
        # only sum to the price within the tolerance
        ranked = {"kind": "rras", "order": [0, 1, 2], "base": ["1/3"] * 3, "f": "power:1/3"}
        data = {
            "buyers": [{"kind": "linear", "c": c} for c in ("2", "3/2", "1")],
            "schedule": ranked,
            "fixed_price": "7/10",
        }
        sc = load_scenario(data)
        assert not sc.policy.exact
        outcome = fixed_price_outcome(sc.reports, sc.schedule, sc.fixed_price, sc.policy)
        assert outcome.purchased and abs(sum(outcome.payments) - F(7, 10)) <= 1e-9
        # the same bound on the path that ``run`` takes
        _, outcome = run_group_participation(sc.reports, sc.schedule, sc.auction, sc.policy)
        assert outcome.purchased and abs(sum(outcome.payments) - F(7, 10)) <= 1e-9
        with pytest.raises(ScenarioError, match="schedule 'primary' has irrational payment"):
            load_scenario(data, force_exact=True)
        with pytest.raises(ScenarioError, match="schedule 'primary' has irrational payment"):
            load_scenario(dict(data, policy={"mode": "exact"}))
        named = dict(data, schedule={"kind": "equal-split"}, schedules={"ranked": ranked})
        assert not load_scenario(named).policy.exact
        with pytest.raises(ScenarioError, match="schedule 'ranked' has irrational payment"):
            load_scenario(named, force_exact=True)
        data["schedule"] = dict(ranked, f="power:1")
        assert load_scenario(data).policy.exact

    def test_closed_forms_evaluated_at_queried_share(self):
        data = minimal()
        data["buyers"][1] = {"kind": "power", "c": "1", "k": "1/2"}
        sc = load_scenario(data)
        form = ClosedFormUtility.power(1, F(1, 2))
        for x in (F(1, 2), F(1)):
            assert sc.reports[1].value_at(x) == form.value_at(x)

    def test_needs_exactly_one_price_source(self):
        data = minimal()
        data["auction"] = {"reserve": "0", "competing_bids": ["0.5"]}
        with pytest.raises(ScenarioError):
            load_scenario(data)
        del data["fixed_price"]
        sc = load_scenario(data)
        assert sc.fixed_price is None and sc.auction.threshold == F(1, 2)

    def test_invalid_knots_anchor_the_message(self):
        data = minimal()
        data["buyers"][0]["points"] = [["0", "0"], ["1/2", "0.3"], ["1", "0.8"]]
        with pytest.raises(ScenarioError, match="not concave at knot 2"):
            load_scenario(data)

    def test_ranked_schedule_stanza(self):
        data = minimal(schedule={
            "kind": "rras", "order": [1, 0], "base": ["1/2", "1/2"], "f": "power:1/3"
        })
        sc = load_scenario(data)
        assert isinstance(sc.schedule, RankedSchedule)
        assert sc.schedule.weight.k == F(1, 3)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(minimal(schedule={"kind": "lottery"}))
        data = minimal()
        data["buyers"][0] = {"kind": "quadratic", "c": "1"}
        with pytest.raises(ScenarioError):
            load_scenario(data)

    def test_bundled_scenarios_load(self):
        for name in ("example1", "example2", "section6-table"):
            sc = load_scenario_file(str(bundled_scenario_path(name)))
            assert sc.n == 3

    def test_missing_file_reports_path(self):
        with pytest.raises(ScenarioError, match="no-such-file"):
            load_scenario_file("no-such-file.json")

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"buyers\": [,]\n}")
        with pytest.raises(ScenarioError, match=r"broken\.json:2"):
            load_scenario_file(str(p))


LONG_KEY = "0," * 2150  # 4,300 characters


@pytest.mark.parametrize("schedule,label", [
    ({"kind": "cmss", "shares": {LONG_KEY: ["1", "abc"]}}, "share row"),
    ({"kind": "cmss", "shares": {LONG_KEY: "10"}}, "share row"),
    ({"kind": "table", "entries": {LONG_KEY: {"x": ["1", "abc"], "y": ["1", "0"]}}}, "entry"),
    ({"kind": "table", "entries": {LONG_KEY: {"x": ["1", "0"]}}}, "entry"),
], ids=["share-row", "non-array-row", "table-entry", "table-entry-field"])
def test_a_long_subset_key_is_quoted_by_its_first_characters(schedule, label):
    with pytest.raises(ScenarioError) as err:
        load_scenario(minimal(schedule=schedule))
    message = str(err.value)
    assert message.startswith(f'schedule: {label} "{"0," * 10}... (4300 characters)"'), message
    assert len(message) < 120


class TestSerialization:
    def test_number_encoding_exact_mode(self):
        enc = number_to_json(F(9, 20), EXACT)
        assert enc == {"decimal": "0.45", "exact": "9/20"}
        assert F(enc["exact"]) == F(9, 20)

    def test_number_encoding_approx_mode(self):
        enc = number_to_json(math.sqrt(0.5), approx())
        assert "exact" not in enc
        assert float(enc["decimal"]) == pytest.approx(math.sqrt(0.5), abs=1e-13)

    def test_outcome_round_trip_bit_exact(self):
        sc = load_scenario(minimal())
        _, outcome = run_group_participation(sc.reports, sc.schedule, sc.auction, sc.policy)
        enc = json.loads(json.dumps(outcome_to_json(outcome, sc.policy)))
        assert enc["purchased"] is outcome.purchased
        assert enc["winning_set"] == subset_key(outcome.winning_set)
        assert [F(v["exact"]) for v in enc["fractions"]] == list(outcome.fractions)
        assert [F(v["exact"]) for v in enc["payments"]] == list(outcome.payments)
        assert F(enc["price"]["exact"]) == outcome.price

    def test_trace_steps_carry_subset_beta_removed(self):
        sc = load_scenario(minimal())
        trace = compute_bid_trace(sc.reports, sc.schedule, sc.policy)
        data = trace_to_json(trace, sc.policy)
        assert set(data["steps"][0]) == {"subset", "beta", "removed"}
        assert data["steps"][0]["subset"] == "0,1"
        assert "bid" in data

    def test_violation_serializers(self):
        from groupbuy.analysis import DeviationViolation, FuzzResult, PreferenceOutcome
        from groupbuy.auction import AuctionConfig, run_group_participation
        from groupbuy.report import violations_to_csv, violations_to_json
        from groupbuy.utility import UtilityReport

        rep = UtilityReport(((F(0), F(0)), (F(1), F(1))))
        violation = DeviationViolation(
            coalition=0b01,
            truthful_reports=(rep,),
            deviant_reports=(rep,),
            config=AuctionConfig(),
            before=(PreferenceOutcome(F(0), False),),
            after=(PreferenceOutcome(F(1, 12), True),),
            uses_tiebreak=False,
        )
        result = FuzzResult((violation,), profiles=10, truncated=False)
        doc = violations_to_json(result, EXACT)
        assert doc["profiles"] == 10
        assert doc["violations"][0]["coalition"] == "0"
        assert doc["violations"][0]["net_after"][0]["exact"] == "1/12"
        csv = violations_to_csv(result).splitlines()
        assert csv[0].startswith("violation,coalition,member")
        assert csv[1].startswith('0,"0",0,0,')

    def test_schedule_dimension_must_match_buyers(self):
        data = minimal(schedule={
            "kind": "rras", "order": [0, 1, 2],
            "base": ["1/2", "1/4", "1/4"], "f": "identity",
        })
        with pytest.raises(ScenarioError, match="3 buyers but the scenario lists 2"):
            load_scenario(data)
