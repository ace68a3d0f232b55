import csv
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

import groupbuy
from groupbuy.analysis import BudgetError, enumerate_coalition_deviations, report_menus
from groupbuy.auction import AuctionConfig, run_group_participation
from groupbuy.cli import main
from groupbuy.numeric import EXACT, approx, quote
from groupbuy.schedule import ShareSchedule
from groupbuy.scenario import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    load_scenario_file,
)
from groupbuy.report import outcome_to_json
from groupbuy.utility import InvalidReportError

from helpers import (
    EPSILON_EDGE_SCENARIO,
    FLOAT_RANGE_SCENARIOS,
    RANKED_SCENARIOS,
    VALIDATE_SCENARIOS,
    section6_with_crossing,
)


def run_cli(*argv):
    return main(list(argv))


def scenario(name):
    return str(bundled_scenario_path(name))


def knots(*points):
    return {"kind": "knots", "points": [[x, u] for x, u in points]}


# cli-scale seed 11, scenario-49-n9: a ranked sqrt schedule with buyers outside
# its power family, whose trace's last step {8} bears 3.8 > 13/5
SEED11_SCENARIO_49 = {
    "buyers": [
        {"kind": "log", "c": "16/5"},
        {"kind": "power", "c": "6/5", "k": "1/2"},
        knots(("0", "0"), ("1/12", "1/10"), ("11/12", "41/60"), ("1", "7/10")),
        {"kind": "power", "c": "1/2", "k": "1/4"},
        knots(("0", "0"), ("1/6", "37/60"), ("7/12", "61/30"), ("1", "289/120")),
        {"kind": "linear", "c": "7/5"},
        {"kind": "log", "c": "17/10"},
        {"kind": "log", "c": "19/5"},
        {"kind": "linear", "c": "19/5"},
    ],
    "schedule": {
        "kind": "rras",
        "order": [8, 1, 0, 2, 3, 7, 5, 4, 6],
        "base": ["2/15", "1/9", "1/5", "7/45", "4/45", "2/45", "8/45", "1/15", "1/45"],
        "f": "sqrt",
    },
    "fixed_price": "13/5",
}


def exploitable(tmp_path):
    """A non-monotone three-buyer table whose coalition scan finds 104 violations."""
    path = tmp_path / "exploitable.json"
    path.write_text(json.dumps({
        "buyers": [
            knots(("0", "0"), ("1/3", "0.15"), ("1/2", "0.2"), ("2/3", "0.25"), ("1", "0.25")),
            knots(("0", "0"), ("1/3", "0.35"), ("1/2", "0.4"), ("1", "0.4")),
            knots(("0", "0"), ("1/3", "0.15"), ("1/2", "0.15"), ("1", "0.15")),
        ],
        "schedule": {"kind": "table", "entries": {
            "0,1,2": {"x": ["1/3", "1/3", "1/3"], "y": ["1/3", "1/3", "1/3"]},
            "0,1": {"x": ["2/3", "1/3", "0"], "y": ["1/3", "2/3", "0"]},
            "0,2": {"x": ["1/2", "0", "1/2"], "y": ["1/2", "0", "1/2"]},
            "1,2": {"x": ["0", "1/2", "1/2"], "y": ["0", "1/2", "1/2"]},
            "0": {"x": ["1", "0", "0"], "y": ["1", "0", "0"]},
            "1": {"x": ["0", "1", "0"], "y": ["0", "1", "0"]},
            "2": {"x": ["0", "0", "1"], "y": ["0", "0", "1"]},
        }},
        "auction": {"reserve": "0", "competing_bids": ["0.5"]},
    }))
    return str(path)


def ranked_file(tmp_path, name):
    """One of ``RANKED_SCENARIOS``, written to ``tmp_path``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(RANKED_SCENARIOS[name]))
    return str(path)


class TestRun:
    def test_auction_example_text(self, capsys):
        assert run_cli("run", scenario("example2")) == 0
        out = capsys.readouterr().out
        assert "bid 1; win at 0.6; payments 0.2/0.2/0.2" in out
        assert "0.863046" in out

    def test_fixed_price_example_text(self, capsys):
        assert run_cli("run", scenario("example1")) == 0
        out = capsys.readouterr().out
        assert "winners {0,1}" in out
        assert "payments 0.45/0.45/0" in out
        assert "fractions 0.5/0.5/0" in out

    def test_json_report_written(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert run_cli("run", scenario("example2"), "--out", str(out_file), "--format", "json") == 0
        data = json.loads(out_file.read_text())
        assert data["outcome"]["purchased"] is True
        payments = [float(p["decimal"]) for p in data["outcome"]["payments"]]
        assert payments == pytest.approx([0.2, 0.2, 0.2])
        steps = data["trace"]["steps"]
        assert steps[0]["removed"] == "2"

    def test_csv_trace(self, capsys):
        # exactly the step CSV: the summary line goes to stdout only beside an --out file
        assert run_cli("run", scenario("example2"), "--format", "csv") == 0
        assert capsys.readouterr().out == (
            "step,subset,beta,removed\n"
            '1,"0,1,2",0.863046217355343,"2"\n'
            '2,"0,1",1,"0"\n'
            '3,"1",1,"1"\n'
        )

    def test_malformed_knots_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "buyers": [{"kind": "knots",
                        "points": [["0", "0"], ["1/2", "0.3"], ["1", "0.8"]]}],
            "schedule": {"kind": "equal-split"},
            "fixed_price": "0.5",
        }))
        assert run_cli("run", str(bad)) == 2
        assert "not concave at knot 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert run_cli("run", "nowhere.json") == 2

    @pytest.mark.parametrize("content,message", [
        (b'\xff{"buyers": []}', "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"fixed_price": ' + b"1" * 4301 + b"}", "integer of 4301 digits, beyond the limit of 4300\n"),
        (b"[" * 2000 + b"]" * 2000, "JSON nested too deeply"),
        (b"[]", "scenario: not a JSON object\n"),
    ], ids=["not-utf-8", "4301-digits", "2000-deep", "not-an-object"])
    def test_malformed_file_exit_2_naming_its_path(self, tmp_path, capsys, content, message):
        path = tmp_path / "malformed.json"
        path.write_bytes(content)
        assert run_cli("run", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")

    def test_json_syntax_error_names_path_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "syntax.json"
        path.write_text('{"buyers":\n  ]}')
        assert run_cli("run", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}:2:3: Expecting value\n"

    def test_report_error_of_the_library_is_internal(self, capsys, monkeypatch):
        # input never raises InvalidReportError past the loader, which names
        # it as a ScenarioError; one from a report the library built is a fault
        def planted(*args, **kwargs):
            raise InvalidReportError("planted")

        monkeypatch.setattr(groupbuy.cli, "run_group_participation", planted)
        assert run_cli("run", scenario("example2")) == 1
        assert capsys.readouterr().err == "internal error: planted\n"

    def test_incomplete_tables_exit_2(self, tmp_path, capsys):
        # knot buyers are not sampled at load, and this trace never reaches {1}
        buyers = [{"kind": "knots", "points": [["0", "0"], ["1", "1"]]}] * 2
        schedules = [
            {"kind": "table", "entries": {
                "0,1": {"x": ["1/2", "1/2"], "y": ["1/2", "1/2"]},
                "0": {"x": ["1", "0"], "y": ["1", "0"]},
            }},
            {"kind": "cmss", "shares": {"0,1": ["1/2", "1/2"], "0": ["1", "0"]}},
        ]
        for k, schedule in enumerate(schedules):
            path = tmp_path / f"incomplete{k}.json"
            path.write_text(json.dumps(
                {"buyers": buyers, "schedule": schedule, "fixed_price": "1/2"}
            ))
            assert run_cli("run", str(path)) == 2
            assert "no shares defined for subset {1}" in capsys.readouterr().err

    def test_subset_listed_twice_exit_2(self, tmp_path, capsys):
        # "0,1" and "1,0" are one subset; the later row used to win silently
        buyers = [{"kind": "linear", "c": "1"}] * 2
        rows = {"0,1": ["1/2", "1/2"], "1,0": ["9/10", "1/10"], "0": ["1", "0"], "1": ["0", "1"]}
        schedules = [
            {"kind": "cmss", "shares": rows},
            {"kind": "table", "entries": {k: {"x": v, "y": v} for k, v in rows.items()}},
        ]
        for k, schedule in enumerate(schedules):
            path = tmp_path / f"twice{k}.json"
            path.write_text(json.dumps(
                {"buyers": buyers, "schedule": schedule, "fixed_price": "1/2"}
            ))
            assert run_cli("run", str(path)) == 2
            assert "subset {0,1} listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            # the literal key "0,1" twice: a JSON reader would keep the later row
            ('{"buyers": [{"kind": "linear", "c": "1"}, {"kind": "linear", "c": "1"}],'
             ' "schedule": {"kind": "cmss", "shares": {"0,1": ["1/2", "1/2"],'
             ' "0,1": ["9/10", "1/10"], "0": ["1", "0"], "1": ["0", "1"]}},'
             ' "fixed_price": "1/2"}', "0,1"),
            ('{"buyers": [{"kind": "linear", "c": "1", "c": "2"}],'
             ' "schedule": {"kind": "equal-split"}, "fixed_price": "1/2"}', "c"),
            ('{"buyers": [{"kind": "linear", "c": "1"}], "schedule": {"kind": "equal-split"},'
             ' "fixed_price": "1/2", "fixed_price": "1"}', "fixed_price"),
            ('{"buyers": [{"kind": "linear", "c": "1"}], "schedule": {"kind": "equal-split"},'
             ' "fixed_price": "1/2", "%s": 1, "%s": 2}' % (("k" * 4300,) * 2), "k" * 4300),
        ],
        ids=["cmss-row", "buyer-field", "top-level", "long-key"],
    )
    def test_duplicate_json_keys_exit_2(self, tmp_path, capsys, text, key):
        path = tmp_path / "duplicate.json"
        path.write_text(text)
        assert run_cli("run", str(path)) == 2
        captured = capsys.readouterr()
        assert f"duplicate key {quote(key)}\n" in captured.err
        assert "payments" not in captured.out

    @pytest.mark.parametrize("name", ["power-1.7e308", "knots-1.7e308", "knots-1.7e308-exact"])
    def test_a_bid_past_the_float_range_shows_as_inf(self, tmp_path, capsys, name):
        # every number parses as a finite float; the bid u/y does not, and every
        # command finishes with the bid shown as inf
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FLOAT_RANGE_SCENARIOS[name]))
        bids = {
            "text": lambda out: out.splitlines()[1].split()[2],
            "json": lambda out: json.loads(out)["trace"]["bid"]["decimal"],
            "csv": lambda out: list(csv.reader(io.StringIO(out)))[1][2],
        }
        for fmt, bid in bids.items():
            assert run_cli("run", str(path), "--format", fmt) == 0
            assert bid(capsys.readouterr().out) == "inf"
        for command in ("fuzz", "compare", "validate-schedule"):
            assert run_cli(command, str(path)) == 0
        assert "  inf  " in capsys.readouterr().out  # compare's max_payment column

    def test_exact_strings_past_4300_digits(self, tmp_path, capsys):
        path = tmp_path / "tiny-price.json"
        path.write_text(json.dumps(FLOAT_RANGE_SCENARIOS["fixed-price-1e-4300"]))
        assert run_cli("run", str(path), "--format", "json") == 0
        price = json.loads(capsys.readouterr().out)["outcome"]["price"]
        assert price == {"decimal": "0", "exact": "1/1" + "0" * 4300}

    def test_irrational_weight_runs_in_tolerance_lane(self, tmp_path, capsys):
        path = tmp_path / "ranked_power.json"
        scenario = {
            "buyers": [{"kind": "linear", "c": c} for c in ("2", "3/2", "1")],
            "schedule": {"kind": "rras", "order": [0, 1, 2], "base": ["1/3"] * 3,
                         "f": "power:1/3"},
            "fixed_price": "7/10",
        }
        path.write_text(json.dumps(scenario))
        assert run_cli("run", str(path), "--format", "json") == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert "exact" not in outcome["price"]
        paid = sum(float(p["decimal"]) for p in outcome["payments"])
        assert paid == pytest.approx(0.7, abs=1e-9)
        assert run_cli("run", str(path), "--exact") == 2
        assert "irrational payment shares" in capsys.readouterr().err
        path.write_text(json.dumps(dict(scenario, policy={"mode": "exact"})))
        assert run_cli("run", str(path)) == 2


    def write(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    def two_buyers(self, **overrides):
        data = {
            "buyers": [{"kind": "linear", "c": "1"}, {"kind": "linear", "c": "2"}],
            "schedule": {"kind": "equal-split"},
            "fixed_price": "1/2",
        }
        data.update(overrides)
        return data

    def test_non_object_auction_exit_2(self, tmp_path, capsys):
        data = self.two_buyers(auction=5)
        del data["fixed_price"]
        assert run_cli("run", self.write(tmp_path, data)) == 2
        assert 'scenario: "auction" must be a JSON object' in capsys.readouterr().err

    def test_non_object_policy_exit_2(self, tmp_path, capsys):
        assert run_cli("run", self.write(tmp_path, self.two_buyers(policy=5))) == 2
        assert 'scenario: "policy" must be a JSON object' in capsys.readouterr().err

    def test_non_object_schedules_exit_2(self, tmp_path, capsys):
        assert run_cli("run", self.write(tmp_path, self.two_buyers(schedules=[]))) == 2
        assert 'scenario: "schedules" must be a JSON object' in capsys.readouterr().err

    ROWS = {"0,1": ["1/2", "1/2"], "0": ["1", "0"], "1": ["0", "1"]}
    ENTRIES = {key: {"x": row, "y": row} for key, row in ROWS.items()}
    # (id, overrides, the refusal up to its quote's first 20 characters): each
    # refusal quotes a value of 4,300 characters
    LONG_VALUES = [
        ("fixed_price", {"fixed_price": "1" * 4300}, f"fixed_price: not a finite float: '{'1' * 19}"),
        ("fixed_price_garbage", {"fixed_price": "x" * 4300},
         f"fixed_price: cannot parse number '{'x' * 19}"),
        ("schedule_kind", {"schedule": {"kind": "k" * 4300}},
         f'schedule: "kind" must be one of equal-split, cmss, rras, table, not \'{"k" * 19}'),
        ("top_level_field", {"q" * 4300: 1}, f"scenario: unknown field '{'q' * 19}"),
        ("auction_field", {"auction": {"q" * 4300: 1}}, f"auction: unknown field '{'q' * 19}"),
        ("policy_mode", {"policy": {"mode": "m" * 4300}}, f"policy: unknown mode '{'m' * 19}"),
        ("seed", {"seed": "0." + "1" * 4298}, f"seed must be an integer, not '0.{'1' * 17}"),
        ("rras_f", {"schedule": {"kind": "rras", "order": [0, 1], "base": ["1/2", "1/2"], "f": "w" * 4300}},
         f"schedule: unknown weight function '{'w' * 19}"),
        ("rras_order", {"schedule": {"kind": "rras", "order": ["r" * 4300, 0], "base": ["1/2", "1/2"]}},
         f"schedule: rank order entries must be ints, not '{'r' * 19}"),
        ("tie_policy", {"auction": {"tie_policy": "t" * 4300}}, f"auction: unknown tie policy '{'t' * 19}"),
        ("schedules_name", {"schedules": {"n" * 4300: {"kind": "equal-split", "n": 2}}},
         f"schedule '{'n' * 19}"),
        ("cmss_key", {"schedule": {"kind": "cmss", "shares": {"9" * 4300: ["1/2", "1/2"], **ROWS}}},
         f"schedule: buyer index {'9' * 20}"),
    ]

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # a string is read character by character: rival bids 0 and 5
            ({"auction": {"competing_bids": "05"}, "fixed_price": None},
             'auction: "competing_bids" must be a JSON array'),
            ({"schedule": {"kind": "rras", "order": "10", "base": ["1/2", "1/2"]}},
             'schedule: "order" must be a JSON array'),
            ({"schedule": {"kind": "rras", "order": [1.7, 0.2], "base": ["1/2", "1/2"]}},
             "schedule: rank order entries must be ints, not 1.7"),
            ({"schedule": {"kind": "rras", "order": [True, False], "base": ["1/2", "1/2"]}},
             "schedule: rank order entries must be ints, not True"),
            ({"schedule": {"kind": "rras", "order": ["1", "0"], "base": ["1/2", "1/2"]}},
             "schedule: rank order entries must be ints, not '1'"),
            ({"schedule": {"kind": "rras", "order": [0, 1], "base": "10"}},
             'schedule: "base" must be a JSON array'),
            ({"schedule": {"kind": "rras", "order": [0, 1], "base": ["1/2", "1/2"], "f": 5}},
             'schedule: "f" must be a JSON string'),
            ({"buyers": [{"kind": "knots", "points": "01"}, {"kind": "linear", "c": "1"}]},
             'buyer 0: "points" must be a JSON array'),
            ({"buyers": [{"kind": "knots", "points": [["0", "0"], "11"]},
                         {"kind": "linear", "c": "1"}]},
             'buyer 0: each knot of "points" must be a JSON array'),
            ({"buyers": [{"kind": "knots", "points": [["0", "0", "1"], ["1", "1"]]},
                         {"kind": "linear", "c": "1"}]},
             'buyer 0: each knot of "points" must be a pair [x, u], not a list of 3'),
            ({"buyers": [{"kind": "knots", "points": [["0", "0"], ["1"]]},
                         {"kind": "linear", "c": "1"}]},
             'buyer 0: each knot of "points" must be a pair [x, u], not a list of 1'),
            ({"schedule": {"kind": "cmss", "shares": []}},
             'schedule: "shares" must be a JSON object'),
            ({"schedule": {"kind": "cmss", "shares": dict(ROWS, **{"0": "10"})}},
             'schedule: share row "0" must be a JSON array'),
            ({"schedule": {"kind": "table", "entries": []}},
             'schedule: "entries" must be a JSON object'),
            ({"schedule": {"kind": "table",
                           "entries": dict(ENTRIES, **{"0": {"x": "10", "y": ["1", "0"]}})}},
             'schedule: entry "0": "x" must be a JSON array'),
            ({"schedule": {"kind": "table",
                           "entries": dict(ENTRIES, **{"0": {"x": ["1", "0"], "y": "10"}})}},
             'schedule: entry "0": "y" must be a JSON array'),
            # a needed field left out is named, not reported as a bare KeyError
            ({"buyers": [{"kind": "linear"}, {"kind": "linear", "c": "1"}]},
             "buyer 0: missing field 'c'"),
            ({"buyers": [{"kind": "power", "c": "1"}, {"kind": "linear", "c": "1"}]},
             "buyer 0: missing field 'k'"),
            ({"buyers": [{"kind": "knots"}, {"kind": "linear", "c": "1"}]},
             "buyer 0: missing field 'points'"),
            ({"schedule": {"kind": "cmss"}}, "schedule: missing field 'shares'"),
            ({"schedule": {"kind": "rras", "order": [0, 1]}}, "schedule: missing field 'base'"),
            ({"schedule": {"kind": "table"}}, "schedule: missing field 'entries'"),
            ({"schedule": {"kind": "table", "entries": dict(ENTRIES, **{"0": {"x": ["1", "0"]}})}},
             'schedule: entry "0": missing field \'y\''),
            ({"buyers": None}, "scenario: missing field 'buyers'"),
            ({"schedule": None}, "scenario: missing field 'schedule'"),
        ],
        ids=["competing_bids", "order", "order-float", "order-bool", "order-str", "base", "f",
             "points", "knot", "knot-of-3", "knot-of-1", "shares", "share-row",
             "entries", "x", "y",
             "missing-c", "missing-k", "missing-points", "missing-shares", "missing-base",
             "missing-entries", "missing-y", "missing-buyers", "missing-schedule"],
    )
    def test_field_of_the_wrong_json_type_exit_2(self, tmp_path, capsys, overrides, message):
        data = {k: v for k, v in self.two_buyers(**overrides).items() if v is not None}
        assert run_cli("run", self.write(tmp_path, data)) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_schedules_entry_named_primary_exit_2(self, tmp_path, capsys, command):
        # "primary" names the "schedule" stanza; an entry of that name would
        # shadow it in compare while run divides by the stanza
        rras = {"kind": "rras", "order": [0, 1], "base": ["3/4", "1/4"]}
        path = self.write(tmp_path, self.two_buyers(schedules={"primary": rras}))
        assert run_cli(command, path) == 2
        captured = capsys.readouterr()
        assert "schedule name 'primary' is reserved" in captured.err
        assert captured.out == ""

    def test_exact_with_epsilon_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, self.two_buyers())
        assert run_cli("run", path, "--exact", "--epsilon", "0.5") == 2
        captured = capsys.readouterr()
        assert "--exact) and an epsilon (--epsilon) exclude each other" in captured.err
        assert captured.out == ""
        with pytest.raises(ScenarioError, match="exclude each other"):
            load_scenario(self.two_buyers(), force_exact=True, epsilon=0.5)

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.json"
        assert run_cli(command, scenario("example1"), "--format", "json", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "internal error" not in err

    @pytest.mark.parametrize("overrides,flags,message", [
        pytest.param({"fixed_price": "abc"}, (), "fixed_price: cannot parse number 'abc'",
                     id="fixed_price-abc"),
        pytest.param({"fixed_price": [1]}, (), "fixed_price: cannot parse number [1]",
                     id="fixed_price-list"),
        pytest.param({"seed": "abc"}, (), "seed: cannot parse number 'abc'", id="seed-abc"),
        # a share that is no number is named by its row, as a table entry is
        pytest.param({"schedule": {"kind": "cmss", "shares": dict(ROWS, **{"0,1": ["1/2", "abc"]})}},
                     (), 'schedule: share row "0,1": cannot parse number \'abc\'',
                     id="cmss_share-abc"),
        pytest.param({"schedule": {"kind": "table",
                                   "entries": dict(ENTRIES, **{"0,1": {"x": ["1/2", "abc"],
                                                                       "y": ["1/2", "1/2"]}})}},
                     (), 'schedule: entry "0,1": cannot parse number \'abc\'',
                     id="table_share-abc"),
        pytest.param({"seed": 1.5}, (), "seed must be an integer", id="seed-1.5"),
        pytest.param({"policy": {"mode": "approx", "epsilon": "abc"}}, (),
                     "policy: cannot parse number 'abc'", id="policy_epsilon-abc"),
        pytest.param({"policy": {"mode": "approx", "epsilon": True}}, (),
                     "policy: not a number: True", id="policy_epsilon-true"),
        pytest.param({"policy": {"mode": "approx", "epsilon": 0}}, (),
                     "epsilon must be positive", id="policy_epsilon-0"),
        pytest.param({"policy": {"mode": "approx", "epsilon": -1e-9}}, (),
                     "epsilon must be positive", id="policy_epsilon-negative"),
        # a flag's error names the flag, not the file's policy stanza
        pytest.param({}, ("--epsilon", "0"), "--epsilon: epsilon must be positive",
                     id="flag_epsilon-0"),
        pytest.param({}, ("--epsilon", "-1"), "--epsilon: epsilon must be positive",
                     id="flag_epsilon--1"),
        pytest.param({}, ("--epsilon", "nan"), "--epsilon: epsilon must be positive and finite",
                     id="flag_epsilon-nan"),
        pytest.param({}, ("--epsilon", "inf"), "--epsilon: epsilon must be positive and finite",
                     id="flag_epsilon-inf"),
        # an exponent that would build 10**999999999 is rejected before it is built
        pytest.param({"fixed_price": "1e999999999"}, (),
                     "fixed_price: exponent beyond 4300 in magnitude: '1e999999999'",
                     id="fixed_price-1e999999999"),
        # a run of digits past int()'s limit is named by its length, not repeated
        pytest.param({"fixed_price": "1" * 4301}, (),
                     "fixed_price: integer of 4301 digits, beyond the limit of 4300\n",
                     id="fixed_price-4301-digits"),
        pytest.param({"fixed_price": "0." + "1" * 4301}, (),
                     "fixed_price: integer of 4301 digits, beyond the limit of 4300\n",
                     id="fixed_price-4301-decimals"),
        # exact, but beyond any float: the tolerance lane could not compute with it
        pytest.param({"fixed_price": "1e400"}, (), "fixed_price: not a finite float: '1e400'",
                     id="fixed_price-1e400"),
        pytest.param({"auction": {"reserve": "1e400"}}, (),
                     "auction: not a finite float: '1e400'", id="auction_reserve-1e400"),
        pytest.param({"auction": {"competing_bids": ["1e400"]}}, (),
                     "auction: not a finite float: '1e400'", id="auction_bid-1e400"),
        pytest.param({"buyers": [{"kind": "linear", "c": "1e400"}, {"kind": "linear", "c": "2"}]},
                     (), "buyer 0: not a finite float: '1e400'", id="linear_c-1e400"),
        pytest.param({"buyers": [knots(("0", "0"), ("1", "1e400")), {"kind": "linear", "c": "2"}]},
                     (), "buyer 0: not a finite float: '1e400'", id="knot_value-1e400"),
        pytest.param({"buyers": []}, (), 'scenario needs a non-empty "buyers" list',
                     id="buyers-empty"),
        pytest.param({"buyers": [5, {"kind": "linear", "c": "2"}]}, (), "buyer 0: not a JSON object",
                     id="buyer-not-an-object"),
        pytest.param({"policy": {"mode": "fast"}}, (), "policy: unknown mode 'fast'",
                     id="policy_mode-fast"),
        # a raw JSON number in a share row takes parse_number's non-string path
        pytest.param({"schedule": {"kind": "cmss", "shares": dict(ROWS, **{"0,1": [0.5, True]})}},
                     (), 'schedule: share row "0,1": not a number: True', id="cmss_share-true"),
        # a JSON array or object is no key of the rows' parse cache: parse_number names it
        pytest.param({"schedule": {"kind": "cmss", "shares": dict(ROWS, **{"0,1": ["1/2", [1]]})}},
                     (), 'schedule: share row "0,1": cannot parse number [1]', id="cmss_share-array"),
        pytest.param({"schedule": {"kind": "cmss", "shares": dict(ROWS, **{"0,1": [{"a": "1"}]})}},
                     (), 'schedule: share row "0,1": cannot parse number {\'a\': \'1\'}',
                     id="cmss_share-object"),
        pytest.param({"schedule": {"kind": "table", "entries": dict(
            ENTRIES, **{"0,1": {"x": ["1/2", None], "y": ["1/2", [1]]}})}},
                     (), 'schedule: entry "0,1": cannot parse number None', id="table_share-null"),
        pytest.param({"schedule": {"kind": "table", "entries": dict(
            ENTRIES, **{"0,1": {"x": ["1/2", "1/2"], "y": ["1/2", {}]}})}},
                     (), 'schedule: entry "0,1": cannot parse number {}', id="table_share-object"),
        pytest.param({"fixed_price": "-1"}, (),
                     "fixed_price: reserve and bids must be finite and non-negative",
                     id="fixed_price-negative"),
        # an epsilon that would hide a payer's 1/32 share from is_positive
        pytest.param({}, ("--epsilon", "0.5"),
                     "--epsilon: epsilon must be positive and finite and below 1/64, not 0.5",
                     id="flag_epsilon-0.5"),
        pytest.param({"policy": {"epsilon": "1/64"}}, (), "below 1/64, not 0.015625",
                     id="policy_epsilon_alone-1/64"),
        pytest.param({"policy": {"mode": "exact", "epsilon": "1e-3"}}, (),
                     'policy: "mode": "exact" and an "epsilon" exclude each other',
                     id="policy_exact_with_epsilon"),
        pytest.param({"policy": {"mode": "exact", "epsilon": "1e-3"}}, ("--epsilon", "1e-3"),
                     'policy: "mode": "exact" and an "epsilon" exclude each other',
                     id="policy_exact_with_epsilon-flag_epsilon"),
        pytest.param({"policy": {"mode": "approx", "eps": "1e-3"}}, (),
                     "policy: unknown field 'eps'", id="policy_unread_field"),
        pytest.param({"buyers": [{"kind": "linear", "c": "1", "k": "1/2"}, {"kind": "linear", "c": "2"}]},
                     (), "buyer 0: unknown field 'k'", id="linear_unread_k"),
        pytest.param({"buyers": [{"kind": "linear", "c": "1"}, {**knots(("0", "0"), ("1", "1")), "c": "2"}]},
                     (), "buyer 1: unknown field 'c'", id="knots_unread_c"),
        # a misspelt field is rejected, not left at its default
        pytest.param({"polcy": {"mode": "approx"}}, (), "scenario: unknown field 'polcy'",
                     id="top_level_unread_polcy"),
        pytest.param({"auction": {"competing_bid": ["0.6"]}}, (),
                     "auction: unknown field 'competing_bid'", id="auction_unread_competing_bid"),
        pytest.param({"auction": {"competing_bids": ["1"], "tie_polcy": "group_loses"}}, (),
                     "auction: unknown field 'tie_polcy'", id="auction_unread_tie_polcy"),
        pytest.param({"schedule": {"kind": "rras", "order": [0, 1], "base": ["1/2", "1/2"],
                                   "weight": "sqrt"}}, (),
                     "schedule: unknown field 'weight'", id="rras_unread_weight"),
        pytest.param({"schedule": {"kind": "equal-split", "n": 2}}, (),
                     "schedule: unknown field 'n'", id="equal_split_unread_n"),
        pytest.param({"schedule": {"kind": "cmss", "shares": ROWS, "entries": ENTRIES}}, (),
                     "schedule: unknown field 'entries'", id="cmss_unread_entries"),
        pytest.param({"schedule": {"kind": "table",
                                   "entries": dict(ENTRIES, **{"0": {"x": ["1", "0"],
                                                                     "y": ["1", "0"], "z": []}})}},
                     (), 'schedule: entry "0": unknown field \'z\'', id="table_entry_unread_z"),
        pytest.param({"schedules": {"ranked": {"kind": "rras", "order": [0, 1],
                                               "base": ["1/2", "1/2"], "weight": "sqrt"}}}, (),
                     "schedule 'ranked': unknown field 'weight'", id="schedules_entry_unread_weight"),
        pytest.param({"schedules": {"r": {"kind": "rras", "order": [0, 1],
                                          "base": ["1/2", "1/2"], "f": "cube"}}}, (),
                     "schedule 'r': unknown weight function 'cube'", id="schedules_entry_f-cube"),
        # a cmss key names buyer indices only
        pytest.param({"schedule": {"kind": "cmss", "shares": {"0,x": ["1/2", "1/2"], **ROWS}}}, (),
                     "schedule: subset key '0,x': 'x' is no buyer index", id="cmss_key-0,x"),
        pytest.param({"schedule": {"kind": "cmss", "shares": {"0,,1": ["1/2", "1/2"], **ROWS}}}, (),
                     "schedule: subset key '0,,1': '' is no buyer index", id="cmss_key-0,,1"),
        # a value past 40 characters is quoted by its first 20 and its length
        *[pytest.param(overrides, (), f"{start}... (4300 characters)", id=f"{name}-4300")
          for name, overrides, start in LONG_VALUES],
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, overrides, flags, message):
        data = self.two_buyers(**overrides)
        if "auction" in overrides:
            del data["fixed_price"]
        path = self.write(tmp_path, data)
        assert run_cli("run", path, *flags) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.replace(path, "")) < 200

    def test_raw_json_numbers_in_share_rows_run_like_strings(self, tmp_path, capsys):
        rows = {"0,1": [0.25, 0.75], "0": [1, 0], "1": [0, 1]}
        texts = {key: [str(F(str(v))) for v in row] for key, row in rows.items()}
        outputs = []
        for shares in (rows, texts):
            path = self.write(tmp_path, self.two_buyers(schedule={"kind": "cmss", "shares": shares}))
            assert run_cli("run", path, "--format", "json") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert '"exact": "1/4"' in outputs[0]

    def test_policy_epsilon_alone_selects_the_tolerance_lane(self, tmp_path, capsys):
        # rational buyers run exact by default; a file epsilon, with or without
        # "mode": "approx", asks for the tolerance lane, and the flags override it
        for policy in ({"epsilon": "1e-3"}, {"mode": "approx", "epsilon": "1e-3"}):
            path = self.write(tmp_path, self.two_buyers(policy=policy))
            assert run_cli("run", path, "--format", "json") == 0
            assert '"exact"' not in capsys.readouterr().out
            assert load_scenario_file(path).policy == approx(1e-3)
            assert load_scenario_file(path, epsilon=1e-6).policy == approx(1e-6)
            assert run_cli("run", path, "--format", "json", "--exact") == 0
            assert '"exact"' in capsys.readouterr().out
        assert load_scenario(self.two_buyers()).policy == EXACT

    def ranked_linear(self, n):
        return {
            "buyers": [{"kind": "linear", "c": str(F(i + 1, n))} for i in range(n)],
            "schedule": {"kind": "rras", "order": list(range(n))[::-1],
                         "base": [str(F(1, n))] * n, "f": "identity"},
            "auction": {"reserve": "1/4", "competing_bids": ["1/10"]},
        }

    @pytest.mark.parametrize("n", [17, 32])
    def test_closed_form_buyers_run_up_to_32(self, tmp_path, capsys, n):
        # closed forms are evaluated where the trace queries them, so no
        # subset enumeration caps the buyer count below the schedules' 32
        assert run_cli("run", self.write(tmp_path, self.ranked_linear(n)), "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"]["purchased"]
        assert "exact" in report["outcome"]["price"]
        assert sum(F(p["exact"]) for p in report["outcome"]["payments"]) == F(1, 4)

    def test_33_buyers_rejected_at_load(self, tmp_path, capsys):
        assert run_cli("run", self.write(tmp_path, self.ranked_linear(33))) == 2
        assert "buyer count must lie in 1..32" in capsys.readouterr().err

    def test_fixed_price_divides_on_the_trace(self, tmp_path, capsys):
        # the drop-everyone-unaffordable sweep bought nothing here; the trace
        # path, which fuzz runs too, buys with {8}
        path = self.write(tmp_path, SEED11_SCENARIO_49)
        assert run_cli("run", path, "--format", "json") == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert outcome["purchased"] and outcome["winning_set"] == "8"
        assert [p["decimal"] for p in outcome["payments"]] == ["0"] * 8 + ["2.6"]
        assert outcome["price"] == {"decimal": "2.6"}
        sc = load_scenario_file(path)
        _, fuzz_path = run_group_participation(
            sc.reports, sc.schedule, AuctionConfig(reserve=F(13, 5)), sc.policy
        )
        assert outcome_to_json(fuzz_path, sc.policy) == outcome

    def test_out_of_class_buyers_noted_on_stderr(self, tmp_path, capsys):
        path = self.write(tmp_path, SEED11_SCENARIO_49)
        assert run_cli("run", path) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "note: buyer 0 lies outside the power family with exponents 0.125 to 0.5 "
            "(7 such buyers); the incentive guarantees do not cover this run\n"
        )
        for name in ("example1", "example2", "section6-table"):
            assert run_cli("run", scenario(name)) == 0
            assert capsys.readouterr().err == ""


class TestValidateSchedule:
    def test_bundled_scenarios_pass(self, capsys):
        assert run_cli("validate-schedule", scenario("example1")) == 0
        assert "Pass" in capsys.readouterr().out
        assert run_cli("validate-schedule", scenario("section6-table")) == 0
        out = capsys.readouterr().out
        assert "power family" in out and "Pass" in out

    def test_class_reason_names_the_crossing(self, capsys):
        assert run_cli("validate-schedule", scenario("section6-table")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "class: power family with exponents 0.125 to 0.5, since the weight x^0.5 "
            "times 0.707107 lies above x^1 at x = 0.25 and not above it at x = 1"
        )
        assert "monotonicity (power family with exponents 0.125 to 0.5): Pass" in lines
        assert run_cli("validate-schedule", scenario("example1")) == 0
        assert "class:" not in capsys.readouterr().out

    def test_ranked_weights_other_than_sqrt(self, tmp_path, capsys):
        assert run_cli("validate-schedule", ranked_file(tmp_path, "ranked-power-third")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "class: power family with exponents 0.0833333 to 0.333333, since the weight "
            "x^0.333333 times 0.629961 lies above x^1 at x = 0.25 and not above it at x = 1"
        )
        assert "monotonicity (power family with exponents 0.0833333 to 0.333333): Pass" in lines
        assert lines[-1] == "Pass"
        assert run_cli("validate-schedule", ranked_file(tmp_path, "ranked-identity")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("class:") for line in lines)
        assert "monotonicity (concave class): Pass" in lines
        assert lines[-1] == "Pass"

    def test_negative_budget_exit_2(self, capsys):
        with pytest.raises(SystemExit) as stop:
            run_cli("validate-schedule", scenario("example1"), "--budget", "-3")
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert "argument --budget: must be non-negative, not -3" in captured.err
        assert "Pass" not in captured.out

    def test_witness_table_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}, {"kind": "linear", "c": "1"}],
            "schedule": {"kind": "table", "entries": {
                "0,1": {"x": ["1/3", "2/3"], "y": ["2/3", "1/3"]},
                "0": {"x": ["1", "0"], "y": ["1", "0"]},
                "1": {"x": ["0", "1"], "y": ["0", "1"]},
            }},
            "fixed_price": "0.5",
        }))
        assert run_cli("validate-schedule", str(bad)) == 1
        out = capsys.readouterr().out
        assert "Witness" in out and "FAIL" in out

    def test_spot_check_reads_the_scenario_seed(self, tmp_path, capsys):
        # a planted table whose spot-check witness depends on the seed: the
        # file's seed must act like the same --seed
        third = ["1/3"] * 3
        entries = {
            "0,1,2": {"x": third, "y": third},
            "0,1": {"x": ["2/3", "1/3", "0"], "y": ["1/3", "2/3", "0"]},
            "0,2": {"x": ["1/2", "0", "1/2"], "y": ["1/2", "0", "1/2"]},
            "1,2": {"x": ["0", "1/2", "1/2"], "y": ["0", "1/2", "1/2"]},
            "0": {"x": ["1", "0", "0"], "y": ["1", "0", "0"]},
            "1": {"x": ["0", "1", "0"], "y": ["0", "1", "0"]},
            "2": {"x": ["0", "0", "1"], "y": ["0", "0", "1"]},
        }

        def spot_line(seed_in_file, *flags):
            path = tmp_path / f"planted-{seed_in_file}.json"
            path.write_text(json.dumps({
                "buyers": [{"kind": "linear", "c": "1"}] * 3,
                "schedule": {"kind": "table", "entries": entries},
                "fixed_price": "1/2",
                "seed": seed_in_file,
            }))
            assert run_cli("validate-schedule", str(path), *flags) == 1
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if line.startswith("brute-force"))

        assert spot_line(5) == spot_line(0, "--seed", "5")
        assert spot_line(77) == spot_line(0, "--seed", "77")
        assert spot_line(5) != spot_line(77)
        assert spot_line(77, "--seed", "5") == spot_line(5)

    def test_zero_share_note_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "zero_share.json"
        path.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}] * 2,
            "schedule": {"kind": "cmss",
                         "shares": {"0,1": ["1", "0"], "0": ["1", "0"], "1": ["0", "1"]}},
            "fixed_price": "1/2",
        }))
        run_cli("validate-schedule", str(path))
        captured = capsys.readouterr()
        assert captured.err == (
            "note: buyer 1 holds a zero resource share in {0,1} (1 such pairs); "
            "legal, but if that set wins, the buyer is listed among its winners with that share\n"
        )
        assert "note" not in captured.out

    def test_zero_share_note_follows_the_tolerance_rule(self, tmp_path, capsys):
        # buyer 1 holds 1e-12 of {0,1} under epsilon 1e-9: the tolerance lane
        # counts that share as zero, in the note as in run's trace, whose first
        # step removes buyer 0 alone; the exact lane counts it as positive
        path = tmp_path / "tiny_share.json"
        path.write_text(json.dumps(VALIDATE_SCENARIOS["tiny-share"]))
        assert run_cli("validate-schedule", str(path)) == 0
        assert capsys.readouterr().err == (
            "note: buyer 1 holds a zero resource share in {0,1} (1 such pairs); "
            "legal, but if that set wins, the buyer is listed among its winners with that share\n"
        )
        assert run_cli("run", str(path), "--format", "json") == 0
        steps = json.loads(capsys.readouterr().out)["trace"]["steps"]
        assert (steps[0]["subset"], steps[0]["removed"]) == ("0,1", "0")
        assert run_cli("validate-schedule", str(path), "--exact") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name,share", [("zero-share", "0"), ("tiny-share", "1e-12")])
    def test_zero_share_note_is_true_of_run(self, tmp_path, capsys, name, share):
        # the noted set wins at the fixed price, and run lists the noted buyer
        # among its winners with that share, as the note says
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(VALIDATE_SCENARIOS[name]))
        assert run_cli("validate-schedule", str(path)) == 0
        assert capsys.readouterr().err == (
            "note: buyer 1 holds a zero resource share in {0,1} (1 such pairs); "
            "legal, but if that set wins, the buyer is listed among its winners with that share\n"
        )
        assert run_cli("run", str(path), "--format", "json") == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert outcome["winning_set"] == "0,1"
        assert outcome["fractions"][1]["decimal"] == share

    def test_13_buyers_exit_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "thirteen.json"
        path.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}] * 13,
            "schedule": {"kind": "equal-split"},
            "fixed_price": "1/2",
        }))
        assert run_cli("validate-schedule", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cross-monotonicity check capped at 12 buyers\n"

    def test_zero_budget_skips_the_spot_check(self, capsys):
        assert run_cli("validate-schedule", scenario("example1"), "--budget", "0") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "brute-force spot check skipped (budget 0)" in lines
        assert not any("samples)" in line for line in lines)
        assert lines[-1] == "Pass"

    def test_nine_buyers_skip_the_spot_check(self, tmp_path, capsys):
        path = tmp_path / "nine.json"
        path.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}] * 9,
            "schedule": {"kind": "equal-split"},
            "fixed_price": "1/2",
        }))
        assert run_cli("validate-schedule", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "brute-force spot check skipped (more than 8 buyers)" in lines
        assert lines[-1] == "Pass"


class TestFuzz:
    def test_zero_budget_warns_and_passes(self, capsys):
        assert run_cli("fuzz", scenario("example2"), "--budget", "0") == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: budget 0, nothing fuzzed\n"
        assert captured.out == "0 deviation profiles, 0 violations\n"

    def test_zero_budget_report_is_empty(self, tmp_path, capsys):
        empty = {"profiles": 0, "truncated": False, "evaluated": 0, "coalitions": [],
                 "violations": []}
        assert run_cli("fuzz", scenario("example2"), "--budget", "0", "--format", "json") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == empty
        assert captured.err == "warning: budget 0, nothing fuzzed\n"
        out_file = tmp_path / "report.json"
        assert run_cli("fuzz", scenario("example2"), "--budget", "0", "--format", "json",
                       "--out", str(out_file)) == 0
        assert json.loads(out_file.read_text()) == empty
        assert capsys.readouterr().out == "0 deviation profiles, 0 violations\n"

    def test_negative_budget_exit_2(self, capsys):
        with pytest.raises(SystemExit) as stop:
            run_cli("fuzz", scenario("example2"), "--budget", "-3")
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert "argument --budget: must be non-negative, not -3" in captured.err
        assert "budget exceeded" not in captured.err

    @pytest.mark.parametrize("budget", ["0", "5000"])
    def test_four_buyers_exit_2_before_any_share_point(self, tmp_path, capsys, monkeypatch, budget):
        # the cap is checked before the menus walk every buyer's 2^n subsets
        def walked(self, buyer):
            raise AssertionError("share_points called")

        monkeypatch.setattr(ShareSchedule, "share_points", walked)
        path = tmp_path / "four.json"
        path.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}] * 4,
            "schedule": {"kind": "rras", "order": [0, 1, 2, 3], "base": ["1/4"] * 4},
            "fixed_price": "1/2",
        }))
        assert run_cli("fuzz", str(path), "--budget", budget) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: deviation enumeration capped at 3 buyers\n"
        assert captured.out == ""

    def test_clean_run_exit_0(self, capsys):
        assert run_cli("fuzz", scenario("example2"), "--budget", "5000") == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("name,summary", [
        ("ranked-power-third", "5831 deviation profiles, 0 violations"),
        ("ranked-identity", "1403 deviation profiles, 0 violations"),
    ])
    def test_ranked_weights_other_than_sqrt(self, tmp_path, capsys, name, summary):
        assert run_cli("fuzz", ranked_file(tmp_path, name)) == 0
        captured = capsys.readouterr()
        assert captured.out == summary + "\n"
        assert captured.err == ""

    def test_truncated_run_exit_3(self, capsys):
        assert run_cli("fuzz", scenario("example2"), "--budget", "400") == 3
        assert "truncated" in capsys.readouterr().out

    def test_budget_below_the_exhaustive_scan_exit_3_without_a_result(self, capsys):
        sc = load_scenario_file(scenario("example2"))
        with pytest.raises(BudgetError) as caught:
            enumerate_coalition_deviations(sc.reports, sc.schedule, sc.auction,
                                           report_menus(sc.schedule), budget=5, policy=sc.policy)
        assert run_cli("fuzz", scenario("example2"), "--budget", "5") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"budget exceeded: exhaustive scan needs {caught.value.estimate} "
                                f"profiles but the budget is 5\n")

    def test_json_stdout_parses_on_violations(self, tmp_path, capsys):
        assert run_cli("fuzz", exploitable(tmp_path), "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["profiles"] == 728
        assert len(payload["violations"]) == 104

    def test_json_reports_each_coalition_scan(self, capsys):
        # example2: every coalition of one or two buyers is scanned, and the
        # grand coalition is certified, its 512 profiles covered but not run
        assert run_cli("fuzz", scenario("example2"), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["profiles"], payload["evaluated"]) == (728, 216)
        assert payload["coalitions"][-1] == {
            "coalition": "0,1,2", "status": "certified", "profiles": 512, "evaluated": 0,
        }
        assert [c["status"] for c in payload["coalitions"][:-1]] == ["scanned"] * 6
        assert sum(c["profiles"] for c in payload["coalitions"]) == 728

    def test_text_is_summary_then_violation_table(self, tmp_path, capsys):
        path = exploitable(tmp_path)
        assert run_cli("fuzz", path, "--format", "csv") == 1
        table = capsys.readouterr().out
        assert run_cli("fuzz", path) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "728 deviation profiles, 104 violations"
        assert lines[1] == "violation,coalition,member,net_before,net_after,uses_tiebreak"
        assert lines[1:] == table.splitlines()

    def test_violations_written_and_exit_1(self, tmp_path, capsys):
        out_file = tmp_path / "violations.json"
        assert run_cli("fuzz", exploitable(tmp_path), "--out", str(out_file),
                       "--budget", "300000") == 1
        payload = json.loads(out_file.read_text())
        assert payload["violations"]
        assert any(v["coalition"] == "0" for v in payload["violations"])


class TestCompare:
    def test_reference_table_text(self, capsys):
        assert run_cli("compare", scenario("section6-table"), "--schedules", "rras,cmss") == 0
        out = capsys.readouterr().out
        assert "rras dominates cmss" in out
        assert "1.70710678118655" in out
        assert "1.68179283050743" in out

    def test_csv_output(self, capsys):
        assert run_cli("compare", scenario("section6-table"), "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "schedule,step,subset,resource_shares,payment_shares,beta,removed"
        assert len(lines) == 7  # three steps per schedule

    def test_out_under_text_writes_the_json_document(self, tmp_path, capsys):
        assert run_cli("compare", scenario("section6-table"), "--format", "json") == 0
        document = capsys.readouterr().out
        out_file = tmp_path / "compare.json"
        assert run_cli("compare", scenario("section6-table"), "--out", str(out_file)) == 0
        captured = capsys.readouterr()
        assert out_file.read_text() == document
        assert "rras dominates cmss" in captured.out
        assert captured.err == ""

    def test_csv_quotes_schedule_names(self, tmp_path, capsys):
        # a name with a comma or a quote is one RFC 4180 field, its quotes doubled
        with open(scenario("section6-table"), encoding="utf-8") as fh:
            data = json.load(fh)
        names = ["rank, sqrt", 'say "hi"']
        data["schedules"] = dict(zip(names, data["schedules"].values()))
        path = tmp_path / "names.json"
        path.write_text(json.dumps(data))
        assert run_cli("compare", str(path), "--format", "csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [7] * 7
        assert [row[0] for row in rows[1:]] == [names[0]] * 3 + [names[1]] * 3

    def test_schedules_selects_a_quoted_name_with_a_comma(self, tmp_path, capsys):
        # --schedules is one CSV record, so a quoted name keeps its comma
        with open(scenario("section6-table"), encoding="utf-8") as fh:
            data = json.load(fh)
        data["schedules"]["rank, sqrt"] = data["schedules"].pop("rras")
        path = tmp_path / "names.json"
        path.write_text(json.dumps(data))
        argv = ("compare", str(path), "--format", "csv", "--schedules", '"rank, sqrt", cmss')
        assert run_cli(*argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in rows[1:]] == ["rank, sqrt"] * 3 + ["cmss"] * 3

    def test_unknown_name_exit_2(self, capsys):
        assert run_cli("compare", scenario("section6-table"), "--schedules", "nope") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown schedule name(s): nope\n"
        assert captured.out == ""

    def test_json_dominance_names_every_relation(self, tmp_path, capsys):
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps(section6_with_crossing()))
        argv = ("compare", str(path), "--format", "json", "--schedules", "cmss,rras,crossing")
        assert run_cli(*argv) == 0
        assert json.loads(capsys.readouterr().out)["dominance"] == {
            "cmss vs rras": "dominated", "cmss vs crossing": "incomparable",
            "rras vs crossing": "incomparable",
        }

    def test_self_comparison_equal(self, capsys):
        assert run_cli("compare", scenario("section6-table"), "--schedules", "rras,rras") == 0

    def test_tie_policy_decides_as_in_run(self, tmp_path, capsys):
        # the group bids 1 against a rival bid of 1 and loses the tie
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({
            "buyers": [{"kind": "linear", "c": "1"}] * 2,
            "schedule": {"kind": "equal-split"},
            "auction": {"competing_bids": ["1"], "tie_policy": "group_loses"},
        }))
        assert run_cli("run", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "bid 1; lost"
        assert run_cli("compare", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "price 1: primary -> no purchase"
        assert run_cli("compare", str(path), "--format", "json") == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert list(run["outcomes"]) == ["1"]
        assert run["outcomes"]["1"]["purchased"] is False

    def test_epsilon_edge_buys_in_run_compare_and_fuzz(self, tmp_path, capsys):
        # the bid falls short of float(1/3) by at most epsilon and so ties the
        # reserve of 1/3: run and compare see the group buy, and fuzz judges
        # the truthful net, about -1e-9, as the same tie
        path = tmp_path / "edge.json"
        tie = {**EPSILON_EDGE_SCENARIO, "buyers": [{"kind": "linear", "c": "0.33333333233333334"}]}
        path.write_text(json.dumps(tie))
        third = {"decimal": "0.333333333333333"}
        assert run_cli("run", str(path), "--format", "json") == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert outcome["purchased"] is True and outcome["price"] == third
        assert outcome["payments"] == [third]
        assert run_cli("compare", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "price 0.333333: primary -> winners {0}, payments 0.333333"
        )
        assert run_cli("fuzz", str(path), "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []

    def test_epsilon_edge_past_epsilon_loses_in_run_compare_and_fuzz(self, tmp_path, capsys):
        # the bid falls short of float(1/3) by more than epsilon, though the
        # sum bid + epsilon rounds to it: all three commands see no purchase
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(EPSILON_EDGE_SCENARIO))
        assert run_cli("run", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "bid 0.333333; lost"
        assert run_cli("compare", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "price 0.333333: primary -> no purchase"
        assert run_cli("fuzz", str(path), "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []


@pytest.mark.parametrize("command,summary", [
    ("run", "bid 1; win at 0.6; payments 0.2/0.2/0.2\n"),
    ("fuzz", "728 deviation profiles, 0 violations\n"),
    ("compare", "price 0.6: primary -> winners {0,1,2}, payments 0.2/0.2/0.2\n"),
], ids=["run", "fuzz", "compare"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_gets_the_format_and_stdout_the_summary(tmp_path, capsys, command, summary, fmt):
    assert run_cli(command, scenario("example2"), "--format", fmt) == 0
    report = capsys.readouterr().out
    out_file = tmp_path / f"report.{fmt}"
    assert run_cli(command, scenario("example2"), "--format", fmt, "--out", str(out_file)) == 0
    captured = capsys.readouterr()
    assert out_file.read_text() == report
    assert captured.out == summary
    assert captured.err == ""


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--seed", "5"),
    ("run", "--budget", "10"),
    ("compare", "--seed", "5"),
    ("compare", "--budget", "10"),
    ("validate-schedule", "--format", "json"),
    ("validate-schedule", "--out", "v.json"),
])
def test_options_a_command_does_not_read_exit_2(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        run_cli(command, scenario("example1"), flag, value)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_package_root_exports_resolve_and_readme_one_liner_runs(capsys):
    for name in groupbuy.__all__:
        assert getattr(groupbuy, name) is not None, name
    assert main(["run", str(groupbuy.bundled_scenario_path("example2"))]) == 0
    assert "bid 1; win at 0.6" in capsys.readouterr().out


# sha256 of stdout of every report format on the bundled scenarios, and of fuzz
# on the exploitable fixture, recorded before the reports moved into one module.
# Only example2's run json is recorded after, without its "auction" block, and
# the three compare csv, whose share columns now show 15 significant digits.
REPORT_DIGESTS = {
    ("example1", "run", "text"): "e120b574ed76c217bd0afd72b6d72832ff282f1543da26f96d113bf660aa1455",
    ("example1", "run", "json"): "10ddf46158c4a925157e873a6579bb4ee889dd3106cc12e06653aff742e5e90f",
    ("example1", "run", "csv"): "407b5cb32065929685a01429bdb8a2e04e8eac9cf8ab53f23d9394c3dd09d558",
    ("example1", "fuzz", "text"): "ba75ce0b06bf8f02b6ca6c194586ab635780bd7fb73c08cef36769232a7e5c74",
    ("example1", "fuzz", "json"): "72b9a490961b959087ad54fa3bf8c1eef6e2daa3661526111f9f894a6e7c23b0",
    ("example1", "fuzz", "csv"): "a73632cb84605ce572fba33f816fea2b0a89cbd918d2c6da58e06ae5f6cbe9de",
    ("example1", "compare", "text"): "a82bc0287355376af26e749113523ca4d99f9a84dfdec287d3ee3287592e2b8d",
    ("example1", "compare", "json"): "c76ebfdf5ccd437add2496e4a5791a010476fcfe98b37ac1b463306bd490df31",
    ("example1", "compare", "csv"): "5a24e23d66d31af5fe6ac4ef91c106c8f11eb5e36b96cb344b9d6d15ab7ab764",
    ("example2", "run", "text"): "6e3ed93ac23ac2c5a08c4158c4444675c653a3bf933bc6da1c0abfd1c0e6ab41",
    ("example2", "run", "json"): "f74d368feb9c126f6fe60289be603de7ad1776f4b8cbd548a8cd0971e8845fdb",
    ("example2", "run", "csv"): "407b5cb32065929685a01429bdb8a2e04e8eac9cf8ab53f23d9394c3dd09d558",
    ("example2", "fuzz", "text"): "ba75ce0b06bf8f02b6ca6c194586ab635780bd7fb73c08cef36769232a7e5c74",
    ("example2", "fuzz", "json"): "099c343c56203129980e12d9db3b093f3a54cbca68ff8dda509f35862d34134f",
    ("example2", "fuzz", "csv"): "a73632cb84605ce572fba33f816fea2b0a89cbd918d2c6da58e06ae5f6cbe9de",
    ("example2", "compare", "text"): "65b2cefa10e81696c4fcde87698c076be9efa552f22ae8ffe2679ee431339936",
    ("example2", "compare", "json"): "9df2b9a754b396cc1170a5aa8fb8cc9fdcf556c88537cde675336e81338c9aab",
    ("example2", "compare", "csv"): "5a24e23d66d31af5fe6ac4ef91c106c8f11eb5e36b96cb344b9d6d15ab7ab764",
    ("section6-table", "run", "text"): "e0f3aaa62dd5d092662a57de3521ebde866b911ebd3de6578d7126c196e20e4f",
    ("section6-table", "run", "json"): "61c38d867fe71cd952daf2845ebb3216f91ae1775a80ca37c8906edb9ed2f692",
    ("section6-table", "run", "csv"): "9ee795c89bcf627ffcf4d9c6850f5712f0d2a3cfbcdda9f094214f7985b09863",
    ("section6-table", "fuzz", "text"): "5bdb66e32c6ec011032741eaa5a266dc3459d204fc3302fabfc57625b48f41a3",
    ("section6-table", "fuzz", "json"): "45bc17dd52136a9097ae599c9f651c71fa4d3c6d26e3169cc6817463b28c5e61",
    ("section6-table", "fuzz", "csv"): "a73632cb84605ce572fba33f816fea2b0a89cbd918d2c6da58e06ae5f6cbe9de",
    ("section6-table", "compare", "text"): "161b598ce7ec93d01c05d76ec63de8995bfd7f655e2600c53f1f72189ae64e71",
    ("section6-table", "compare", "json"): "381924f0bfb766e044dc52f26fd95c6332a2a2eca8431b8a74313843da591b72",
    ("section6-table", "compare", "csv"): "9847721d9dbf16478612efb181a6fdade1e169426ab5dc544b62229ea5e5b0f3",
    ("exploitable", "fuzz", "text"): "ea9067e3534d08ca64b0f5bdf4c855a912ce7cb09d651dba633ccb3ab37a7414",
    ("exploitable", "fuzz", "json"): "596a200f87663ab4a7c69aa0e4838551a0b5befdd312278b7bfb1806dfe97ee1",
    ("exploitable", "fuzz", "csv"): "ab2dafff0a6b4fdb3e5ff8796965b03dbc0569719d6998b0fa41aac233c92c8c",
}


@pytest.mark.parametrize("name,command,fmt", REPORT_DIGESTS)
def test_report_bytes_are_pinned(tmp_path, capsys, name, command, fmt):
    path = exploitable(tmp_path) if name == "exploitable" else scenario(name)
    assert run_cli(command, path, "--format", fmt) == (1 if name == "exploitable" else 0)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name, command, fmt]


EMPTY = hashlib.sha256(b"").hexdigest()
# (exit code, sha256 of stdout, sha256 of stderr) of validate-schedule on each
# file and flags that take one of its paths, recorded before its lines moved
# into the report module; "tiny-share" was recorded when the zero-share note
# took the tolerance rule, and its note is the zero-share file's; both notes'
# stderr digests were re-recorded when the note came to say what run prints;
# the spot-check constants of "cross-witness", "two-buyer-witness" and
# "planted-5" were re-recorded when the oracle came to draw its random
# concave samples from its own stream
VALIDATE_DIGESTS = {
    ("example1", ""): (0, "4327f5766177d0afd13625092ae14dfe149ef559866e6836f37df6426bc6fb27", EMPTY),
    ("example2", ""): (0, "4327f5766177d0afd13625092ae14dfe149ef559866e6836f37df6426bc6fb27", EMPTY),
    ("section6-table", ""): (
        0, "bd4cd172977d7c16e9c52252c2dc1a30826a3c332f774d86ba4792e7fe5b9a11", EMPTY),
    ("ranked-power-third", ""): (
        0, "be8c3bdd4545836e61a2aa562e3d08128c54145d8505baf21f98c2005a3e23c0", EMPTY),
    ("ranked-identity", ""): (
        0, "4327f5766177d0afd13625092ae14dfe149ef559866e6836f37df6426bc6fb27", EMPTY),
    ("cross-witness", ""): (
        1, "4410f6f57f6c62140659f6749bdd0676beeab8e85f54dffb505884fb3501a94b", EMPTY),
    ("two-buyer-witness", ""): (
        1, "917457f53728c0aa7ed32f59550f204646a83d8144a4ea924b7eefda503543ba", EMPTY),
    ("planted-5", ""): (1, "1c42200c1cb46b86dd555f8cbbb1fc0d89c800a3d388890e6c0a001bc1cf4fd6", EMPTY),
    ("planted-77", ""): (
        1, "53d6bc677760783f9e9a14d82f95726eb235d35111824a6f943b9eeb64c0202d", EMPTY),
    ("zero-share", ""): (
        0, "4327f5766177d0afd13625092ae14dfe149ef559866e6836f37df6426bc6fb27",
        "9204099580c244c63c01f76772de9220854c8663f612667ddf4e3a8c3aae783f"),
    ("tiny-share", ""): (
        0, "4327f5766177d0afd13625092ae14dfe149ef559866e6836f37df6426bc6fb27",
        "9204099580c244c63c01f76772de9220854c8663f612667ddf4e3a8c3aae783f"),
    ("nine-buyers", ""): (
        0, "40079e48caff0a2452aa373d200b054096d34445f5280c541902abe8328fbcf2", EMPTY),
    ("thirteen-buyers", ""): (
        2, EMPTY, "43f12622555eeae6677766a19be2ba87ff860fadde5057cb278f439715c69e74"),
    ("example1", "--budget 0"): (
        0, "35a4ea4cc48cecf047fda2d6a4d36f8d133129d2f3db57339c721555682f9fdd", EMPTY),
    ("section6-table", "--epsilon 1e-6"): (
        0, "bd4cd172977d7c16e9c52252c2dc1a30826a3c332f774d86ba4792e7fe5b9a11", EMPTY),
}


@pytest.mark.parametrize("name,flags", VALIDATE_DIGESTS)
def test_validate_schedule_bytes_are_pinned(tmp_path, capsys, name, flags):
    documents = {**RANKED_SCENARIOS, **VALIDATE_SCENARIOS}
    if name in documents:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(documents[name]))
    else:
        path = scenario(name)
    code = run_cli("validate-schedule", str(path), *flags.split())
    captured = capsys.readouterr()
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (captured.out, captured.err)]
    assert (code, *digests) == VALIDATE_DIGESTS[name, flags]
