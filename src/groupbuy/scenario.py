"""Scenario files: the loader and its stanzas.

A scenario is a UTF-8 JSON document describing buyers, a schedule, and either
an auction environment or a fixed price.  Numbers are decimal strings or
"p/q" rational strings (raw JSON numbers are accepted and read decimally).

Buyer stanzas::

    {"kind": "linear", "c": "1"}
    {"kind": "power",  "c": "1", "k": "1/2"}
    {"kind": "log",    "c": "1"}
    {"kind": "knots",  "points": [["0", "0"], ["1/2", "0.5"], ["1", "1"]]}

Schedule stanzas::

    {"kind": "equal-split"}
    {"kind": "cmss",  "shares": {"0,1": ["1/2", "1/2", "0"], ...}}
    {"kind": "rras",  "order": [0, 1, 2], "base": ["1/2", "1/4", "1/4"], "f": "sqrt"}
    {"kind": "table", "entries": {"0,1": {"x": [...], "y": [...]}, ...}}

Policy stanzas: {"mode": "exact"}, {"mode": "approx"} and {"epsilon": "1e-6"}
(the tolerance lane; with "mode": "approx" too).  Every stanza takes the
fields ``_FIELDS`` lists for it, of their JSON types, and no other field; it
needs each of them but those in ``_OPTIONAL``.  Only ``_malformed`` labels an
error with its stanza ("buyer 0: missing field 'c'").
Subset keys are sorted comma-joined buyer indices ("0,2"); cmss and table
stanzas must list every non-empty subset.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .auction import GROUP_WINS, AuctionConfig
from .numeric import (
    DEFAULT_EPSILON, EXACT, Num, NumericPolicy, approx, check_digits, parse_number, quote, quote_key,
)
from .schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    ShareSchedule,
    TableSchedule,
)
from .utility import ClosedFormUtility, UtilityReport


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    """A parsed scenario: resolved reports, schedules, environment, policy."""

    n: int
    reports: list  # per buyer: UtilityReport (knots) or ClosedFormUtility, evaluated where queried
    schedule: ShareSchedule
    named_schedules: dict  # name -> ShareSchedule (includes the primary as "primary")
    auction: AuctionConfig  # what every command resolves; a fixed price p is AuctionConfig(reserve=p)
    fixed_price: Optional[Num]  # set only by a "fixed_price" file, for how run reports it
    policy: NumericPolicy
    seed: int


@contextmanager
def _malformed(label: str):
    """Re-raise a malformed value met inside the block as a ScenarioError naming ``label``;
    a nested block's error is a ValueError too, so the outer label goes in front."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{label}: {exc}") from exc


_JSON_TYPES = {list: "a JSON array", dict: "a JSON object", str: "a JSON string"}

# Each stanza's fields and their JSON types; a "kind" entry maps each kind to
# its fields.  A number field is any ``object``: parse_number names a bad one.
_FIELDS = {
    "scenario": {"buyers": list, "schedule": dict, "schedules": dict, "auction": dict,
                 "fixed_price": object, "policy": dict, "seed": object},
    "auction": {"reserve": object, "competing_bids": list, "tie_policy": str},
    "policy": {"mode": str, "epsilon": object},
    "buyer": {"kind": {"knots": {"points": list}, "linear": {"c": object},
                       "power": {"c": object, "k": object}, "log": {"c": object}}},
    "schedule": {"kind": {"equal-split": {}, "cmss": {"shares": dict},
                          "rras": {"order": list, "base": list, "f": str},
                          "table": {"entries": dict}}},
    "table entry": {"x": list, "y": list},
}
# The fields a stanza may leave out; it needs every other field ``_FIELDS`` lists.
_OPTIONAL = {"schedules", "auction", "fixed_price", "policy", "seed", "reserve",
             "competing_bids", "tie_policy", "mode", "epsilon", "f"}


def _read(stanza, name: str) -> dict:
    """``stanza`` if a JSON object of the fields ``_FIELDS[name]`` lists, each of its type,
    lacking none outside ``_OPTIONAL``; else a ValueError naming the first field at fault."""
    if not isinstance(stanza, dict):
        raise ValueError(f"not {_JSON_TYPES[dict]}")
    fields = _FIELDS[name]
    if "kind" in fields:
        kind, kinds = stanza.get("kind"), fields["kind"]
        if not (isinstance(kind, str) and kind in kinds):
            raise ValueError(f'"kind" must be one of {", ".join(kinds)}, not {quote(kind)}')
        fields = {"kind": str, **kinds[kind]}
    for key, value in stanza.items():
        if key not in fields:
            raise ValueError(f"unknown field {quote(key)}")
        if not isinstance(value, fields[key]):
            raise ValueError(f'"{key}" must be {_JSON_TYPES[fields[key]]}')
    for key in fields:
        if key not in stanza and key not in _OPTIONAL:
            raise ValueError(f"missing field {key!r}")
    return stanza


def _typed(value, kind: type, what: str):
    """``value`` if of JSON type ``kind``, else a ValueError naming ``what``; for a value in a field."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _knot(point) -> tuple:
    """A knot [x, u] of a ``knots`` buyer as its two numbers."""
    if len(_typed(point, list, 'each knot of "points"')) != 2:
        raise ValueError(f'each knot of "points" must be a pair [x, u], not a list of {len(point)}')
    return parse_number(point[0]), parse_number(point[1])


def _parse_buyer(stanza, index: int):
    """A ``knots`` buyer as a UtilityReport, a closed form as its ClosedFormUtility."""
    with _malformed(f"buyer {index}"):
        stanza = _read(stanza, "buyer")
        kind = stanza["kind"]
        if kind == "knots":
            return UtilityReport(tuple(map(_knot, stanza["points"])))
        if kind == "linear":
            return ClosedFormUtility.linear(parse_number(stanza["c"]))
        if kind == "power":
            return ClosedFormUtility.power(parse_number(stanza["c"]), parse_number(stanza["k"]))
        return ClosedFormUtility.log(parse_number(stanza["c"]))


def _parse_weight(text: str):
    if text == "identity":
        return ClosedFormUtility.linear(1)
    if text == "sqrt":
        return ClosedFormUtility.power(1, Fraction(1, 2))
    if text.startswith("power:"):
        return ClosedFormUtility.power(1, parse_number(text.split(":", 1)[1]))
    raise ValueError(f"unknown weight function {quote(text)}")


class _ParseCache(dict):
    """``parse_number`` of each distinct string, parsed once on its first read.

    A share table repeats its numbers ("0" in every row, most shares in
    several rows); Fractions are immutable, so the rows can share them.  Only
    strings are kept, and no other value equals one.
    """

    def __missing__(self, value):
        if type(value) is not str:
            return parse_number(value)
        number = self[value] = parse_number(value)
        return number


def _numbers(row: list, parsed: _ParseCache, what: str, key) -> tuple:
    """The numbers of a share row, read through ``parsed``.

    Only a row that fails is read again, by ``parse_number`` within the label
    ``what`` and the quoted ``key``, so its error names the first malformed
    value as ``parse_number`` does (a JSON array or object fails the cache's
    read as an unhashable key).
    """
    try:
        return tuple(map(parsed.__getitem__, row))
    except (ValueError, TypeError):
        with _malformed(f"{what} {quote_key(key)}"):
            return tuple(map(parse_number, row))


def parse_schedule(stanza, n: int, label: str = "schedule") -> ShareSchedule:
    """The schedule of a ``schedule`` stanza, or a ScenarioError naming ``label``.

    A share row and a table entry are labelled by their key, through
    :func:`~groupbuy.numeric.quote_key`.
    """
    with _malformed(label):
        stanza = _read(stanza, "schedule")
        kind = stanza["kind"]
        if kind == "equal-split":
            return EqualSplitSchedule(n)
        if kind == "cmss":
            parsed, shares = _ParseCache(), {}
            for key, row in stanza["shares"].items():
                if not isinstance(row, list):
                    raise ValueError(f"share row {quote_key(key)} must be {_JSON_TYPES[list]}")
                shares[key] = _numbers(row, parsed, "share row", key)
            return CrossMonotonicSchedule(n, shares)
        if kind == "rras":
            return RankedSchedule(
                stanza["order"],
                [parse_number(b) for b in stanza["base"]],
                _parse_weight(stanza.get("f", "identity")),
            )
        parsed, entries = _ParseCache(), {}
        for key, cell in stanza["entries"].items():
            with _malformed(f"entry {quote_key(key)}"):
                cell = _read(cell, "table entry")
            entries[key] = tuple(_numbers(cell[axis], parsed, "entry", key) for axis in ("x", "y"))
        return TableSchedule(n, entries)


def _parse_auction(stanza) -> AuctionConfig:
    with _malformed("auction"):
        stanza = _read(stanza, "auction")
        return AuctionConfig(
            reserve=parse_number(stanza.get("reserve", 0)),
            competing_bids=tuple(map(parse_number, stanza.get("competing_bids", []))),
            tie_policy=stanza.get("tie_policy", GROUP_WINS),
        )


def _irrational_input(reports, named_schedules) -> Optional[str]:
    """Why the scenario's numbers cannot all stay rational, or None if they can."""
    if any(isinstance(report, ClosedFormUtility) and not report.rational for report in reports):
        return "a buyer has irrational values (power k<1 or log)"
    for name, sched in named_schedules.items():
        if isinstance(sched, RankedSchedule) and not sched.weight.rational:
            return f"schedule {quote(name)} has irrational payment shares (weight exponent not 1)"
    return None


def load_scenario(
    data: dict,
    force_exact: bool = False,
    epsilon: Optional[float] = None,
    seed: Optional[int] = None,
) -> Scenario:
    if force_exact and epsilon is not None:
        raise ScenarioError(
            "exact arithmetic (--exact) and an epsilon (--epsilon) exclude each other"
        )
    with _malformed("--epsilon"):  # the flags' request, which overrides the file's
        flagged = EXACT if force_exact else None if epsilon is None else approx(epsilon)
    with _malformed("scenario"):
        data = _read(data, "scenario")
    buyers = data["buyers"]
    if not buyers:
        raise ScenarioError("scenario needs a non-empty \"buyers\" list")
    n = len(buyers)
    reports = [_parse_buyer(b, i) for i, b in enumerate(buyers)]

    schedule = parse_schedule(data["schedule"], n)
    named = {"primary": schedule}
    schedules = data.get("schedules", {})
    if "primary" in schedules:
        raise ScenarioError(
            "schedule name 'primary' is reserved for the \"schedule\" stanza;"
            " rename it in \"schedules\""
        )
    for name, stanza in schedules.items():
        named[name] = parse_schedule(stanza, n, f"schedule {quote(name)}")
    for name, sched in named.items():
        if sched.n != n:
            raise ScenarioError(
                f"schedule {quote(name)} is for {sched.n} buyers but the scenario lists {n}"
            )

    has_auction = "auction" in data
    has_fixed = "fixed_price" in data
    if has_auction == has_fixed:
        raise ScenarioError("scenario needs exactly one of \"auction\" or \"fixed_price\"")
    if has_auction:
        auction, fixed_price = _parse_auction(data["auction"]), None
    else:
        with _malformed("fixed_price"):
            fixed_price = parse_number(data["fixed_price"])
            auction = AuctionConfig(reserve=fixed_price)

    with _malformed("policy"):
        stanza = _read(data.get("policy", {}), "policy")
        mode = stanza.get("mode")
        if mode not in (None, "exact", "approx"):
            raise ValueError(f"unknown mode {quote(mode)}")
        if mode == "exact" and "epsilon" in stanza:
            raise ValueError('"mode": "exact" and an "epsilon" exclude each other')
        requested = EXACT if mode == "exact" else None  # the file's request
        if "epsilon" in stanza or mode == "approx":
            requested = approx(float(parse_number(stanza.get("epsilon", DEFAULT_EPSILON))))
    irrational = _irrational_input(reports, named)
    policy = flagged or requested or (approx() if irrational else EXACT)
    if policy.exact and irrational:
        raise ScenarioError(f"exact arithmetic requested but {irrational}")

    if seed is None and "seed" in data:
        with _malformed("seed"):
            seed = parse_number(data["seed"])
        if seed.denominator != 1:
            raise ScenarioError(f"seed must be an integer, not {quote(data['seed'])}")

    return Scenario(
        n=n,
        reports=reports,
        schedule=schedule,
        named_schedules=named,
        auction=auction,
        fixed_price=fixed_price,
        policy=policy,
        seed=int(seed or 0),
    )


def _unique_keys(pairs) -> dict:
    """JSON object hook: a key listed twice is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key {quote(key)}")
        obj[key] = value
    return obj


def _json_int(text: str) -> int:  # int(text), or past int()'s digit limit the error of check_digits
    check_digits(text)
    return int(text)


def load_scenario_file(path, **kwargs) -> Scenario:
    """The scenario in the file at ``path``; every malformed file is a ScenarioError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.loads(fh.read(), object_pairs_hook=_unique_keys, parse_int=_json_int)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # not UTF-8, an integer past int()'s digit limit, a key listed twice
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        return load_scenario(document, **kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def bundled_scenario_path(name: str):
    """Filesystem path of a packaged example scenario (e.g. "example1")."""
    return resources.files(__package__).joinpath("scenarios", f"{name}.json")
