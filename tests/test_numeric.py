import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy.numeric import (
    DEFAULT_EPSILON,
    EXACT,
    MAX_EPSILON,
    NumericPolicy,
    approx,
    decimal_str,
    exact_str,
    infer_policy,
    parse_number,
)


def test_exact_policy_compares_exactly():
    assert EXACT.eq(F(1, 3), F(1, 3))
    assert not EXACT.eq(F(1, 3), F(1, 3) + F(1, 10**12))
    assert EXACT.lt(F(1, 3), F(1, 2))
    assert EXACT.exact


def test_approx_policy_tolerates_epsilon():
    pol = approx(1e-9)
    assert pol.eq(0.5, 0.5 + 1e-12)
    assert not pol.eq(0.5, 0.5 + 1e-6)
    # strict comparisons shrink: a < b requires a clear margin
    assert not pol.lt(0.5, 0.5 + 1e-12)
    assert pol.lt(0.5, 0.5 + 1e-6)
    assert pol.le(0.5 + 1e-12, 0.5)
    assert pol.is_positive(1e-6)
    assert not pol.is_positive(1e-12)


@st.composite
def near_pairs(draw):
    """(a, b): floats a few epsilon apart, b often within a few ulps of a + k * epsilon."""
    a = draw(st.floats(-2, 2))
    b = a + draw(st.integers(-3, 3)) * DEFAULT_EPSILON + draw(st.sampled_from((0.0, 1e-10, -1e-10)))
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        b = math.nextafter(b, math.copysign(math.inf, ulps))
    return a, b


@given(near_pairs())
@example((0.3333333323333333, float(F(1, 3))))  # a + epsilon rounds to b, yet b - a exceeds epsilon
@settings(max_examples=300, deadline=None)
def test_tolerance_comparisons_split_every_pair_three_ways(pair):
    # Every comparison decides on the one difference less epsilon, so lt, eq
    # and gt split each pair, le and ge are their unions, and is_positive is
    # lt(0, v); as floats, as Fractions and mixed.
    pol = approx()
    a, b = pair
    for x, y in ((a, b), (F(a), F(b)), (a, F(b)), (F(a), b)):
        lt, eq, gt = pol.lt(x, y), pol.eq(x, y), pol.gt(x, y)
        assert lt + eq + gt == 1, (x, y)
        assert pol.le(x, y) == (lt or eq)
        assert pol.ge(x, y) == (gt or eq)
        for v in (y - x, x - y):
            assert pol.is_positive(v) == pol.lt(0, v)


def test_approx_requires_positive_epsilon():
    for bad in (0, -1, float("nan"), float("inf"), MAX_EPSILON, 0.5):
        with pytest.raises(ValueError):
            approx(bad)
        with pytest.raises(ValueError):
            NumericPolicy(bad)
    # a subset of up to 32 buyers has a member paying at least 1/32, which
    # every accepted epsilon leaves positive, rounding included
    assert approx(MAX_EPSILON * (1 - 2 ** -20)).is_positive(F(1, 32) * (1 - 1e-12))


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", F(3, 4)), ("0.9", F(9, 10)), ("2", F(2)), ("-1/2", F(-1, 2)), (0.25, F(1, 4)), (3, F(3))],
)
def test_parse_number(text, expected):
    assert parse_number(text) == expected


def test_parse_number_reads_floats_decimally():
    assert parse_number(0.1) == F(1, 10)


@pytest.mark.parametrize("bad", ["", "x", "1/0", float("inf"), True, None])
def test_parse_number_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_number(bad)


def test_renderings_round_trip():
    v = F(9, 20)
    assert parse_number(exact_str(v)) == v
    assert decimal_str(v) == "0.45"
    assert decimal_str(F(1, 3)).startswith("0.3333333333333")


def test_infer_policy():
    assert infer_policy([F(1, 2), 3]).exact
    assert not infer_policy([F(1, 2), 0.5]).exact
