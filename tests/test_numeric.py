import itertools
import math
import time
from decimal import Decimal
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
    integers_over_common_denominator,
    parse_number,
    quote,
    quote_key,
    to_float,
)

from helpers import same_numbers


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


INFINITY = st.sampled_from((math.inf, -math.inf))


@st.composite
def infinite_pairs(draw):
    """(a, b): an infinity and another infinity or a float, in either order."""
    pair = (draw(INFINITY), draw(st.one_of(INFINITY, st.floats(-2, 2))))
    return pair if draw(st.booleans()) else pair[::-1]


def exact(v):
    """``v`` as a Fraction, or as is if it has none (an infinity)."""
    return F(v) if math.isfinite(v) else v


@given(st.one_of(near_pairs(), infinite_pairs()))
@example((0.3333333323333333, float(F(1, 3))))  # a + epsilon rounds to b, yet b - a exceeds epsilon
@example((math.inf, math.inf))  # a NaN difference counts as 0: equal infinities are eq
@example((-math.inf, -math.inf))
@example((-math.inf, math.inf))
@example((math.inf, 1.0))
@settings(max_examples=300, deadline=None)
def test_tolerance_comparisons_split_every_pair_three_ways(pair):
    # Every comparison decides on the one difference less epsilon, a NaN
    # difference counting as 0, so lt, eq and gt split each pair, le and ge
    # are their unions, and is_positive is lt(0, v); as floats, as Fractions
    # and mixed, infinities included.
    pol = approx()
    a, b = pair
    for x, y in ((a, b), (exact(a), exact(b)), (a, exact(b)), (exact(a), b)):
        lt, eq, gt = pol.lt(x, y), pol.eq(x, y), pol.gt(x, y)
        assert lt + eq + gt == 1, (x, y)
        assert pol.le(x, y) == (lt or eq)
        assert pol.ge(x, y) == (gt or eq)
        for v in (y - x, x - y):
            assert pol.is_positive(v) == pol.lt(0, v)


@st.composite
def fraction_pairs(draw):
    """(u, y): Fractions with terms up to 2**80, y non-zero."""
    numerator, denominator = st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80)
    return F(draw(numerator), draw(denominator)), F(draw(numerator.filter(bool)), draw(denominator))


@given(fraction_pairs())
@settings(max_examples=300, deadline=None)
def test_ratio_is_the_lane_of_the_quotient(pair):
    u, y = pair
    for policy in (EXACT, approx()):
        assert same_numbers([policy.ratio(u, y)], [policy.lane(u / y)]), (u, y)


LARGEST = 2 ** 1024 - 2 ** 971  # the largest float, as an int
HALFWAY = 2 ** 1024 - 2 ** 970  # between it and 2**1024: rounds to even, past the largest


@pytest.mark.parametrize("u,y", [
    (F(HALFWAY * 3 - 1, 7), F(3, 7)),  # just below halfway: the largest float
    (F(LARGEST * 5, 9), F(5, 9)),
    (F(3, 2 ** 1075), F(3, 5)),  # 2.5 times the least subnormal: rounds to even, 2 times
    (F(7, 2 ** 1074 * 11), F(5, 13)),  # a subnormal
    (F(1, 2 ** 1076), F(3)),  # below half the least subnormal: 0
    (F(-1, 3), F(2, 7)),
    (0, F(2, 3)),
    (3, 7),
    (F(1, 3), 4),
    (0.1, F(1, 3)),
    (F(1, 3), 0.7),
    (0.3, 0.7),
    (1e-300, 1e10),  # a subnormal quotient of two floats
    (5e-324, 3.0),  # below half the least subnormal: 0
], ids=["largest", "largest-exact", "halfway-subnormal", "subnormal", "underflow", "negative",
        "int-zero", "ints", "fraction-int", "float-fraction", "fraction-float", "floats",
        "floats-subnormal", "floats-underflow"])
def test_ratio_is_the_lane_of_the_quotient_at_the_edges(u, y):
    for policy in (EXACT, approx()):
        assert same_numbers([policy.ratio(u, y)], [policy.lane(u / y)])


@pytest.mark.parametrize("u,y", [
    (F(2 ** 1024 * 5, 3), F(5, 3)), (F(HALFWAY * 3, 7), F(3, 7)), (1e308, 1e-10),
], ids=["2**1024", "halfway", "floats"])
def test_ratio_overflows_where_the_lane_does(u, y):
    # past the largest float both give inf, as float arithmetic rounds an overflow
    assert approx().ratio(u, y) == approx().lane(u / y) == math.inf


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE_FLOATS, FINITE_FLOATS.filter(bool))
@settings(max_examples=300)
def test_ratio_of_two_floats_is_their_quotient(u, y):
    got = approx().ratio(u, y)
    assert same_numbers([got], [approx().lane(u / y)]) and same_numbers([got], [u / y])


@pytest.mark.parametrize("v,expected", [
    (F(LARGEST), 2.0 ** 1023 * (2 - 2.0 ** -52)),
    (F(HALFWAY * 3 - 1, 3), 2.0 ** 1023 * (2 - 2.0 ** -52)),  # just below halfway
    (HALFWAY, math.inf),  # halfway rounds to even, past the largest float
    (-(2 ** 1024), -math.inf),
    (F(-(10 ** 400), 3), -math.inf),
    (F(1, 3), 1 / 3),
    (0.1, 0.1),
], ids=["largest", "below-halfway", "halfway", "-2**1024", "-1e400/3", "third", "float"])
def test_to_float_is_an_infinity_past_the_largest_float(v, expected):
    # as float arithmetic rounds an overflow: 2.0 ** 1023 * 2 is inf too
    assert to_float(v) == expected


@pytest.mark.parametrize("v", [
    F(2, 3), F(-7), F(1, 10 ** 4300), F(-(10 ** 5000) - 7, 3), F(10 ** 4400), F(10 ** 4299 + 1, 10 ** 4299),
], ids=["small", "int", "1e-4300", "5001-digit-numerator", "int-4401-digits", "4300-digit-terms"])
def test_exact_str_renders_terms_of_any_length(v):
    numerator, _, denominator = exact_str(v).partition("/")
    assert F(Decimal(numerator)) / F(Decimal(denominator or "1")) == v
    if max(abs(v.numerator), v.denominator) < 10 ** 4300:  # within str(int)'s limit: its text
        assert exact_str(v) == str(v)


@given(st.one_of(st.fractions(), st.integers(), st.floats(allow_nan=False, allow_infinity=False)))
def test_exact_str_is_the_string_of_the_fraction(v):
    assert exact_str(v) == str(F(v))


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


def test_the_digit_rule_passes_4300_digits():
    # int()'s own limit: these digits parse, and as a whole number they are past the float range
    assert parse_number("0." + "1" * 4300) == F(int("1" * 4300), 10 ** 4300)
    with pytest.raises(ValueError, match="^not a finite float"):
        parse_number("1" * 4300)


@pytest.mark.parametrize("value,quoted", [
    ("abc", "'abc'"),
    ("x" * 38, repr("x" * 38)),  # a repr of 40 characters is repeated in full
    ("x" * 39, f"'{'x' * 19}... (39 characters)"),
    (10 ** 50, f"{'1' + '0' * 19}... (51 characters)"),
    ([1] * 20, "[1, 1, 1, 1, 1, 1, 1... (60 characters)"),
])
def test_quote_repeats_at_most_40_characters(value, quoted):
    assert quote(value) == quoted


@pytest.mark.parametrize("key,quoted", [
    ("0,1", '"0,1"'),
    ("x" * 40, f'"{"x" * 40}"'),  # a key of 40 characters is repeated in full
    ("x" * 41, f'"{"x" * 20}... (41 characters)"'),
    ("0," * 2150, f'"{"0," * 10}... (4300 characters)"'),
    (3, '"3"'),
])
def test_quote_key_repeats_at_most_40_characters(key, quoted):
    assert quote_key(key) == quoted


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


@pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "1E4301", "-2.5e-4301"])
def test_parse_number_rejects_a_huge_exponent_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent beyond 4300"):
        parse_number(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text,expected", [
    ("1e300", F(10) ** 300), ("1e-4300", F(1, 10 ** 4300)), ("-2.5E+3", F(-2500)),
    ("7e0", F(7)), (1e-05, F(1, 10 ** 5)),
])
def test_parse_number_reads_an_exponent_within_the_limit(text, expected):
    assert parse_number(text) == expected


# a value and whether it is exact: ints and Fractions are, floats and bools are not
EXACT_VALUE = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 6))
TAGGED = st.one_of(
    EXACT_VALUE.map(lambda v: (v, True)),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans()).map(lambda v: (v, False)),
)


@given(st.lists(TAGGED, max_size=6))
@example([(F(1, 2), True), (3, True)])
@example([(F(1, 2), True), (F(2, 3), True)])  # the least common denominator is no denominator
@example([(F(1, 2), True), (0.5, False)])
@example([(1, True), (True, False)])
def test_integers_over_common_denominator_is_the_test_of_exactness(tagged):
    values = [v for v, _ in tagged]
    got = integers_over_common_denominator(values)
    if not all(exact for _, exact in tagged):
        assert got is None
        return
    d, ints = got
    assert type(d) is int and d == math.lcm(*[F(v).denominator for v in values])
    assert all(type(v) is int for v in ints)
    assert [F(v, d) for v in ints] == values
    for (a, u), (b, v) in itertools.product(zip(values, ints), repeat=2):
        assert (a < b, a == b) == (u < v, u == v)
