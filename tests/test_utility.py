import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupbuy.numeric import piecewise_value
from groupbuy.schedule import U_MAX
from groupbuy.utility import (
    CONCAVE,
    GRAIN,
    ClosedFormUtility,
    InvalidReportError,
    ReportClass,
    UtilityReport,
    _below,
    random_concave_draws,
    random_concave_knots,
    sample_report,
    validate_knots,
)

from helpers import random_concave_utility, reference_validate_knots


def linear_report():
    return UtilityReport(((F(0), F(0)), (F(1), F(1))))


class TestEvaluate:
    def test_linear_identity(self):
        assert linear_report().value_at(F(1, 3)) == F(1, 3)

    def test_knot_hit_returns_sampled_value_exactly(self):
        rep = UtilityReport(((F(0), F(0)), (F(1, 3), 0.577), (F(1), 1.0)))
        assert rep.value_at(F(1, 3)) == 0.577

    def test_hand_interpolation(self):
        # midpoint of the second segment: (0.7 + 1) / 2
        rep = UtilityReport(((F(0), F(0)), (F(1, 2), F(7, 10)), (F(1), F(1))))
        assert rep.value_at(F(3, 4)) == F(17, 20)

    def test_zero_at_origin(self):
        assert linear_report().value_at(0) == 0

    @pytest.mark.parametrize("x", [-0.1, F(-1, 2), 1.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            linear_report().value_at(x)
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            ClosedFormUtility.linear(1).value_at(x)

    def test_knot_hits_return_the_stored_value(self):
        # a query equal to a knot, of whatever number type, gets the stored
        # object itself; one between knots interpolates, as piecewise_value does
        half = 0.6 ** 0.5
        rep = UtilityReport(((F(0), F(0)), (F(1, 2), half), (F(3, 4), F(17, 20)), (F(1), 0.9)))
        for x, u in rep.knots:
            assert rep.value_at(x) is u
            assert rep.value_at(float(x)) is u
        xs, us = zip(*rep.knots)
        for x in (F(1, 4), 0.6, F(7, 8)):
            assert rep.value_at(x) == piecewise_value(xs, us, x)


class TestValidate:
    def test_valid_linear(self):
        assert validate_knots([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))]) is None

    def test_rising_slope_is_not_concave(self):
        # slopes 0.6 then 1.0
        v = validate_knots([(F(0), F(0)), (F(1, 2), F(3, 10)), (F(1), F(4, 5))])
        assert v == "not concave at knot 2"

    def test_nonzero_origin(self):
        v = validate_knots([(F(0), F(1, 10)), (F(1), F(1))])
        assert v == "first knot must be (0, 0), violated at knot 0"

    def test_must_end_at_one(self):
        v = validate_knots([(F(0), F(0)), (F(1, 2), F(1, 2))])
        assert v == "last knot must sit at x=1, violated at knot 1"

    def test_decreasing_values(self):
        v = validate_knots([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1, 4))])
        assert v == "values decrease at knot 2"

    def test_unsorted_x(self):
        v = validate_knots([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1))])
        assert v == "knot x values must be strictly increasing at knot 2"

    def test_empty(self):
        assert validate_knots([]) == "knot list is empty"

    def test_constructor_rejects_invalid(self):
        with pytest.raises(InvalidReportError):
            UtilityReport(((F(0), F(0)), (F(1, 2), F(3, 10)), (F(1), F(4, 5))))

    def test_float_noise_tolerated(self):
        # sampled irrational values validate under the inferred tolerance
        knots = [(F(0), 0.0), (F(1, 3), math.log(4 / 3)), (F(1, 2), math.log(1.5)), (F(1), math.log(2))]
        assert validate_knots(knots) is None


KNOT_LANES = ("exact", "float", "mixed")
# each fault planted by planted_knots, and the start of the message it draws
KNOT_FAULTS = {
    None: None,
    "empty": "knot list is empty",
    "first": "first knot must be (0, 0)",
    "order": "knot x values must be strictly increasing",
    "last": "last knot must sit at x=1",
    "decrease": "values decrease",
    "concave": "not concave",
}


def planted_knots(rng, lane, fault):
    """A random knot list of ``lane`` that breaks the invariant ``fault`` names.

    ``None`` plants nothing: the list is admissible, chords of equal slope
    included.  Exact lists mix ints and Fractions, float lists are all
    floats, mixed ones hold both; the last two sometimes move one coordinate
    by a few times 1e-10, on either side of the default tolerance.
    """
    if fault == "empty":
        return []
    k = rng.randint(3 if fault == "concave" else 1, 5)  # knots past the origin
    xs = [F(j, 12) for j in sorted(rng.sample(range(1, 12), k - 1))] + [F(1)]
    slopes = sorted((F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(k)), reverse=True)
    us, prev, total = [], F(0), F(0)
    for x, slope in zip(xs, slopes):
        total += slope * (x - prev)
        us.append(total)
        prev = x
    knots = [[F(0), F(0)], *map(list, zip(xs, us))]
    if fault == "first":
        knots[0][rng.randint(0, 1)] = F(1, 24)
    elif fault == "order":
        i = rng.randint(1, k)
        knots[i][0] = knots[i - 1][0] - rng.choice((0, F(1, 24)))
    elif fault == "last":
        if rng.random() < 0.5:
            knots.pop()
        else:
            knots[-1][0] = F(25, 24)
    elif fault == "decrease":
        i = rng.randint(1, k)
        knots[i][1] = knots[i - 1][1] - F(rng.randint(1, 3), 24)
    elif fault == "concave":
        # chord i steeper than chord i - 1 by delta / dx (0: collinear, admissible)
        i = rng.randint(2, k)
        (x0, u0), (x1, u1), (x2, u2) = knots[i - 2], knots[i - 1], knots[i]
        delta = rng.choice((0, F(1, 10 ** 6), F(1, 8)))
        lift = u1 + (u1 - u0) / (x1 - x0) * (x2 - x1) + delta - u2
        for knot in knots[i:]:
            knot[1] += lift
    if lane == "exact":
        return [tuple(int(c) if c.denominator == 1 and rng.random() < 0.5 else c for c in knot)
                for knot in knots]
    coords = [c for knot in knots for c in knot]
    if lane == "float":
        coords = [float(c) for c in coords]
    else:
        kept = rng.randrange(len(coords))  # stays a Fraction
        floated = rng.choice([j for j in range(len(coords)) if j != kept] or [kept])
        coords = [float(c) if j == floated or (j != kept and rng.random() < 0.5) else c
                  for j, c in enumerate(coords)]
    if rng.random() < 0.3:
        j = rng.randrange(len(coords))
        coords[j] += rng.choice((-1, 1)) * rng.randint(1, 20) * 1e-10
    return list(zip(coords[0::2], coords[1::2]))


class TestValidateAgainstTheReference:
    @given(st.randoms(use_true_random=False), st.sampled_from(KNOT_LANES),
           st.sampled_from(list(KNOT_FAULTS)))
    @settings(max_examples=150, deadline=None)
    def test_same_message_as_the_reference(self, rng, lane, fault):
        knots = planted_knots(rng, lane, fault)
        assert validate_knots(knots) == reference_validate_knots(knots)

    @pytest.mark.parametrize("lane", KNOT_LANES)
    def test_planted_lists_reach_every_branch(self, lane):
        # the property's lists reach each failure message, and admissible
        # lists, in every lane
        rng = random.Random(lane)
        for fault, start in KNOT_FAULTS.items():
            messages = [reference_validate_knots(planted_knots(rng, lane, fault)) for _ in range(40)]
            if start is None:
                assert None in messages
            else:
                assert any(m is not None and m.startswith(start) for m in messages), fault


class TestClosedForms:
    def test_log_sample_matches_reference_value(self):
        rep = sample_report(ClosedFormUtility.log(1), [F(1, 3), F(1, 2), F(1)])
        got = rep.value_at(F(1, 3))
        assert got == pytest.approx(math.log(4 / 3), abs=1e-15)
        assert abs(got - 0.28768) < 1e-5

    def test_sqrt_sample_matches_reference_value(self):
        rep = sample_report(ClosedFormUtility.power(1, F(1, 2)), [F(1, 3)])
        assert rep.value_at(F(1, 3)) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_zero_form_gives_zero_report(self):
        rep = sample_report(ClosedFormUtility.linear(0), [F(1, 4), F(2, 3)])
        assert all(u == 0 for _, u in rep.knots)

    def test_sample_adds_endpoints(self):
        rep = sample_report(ClosedFormUtility.linear(1), [F(1, 2)])
        assert rep.knots[0][0] == 0 and rep.knots[-1][0] == 1

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            ClosedFormUtility.power(1, 0)
        with pytest.raises(ValueError):
            ClosedFormUtility.power(1, F(3, 2))
        with pytest.raises(ValueError):
            ClosedFormUtility.linear(-1)
        with pytest.raises(ValueError, match="unknown utility kind 'cubic'"):
            ClosedFormUtility("cubic", 1)
        with pytest.raises(ValueError, match="log utility takes no exponent"):
            ClosedFormUtility("log", 1, F(1, 2))

    @pytest.mark.parametrize(
        "form", [ClosedFormUtility.linear(10 ** 400), ClosedFormUtility.power(10 ** 400, 1)]
    )
    def test_huge_rational_coefficient_stays_exact(self, form):
        # no float of c is made on the rational branch
        assert form.value_at(F(1, 2)) == F(10 ** 400, 2)
        assert isinstance(form.value_at(F(1, 2)), F)

    def test_huge_coefficient_is_inf_only_off_the_rational_branch(self):
        # c past the largest float: exact where x is 0 or 1, and inf where the
        # value is a float, as float arithmetic rounds an overflow
        form = ClosedFormUtility.power(10 ** 400, F(1, 2))
        assert form.value_at(1) == 10 ** 400
        assert form.value_at(F(1, 2)) == math.inf

    @given(
        st.one_of(
            st.fractions(0, 10, max_denominator=1000), st.integers(0, 10),
            st.floats(0, 10, allow_nan=False),
        ),
        st.one_of(
            st.fractions(0, 1, max_denominator=1000).filter(lambda x: 0 < x < 1),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        st.one_of(
            st.fractions(0, 1, max_denominator=1000).filter(lambda k: 0 < k < 1),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_irrational_branch_is_c_times_x_to_the_k(self, c, x, k):
        form = ClosedFormUtility.power(c, k)
        want = c * x ** k
        assert type(want) is float
        for _ in range(2):  # value_at keeps no state: a second call gives the same float
            got = form.value_at(x)
            assert type(got) is float and got == want

    def test_linear_keeps_rationals(self):
        rep = sample_report(ClosedFormUtility.linear(F(2, 3)), [F(1, 2)])
        assert rep.value_at(F(1, 2)) == F(1, 3)

    @pytest.mark.parametrize(
        "form",
        [
            ClosedFormUtility.linear(F(3, 2)),
            ClosedFormUtility.power(2, F(1, 3)),
            ClosedFormUtility.power(F(1, 2), 1),
            ClosedFormUtility.log(F(5, 4)),
        ],
    )
    def test_catalog_samples_validate(self, form):
        rep = sample_report(form, [F(1, 7), F(2, 7), F(1, 2), F(9, 10)])
        assert validate_knots(rep.knots) is None


class TestRandomConcave:
    def test_deterministic_in_seed(self):
        a = random_concave_utility(42, [F(1, 3), F(1, 2)], F(2))
        b = random_concave_utility(42, [F(1, 3), F(1, 2)], F(2))
        assert a == b

    def test_single_point_is_single_segment(self):
        rep = random_concave_utility(7, [F(1)], F(3))
        assert len(rep.knots) == 2
        assert 0 <= rep.knots[-1][1] <= 3

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_always_validates(self, seed):
        rep = random_concave_utility(seed, [F(1, 4), F(1, 3), F(2, 3)], F(1))
        assert validate_knots(rep.knots) is None
        assert all(0 <= u <= 1 for _, u in rep.knots)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            random_concave_utility(1, [F(0)], F(1))
        with pytest.raises(ValueError):
            random_concave_utility(1, [F(1, 2)], 0)


class TestDrawStream:
    """``_below`` draws what ``randrange`` and ``choice`` draw, and leaves the same state.

    The sampling oracle's pinned witnesses rest on this stream.
    """

    BOUNDS = (1, 2, 3, 7, 8, 15, 255, GRAIN - 1, GRAIN, GRAIN + 1, 2 ** 32)

    def test_below_is_randrange(self):
        for s in range(200):
            ours, theirs = random.Random(s), random.Random(s)
            for n in self.BOUNDS:  # several draws in a row from one generator
                assert _below(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()

    def test_indexing_by_below_is_choice(self):
        for s in range(200):
            ours, theirs = random.Random(s), random.Random(s)
            for n in self.BOUNDS:
                seq = range(5, 5 + 3 * n, 3)
                assert seq[_below(ours.getrandbits, len(seq))] == theirs.choice(seq)
            assert ours.getstate() == theirs.getstate()

    def test_concave_draws_match_randrange(self):
        def reference(rng, count):
            slopes = sorted((rng.randrange(1, GRAIN) for _ in range(count)), reverse=True)
            return slopes, rng.randrange(0, GRAIN + 1)

        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for count in range(1, 7):  # several utilities in a row from one generator
                assert random_concave_draws(ours.getrandbits, count) == reference(theirs, count)
            assert ours.getstate() == theirs.getstate()

    def test_seeded_knots_are_pinned(self):
        # random_concave_knots draws from a fresh random.Random(seed): the
        # digest of its knots, recorded before the sampling oracle took its
        # concave samples from its own stream, stays the same
        digest = hashlib.sha256()
        for seed in range(200):
            for count in range(1, 7):
                points = [F(k, count) for k in range(1, count + 1)]
                digest.update(repr(random_concave_knots(seed, points, U_MAX)).encode())
        assert digest.hexdigest() == "62dedf7ee716a6a94c93f63d40b61e993397e6ef7d16ddff6e394394738600a6"


class TestClassProperties:
    """Monotone, concave and star-shaped on a grid, for random class members."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_concave_on_grid(self, seed):
        rep = random_concave_utility(seed, [F(1, 5), F(2, 5), F(3, 5), F(4, 5)], F(2))
        grid = [F(k, 16) for k in range(17)]
        vals = [rep.value_at(x) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for lam in (F(1, 4), F(1, 2), F(3, 4)):
            for a in (F(0), F(1, 8), F(5, 8)):
                b = F(7, 8)
                mid = lam * a + (1 - lam) * b
                assert rep.value_at(mid) >= lam * rep.value_at(a) + (1 - lam) * rep.value_at(b)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_star_shaped(self, seed):
        # value per unit share never grows with the share
        rep = random_concave_utility(seed, [F(1, 3), F(1, 2), F(5, 6)], F(1))
        grid = [F(k, 12) for k in range(1, 13)]
        ratios = [rep.value_at(x) / x for x in grid]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_power_class_bounds():
    with pytest.raises(ValueError):
        ReportClass("power", 0, F(1, 2))
    with pytest.raises(ValueError):
        ReportClass("power", F(1, 4), F(9, 8))
    with pytest.raises(ValueError):
        ReportClass("power", F(1, 2), F(1, 4))
    with pytest.raises(ValueError):
        ReportClass("power")
    cls = ReportClass("power", F(1, 8), F(1, 2))
    assert cls.kind == "power"


@pytest.mark.parametrize("kind", ["Power", "convex", ""])
def test_unknown_class_kind_rejected(kind):
    # an unknown kind must not pass for the concave class in the validators
    with pytest.raises(ValueError, match="unknown report class kind"):
        ReportClass(kind, F(1, 8), F(1, 2))


def test_class_membership():
    family = ReportClass("power", F(1, 8), F(1, 2))
    inside = [ClosedFormUtility.power(2, k) for k in (F(1, 8), F(1, 3), F(1, 2))]
    # the zero utility is c*x**k with c = 0 at every k, whatever its closed form
    inside += [ClosedFormUtility.linear(0), ClosedFormUtility.power(0, F(3, 4)), ClosedFormUtility.log(0)]
    outside = [
        ClosedFormUtility.power(2, F(1, 9)),
        ClosedFormUtility.power(2, F(3, 4)),
        ClosedFormUtility.linear(1),
        ClosedFormUtility.log(1),
        linear_report(),
    ]
    assert all(family.contains(r) for r in inside)
    assert not any(family.contains(r) for r in outside)
    assert all(CONCAVE.contains(r) for r in inside + outside)
