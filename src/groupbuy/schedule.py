"""Sharing schedules: per-subset resource and payment share vectors.

A schedule fixes, before any report is solicited, how the resource and the
payment would be divided among every possible subset of buyers.  Subsets are
plain int bitmasks over buyer indices 0..n-1 (n <= 32).  Two families matter:
cross-monotonic tables whose payment shares equal their resource shares
(:func:`CrossMonotonicSchedule` builds such a :class:`TableSchedule`, and
:class:`EqualSplitSchedule` is the closed-form case), and
:class:`RankedSchedule`, which pays in proportion to a concave weight of the
resource shares.  A weight is a power x**k, 0 < k <= 1, of the closed-form
family that buyers' utilities use (:class:`~groupbuy.utility.ClosedFormUtility`;
identity is k = 1, sqrt k = 1/2), with a positive coefficient.  A ranked
schedule values each base share's weight once, when it is built, and per
subset only the share of its top-ranked member (see :class:`RankedSchedule`).

Each schedule is checked once, when it is built, so that every non-empty
subset S has a member paying at least 1/|S|; the engine relies on it.

The incentive properties of the mechanism rest on the schedule's monotonicity:
a buyer who cannot cover its payment share of some price C with its utility
for its resource share in a set must not be able to in any smaller set either.
:func:`validate_monotonicity` decides this with a closed-form per-pair
criterion (a derived reduction, not published anywhere; see the function
docstring), and :func:`brute_force_monotonicity_check` is its permanent
sampling cross-check.  In the exact lane the oracle decides each sample of
the concave class whose shares are all rational with one integer
cross-multiplication over the pair's integers, and builds the sample's knot
points, knot list and ``Fraction`` values only when that test finds a break;
float shares, the power class and the tolerance lane value every sample in
full, on knot points built once per pair.  Both ways draw the same random
numbers, each sample's own and then its uniform candidate constant, and
return the same witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .numeric import (
    EXACT, MAX_BUYERS, Num, NumericPolicy, integers_over_common_denominator, piecewise_value, quote,
)
from .utility import (
    CONCAVE,
    GRAIN,
    ClosedFormUtility,
    ReportClass,
    UtilityReport,
    _below,
    concave_knot_points,
    concave_knots,
    random_concave_draws,
    sample_knots,
)


ENUMERATION_MAX_BUYERS = 12  # of every walk over all 2^n subsets: share_points and the validators
ORACLE_MAX_BUYERS = 8  # of brute_force_monotonicity_check
SPOT_CHECK_SAMPLES = 5000  # the most samples validate-schedule's spot check draws


# ---------------------------------------------------------------------------
# Buyer-set bitmasks


def full_mask(n: int) -> int:
    return (1 << n) - 1


def members(mask: int) -> tuple:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def nonempty_subsets(mask: int) -> Iterator[int]:
    """All non-empty submasks of ``mask``, largest first."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def subset_key(mask: int) -> str:
    """Sorted comma-joined index string, e.g. "0,2"; empty set is ""."""
    return ",".join(str(i) for i in members(mask))


def parse_subset_key(text: str, n: int) -> int:
    if text.strip() == "":
        return 0
    mask = 0
    for part in text.split(","):
        try:
            i = int(part)
        except ValueError:
            raise ValueError(f"subset key {quote(text)}: {quote(part)} is no buyer index") from None
        if not 0 <= i < n:
            raise ValueError(f"buyer index {quote(i)} outside 0..{n - 1}")
        mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# Schedules


class ScheduleError(ValueError):
    pass


def check_cap(n: int, cap: int, walk: str) -> None:
    """The one refusal of a walk over all 2^n subsets: a ScheduleError when n exceeds its cap."""
    if n > cap:
        raise ScheduleError(f"{walk} capped at {cap} buyers")


@dataclass(frozen=True)
class SharePair:
    """Resource and payment share vectors bound to one subset."""

    resource: tuple
    payment: tuple


def _check_share_vector(values: Sequence, subset: int, n: int, label: str):
    if len(values) != n:
        raise ScheduleError(f"{label} shares for {{{subset_key(subset)}}} must have {n} entries")
    # exact shares: integer numerators over the common denominator, which
    # have the same signs and sum, checked without Fraction arithmetic
    den, nums = integers_over_common_denominator(values) or (1, values)
    for i, v in enumerate(nums):
        if v < 0:
            raise ScheduleError(f"negative {label} share for buyer {i} in {{{subset_key(subset)}}}")
        if v > 0 and not subset >> i & 1:
            raise ScheduleError(
                f"positive {label} share for buyer {i} outside subset {{{subset_key(subset)}}}"
            )
    if sum(nums) != den:
        raise ScheduleError(f"{label} shares for {{{subset_key(subset)}}} sum to {sum(values)}, not 1")


class ShareSchedule:
    """Base class: deterministic map from non-empty subsets to share pairs."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_BUYERS:
            raise ScheduleError(f"buyer count must lie in 1..{MAX_BUYERS}")
        self.n = n
        self._cache: dict = {}

    def shares_for(self, subset: int) -> SharePair:
        pair = self._cache.get(subset)
        if pair is None:  # the cache holds only subsets that passed both checks
            if subset == 0:
                raise ScheduleError("shares are undefined for the empty set")
            if not is_subset(subset, full_mask(self.n)):
                raise ScheduleError(f"subset {bin(subset)} outside buyer range 0..{self.n - 1}")
            pair = self._cache[subset] = self._compute(subset)
        return pair

    def _compute(self, subset: int) -> SharePair:
        raise NotImplementedError

    def share_points(self, buyer: int) -> tuple:
        """Every positive resource share the buyer can receive, across every subset, sorted."""
        check_cap(self.n, ENUMERATION_MAX_BUYERS, "share-point enumeration")
        bit = 1 << buyer
        points = {self.shares_for(mask).resource[buyer]
                  for mask in nonempty_subsets(full_mask(self.n)) if mask & bit}
        return tuple(sorted(p for p in points if p > 0))


class EqualSplitSchedule(ShareSchedule):
    """1/|A| resource and payment share for every member."""

    def _compute(self, subset: int) -> SharePair:
        share = Fraction(1, subset.bit_count())
        vec = tuple(share if subset >> i & 1 else Fraction(0) for i in range(self.n))
        return SharePair(vec, vec)


class TableSchedule(ShareSchedule):
    """Explicit share pairs for every non-empty subset; only sensible for small n.

    Validated exactly at construction, where a missing or twice-listed subset is
    an error too.  When ``entries`` lists exactly 2^n - 1 subsets and its first
    key is a str, a canonical key ("0,2", as :func:`subset_key` writes it) is
    looked up in a map of every subset's key; any other key, and every key of
    another table, is read by :func:`parse_subset_key` (a str) or ``int`` (a
    mask).  Either way the verdicts and their order are the same, and a short
    table at large n fails without a walk over its 2^n subsets.
    """

    def __init__(self, n: int, entries: Mapping):
        super().__init__(n)
        full = full_mask(n)
        # only str keys can be canonical: a table of int masks makes no map
        listed = len(entries) == full and isinstance(next(iter(entries)), str)
        canonical = _canonical_keys(n) if listed else {}
        cache = self._cache
        for key, value in entries.items():
            mask = canonical.get(key)
            if mask is None:
                mask = parse_subset_key(key, n) if isinstance(key, str) else int(key)
                if not 0 < mask <= full:
                    raise ScheduleError(f"subset mask {mask} outside 1..{full}")
            if mask in cache:  # "0,1" and "1,0" name the same subset
                raise ScheduleError(f"subset {{{subset_key(mask)}}} listed twice")
            xs, ys = value
            pair = SharePair(tuple(xs), tuple(ys))
            _check_share_vector(pair.resource, mask, n, "resource")
            if pair.payment is not pair.resource:  # payment = resource is checked once
                _check_share_vector(pair.payment, mask, n, "payment")
            cache[mask] = pair
        if len(cache) < full:  # every mask lies in 1..full and is listed once
            missing = next(m for m in range(1, full + 1) if m not in cache)
            raise ScheduleError(f"no shares defined for subset {{{subset_key(missing)}}}")


def _canonical_keys(n: int) -> dict:
    """:func:`subset_key` of each non-empty subset of n buyers -> its mask."""
    keys = [""] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask  # the least member goes first, before the key of the rest
        rest = keys[mask ^ low]
        keys[mask] = f"{low.bit_length() - 1},{rest}" if rest else str(low.bit_length() - 1)
    return {key: mask for mask, key in enumerate(keys) if mask}


def CrossMonotonicSchedule(n: int, resource: Mapping) -> TableSchedule:
    """Table schedule whose payment shares equal its resource shares.

    The table is declared cross-monotonic (shares never shrink as the set
    shrinks) but not verified here; run :func:`validate_cross_monotonic`.
    """
    vectors = {key: tuple(xs) for key, xs in resource.items()}
    return TableSchedule(n, {key: (vec, vec) for key, vec in vectors.items()})


# ---------------------------------------------------------------------------
# Weights for ranked schedules


# The package builds its weights with ClosedFormUtility itself; these two stay
# because the benchmark's workloads (bench/workloads.py) call them.
def identity_weight() -> ClosedFormUtility:
    return ClosedFormUtility.linear(1)


def sqrt_weight() -> ClosedFormUtility:
    return ClosedFormUtility.power(1, Fraction(1, 2))


def _check_weight(weight) -> None:
    # 1/MAX_BUYERS is the least share of a subset's largest member; floats can round a tiny c to 0
    ok = isinstance(weight, ClosedFormUtility) and weight.kind == "power"
    if not (ok and weight.value_at(Fraction(1, MAX_BUYERS)) > 0):
        raise ScheduleError(f"a weight must be a power ClosedFormUtility with c > 0, "
                            f"positive at 1/{MAX_BUYERS}, not {weight!r}")


# ---------------------------------------------------------------------------
# Ranked schedule (departing buyers' shares accrue to the top-ranked survivor)


class RankedSchedule(ShareSchedule):
    """Ranked hand-over resource shares with weight-proportional payment shares.

    Built from per-buyer constants, valued once at construction: each base
    share's weight and the zero of its type.  A subset's top-ranked member
    takes ``base[top]`` plus the base shares of everyone outside, and only
    that share is valued per subset; every other member keeps its base share
    object and its base weight.  An all-``Fraction`` base is also kept as the
    integers over its common denominator d, and the base sums to 1, so the top
    share is the one ``Fraction(d - (the live others' integers), d)``: the same
    value and type as the sum.  Any other base takes the sum itself.  The
    weights are summed and divided in index order.  A linear weight c*x with
    c = 1 on an all-``Fraction`` base sums to exactly 1 in every subset, so its
    payment shares are the weights themselves: dividing by 1 would change
    neither value nor type.
    """

    def __init__(
        self,
        order: Sequence[int],
        base: Sequence,
        weight: ClosedFormUtility = ClosedFormUtility.linear(1),
    ):
        n = len(order)
        super().__init__(n)
        for rank in order:
            if type(rank) is not int:  # not isinstance: True would pass as 1
                raise ScheduleError(f"rank order entries must be ints, not {quote(rank)}")
        if sorted(order) != list(range(n)):
            raise ScheduleError("rank order must be a permutation of 0..n-1")
        _check_share_vector(base, full_mask(n), n, "base")
        _check_weight(weight)
        self.order = tuple(order)
        self.base = tuple(base)
        self.weight = weight
        self._zeros = tuple(0 * b for b in self.base)
        self._weights = tuple(weight.value_at(b) for b in self.base)
        fractions = all(type(b) is Fraction for b in self.base)
        # (d, the base's integers over d) of an all-Fraction base, else None
        self._ints = integers_over_common_denominator(self.base) if fractions else None
        # a linear weight 1*x on Fraction shares: each subset's weights sum to exactly 1
        self._unit = weight.rational and type(weight.c) in (int, Fraction) and weight.c == 1 and fractions

    def _compute(self, subset: int) -> SharePair:
        live = members(subset)
        top = next(i for i in self.order if subset >> i & 1)
        resource = list(self._zeros)
        weights = [None] * self.n
        for i in live:
            resource[i], weights[i] = self.base[i], self._weights[i]
        # the top-ranked member also takes the base shares of everyone outside
        if self._ints is None:
            outside = sum(b for i, b in enumerate(self.base) if not subset >> i & 1)
            resource[top] = self.base[top] + outside
        else:
            d, ints = self._ints
            resource[top] = Fraction(d - sum(ints[i] for i in live) + ints[top], d)
        weights[top] = self.weight.value_at(resource[top])
        if self._unit:  # the weights sum to exactly 1
            return SharePair(tuple(resource), tuple(0 if w is None else w for w in weights))
        total = sum(weights[i] for i in live)
        return SharePair(tuple(resource), tuple(0 if w is None else w / total for w in weights))


# ---------------------------------------------------------------------------
# Validators


@dataclass(frozen=True)
class CrossMonotonicityWitness:
    """x_buyer grew when the set grew: x_buyer(subset_a) < x_buyer(subset_b), A within B."""

    buyer: int
    subset_a: int
    subset_b: int


def _deletion_pairs(schedule: ShareSchedule, check: str) -> Iterator[tuple]:
    """(buyer i, A, B, shares of A, shares of B) for every B and A = B minus one buyer, i in A."""
    check_cap(schedule.n, ENUMERATION_MAX_BUYERS, check)
    for b_mask in nonempty_subsets(full_mask(schedule.n)):
        if b_mask.bit_count() < 2:
            continue
        pair_b = schedule.shares_for(b_mask)
        for k in members(b_mask):
            a_mask = b_mask & ~(1 << k)
            pair_a = schedule.shares_for(a_mask)
            for i in members(a_mask):
                yield i, a_mask, b_mask, pair_a, pair_b


def validate_cross_monotonic(
    schedule: ShareSchedule, policy: NumericPolicy = EXACT
) -> Optional[CrossMonotonicityWitness]:
    """Exhaustive cross-monotonicity check via single-buyer deletions.

    Checking every (B, B minus one buyer) pair suffices: the inequality chains
    along nested subsets, so any violating pair implies a violating one-step
    pair.
    """
    for i, a_mask, b_mask, pair_a, pair_b in _deletion_pairs(schedule, "cross-monotonicity check"):
        if policy.lt(pair_a.resource[i], pair_b.resource[i]):
            return CrossMonotonicityWitness(i, a_mask, b_mask)
    return None


@dataclass(frozen=True)
class MonotonicityWitness:
    """A pair of nested subsets plus a concrete (utility, constant) breaking the rule.

    The utility satisfies utility(x_buyer(subset_b)) < constant * y_buyer(subset_b)
    while utility(x_buyer(subset_a)) >= constant * y_buyer(subset_a).
    """

    buyer: int
    subset_a: int
    subset_b: int
    utility: UtilityReport
    constant: Num


# Knot lists of the extremal class members that witnesses and samples use.
# A report is built from one only when it is returned as a witness.


def _linear_knots(slope: Num) -> tuple:
    return sample_knots(ClosedFormUtility.linear(slope), ())


def _ramp_knots(x: Num, value: Num) -> tuple:
    return ((Fraction(0), 0 * value), (x, value), (Fraction(1), value))


def _power_knots(k: Num, x_a: Num, x_b: Num, scale: Num = 1) -> tuple:
    """scale * x**k sampled at the pair's positive shares (and 0, 1)."""
    return sample_knots(ClosedFormUtility.power(scale, k), [p for p in (x_a, x_b) if 0 < p <= 1])


def _pair_violation(x_a, x_b, y_a, y_b, policy: NumericPolicy, report_class: ReportClass):
    """Closed-form test of one (buyer, A within B) pair; returns (knots, C) or None.

    Derived reduction of the for-all-class-members condition to share
    arithmetic.  The degenerate cases are shared:

    * y_b = 0: nothing to check, no utility can fall below a zero bound.
    * y_a = 0 (y_b > 0): the zero utility passes the bound in B, fails in A.
    * x_b = 0 (y_a, y_b > 0): every utility is worth 0 in B, so x_a must be 0
      too or a steeply-rising member fails in A.
    * x_a = 0 < x_b: fine regardless of payments, the bound in A is 0 < C*y_a.

    With both shares positive the requirement is (x_a/x_b)**k <= y_a/y_b for
    every admissible exponent k.  For the power family that extremizes at
    k_max when x_a >= x_b and k_min otherwise; for the full concave class the
    extremal members are linear functions (k=1) and ramps that rise to a
    plateau (the k -> 0 limit), giving y_a/y_b >= x_a/x_b when x_a >= x_b and
    y_a >= y_b when x_a < x_b.
    """
    if not policy.is_positive(y_b):
        return None
    if not policy.is_positive(y_a):
        return _linear_knots(Fraction(0)), Fraction(1)
    if not policy.is_positive(x_b):
        if policy.is_positive(x_a):
            if report_class.kind == "power":
                k = report_class.k_max
                return _power_knots(k, x_a, x_b, 2 * y_a / x_a ** k), Fraction(1)
            return _linear_knots(2 * y_a / x_a), Fraction(1)
        return None
    if not policy.is_positive(x_a):
        return None
    if report_class.kind == "power":
        k = report_class.k_max if x_a >= x_b else report_class.k_min
        va, vb = x_a ** k, x_b ** k
        if policy.lt(y_a * vb, y_b * va):
            return _power_knots(k, x_a, x_b), (vb / y_b + va / y_a) / 2
        return None
    if policy.lt(x_a, x_b):
        if policy.lt(y_a, y_b):
            return _ramp_knots(x_a, (y_a + y_b) / 2), Fraction(1)
        return None
    if policy.lt(y_a * x_b, y_b * x_a):
        return _linear_knots(Fraction(1)), (x_b / y_b + x_a / y_a) / 2
    return None


def validate_monotonicity(
    schedule: ShareSchedule,
    policy: NumericPolicy = EXACT,
    report_class: ReportClass = CONCAVE,
) -> Optional[MonotonicityWitness]:
    """Closed-form monotonicity check over all single-buyer deletions.

    The condition is relative to a utility class (default: the full concave
    class).  The per-pair criterion (see :func:`_pair_violation`) is a derived
    reduction, not a published result; :func:`brute_force_monotonicity_check`
    is the independent sampling oracle kept alongside it.  One-step pairs
    suffice because the defining implication composes along nested chains.

    In the exact lane and against the concave class the check collapses: it
    passes exactly when every subset's payment shares equal its resource
    shares and :func:`validate_cross_monotonic` passes.  By induction on |B|,
    from the concave rules of :func:`_pair_violation`: a singleton holds and
    pays 1.  Let y = x on every set smaller than B, let i in B pay
    y_i(B) > 0, and let A = B minus one buyer hold i.  The rules force
    y_i(A) > 0, so x_i(A) > 0, then x_i(B) > 0, and then y_i(B) <= x_i(B),
    strictly when x_i(A) < x_i(B).  Both rows of B sum to 1, so y = x on B,
    and x_i(A) >= x_i(B).  Conversely, with y = x and x_a >= x_b every rule
    passes.
    """
    for i, a_mask, b_mask, pair_a, pair_b in _deletion_pairs(schedule, "monotonicity check"):
        found = _pair_violation(
            pair_a.resource[i], pair_b.resource[i],
            pair_a.payment[i], pair_b.payment[i],
            policy, report_class,
        )
        if found is not None:
            knots, constant = found
            return MonotonicityWitness(i, a_mask, b_mask, UtilityReport(knots), constant)
    return None


def _random_submask(rng: random.Random, mask_members: tuple) -> int:
    """Each member kept with chance 0.6; one drawn member when none is kept."""
    sub = 0
    for i in mask_members:
        if rng.random() < 0.6:
            sub |= 1 << i
    if sub == 0:
        sub = 1 << mask_members[_below(rng.getrandbits, len(mask_members))]
    return sub


# Samples of the concave class.  Each is a shape (trial % 4: random concave,
# linear, ramp, zero) and what the oracle's own generator draws for it: a
# random concave utility's slopes and scale, one per knot point of the pair,
# or one scale; its knot list is built only for a sample the exact lane
# cannot reject in integers.

U_MAX = 2  # a sampled utility is worth at most this at x = 1


def _draw_concave_sample(getrandbits, shape: int, count: int):
    """A sample's own draws from ``getrandbits``, by :func:`~groupbuy.utility._below`.

    For a random concave utility on ``count`` knot points its
    :func:`~groupbuy.utility.random_concave_draws`, (slopes, scale); for a
    linear or ramp one its scale in 0..GRAIN; for the zero utility None, and
    nothing is drawn.
    """
    if shape == 0:
        return random_concave_draws(getrandbits, count)
    if shape in (1, 2):
        return _below(getrandbits, GRAIN + 1)
    return None


def _concave_sample_knots(shape: int, draw, x_a: Num, x_b: Num, points: Sequence) -> tuple:
    """The sample's knot list; a random concave one has its knots at 0 and ``points``."""
    if shape == 0:
        return concave_knots(points, *draw, U_MAX)
    if shape == 1:
        return _linear_knots(U_MAX * Fraction(draw, GRAIN))
    if shape == 2:
        pos = x_a if 0 < x_a < 1 else (x_b if 0 < x_b < 1 else Fraction(1, 2))
        return _ramp_knots(pos, U_MAX * Fraction(draw, GRAIN))
    return _linear_knots(Fraction(0))


def _pair_knot_points(x_a: Num, x_b: Num) -> list:
    """Where a random concave sample at a pair has its knots besides 0: its x in (0, 1] and 1, sorted."""
    return concave_knot_points(x for x in (x_a, x_b) if 0 < x <= 1)


def _pair_record(x_a: Num, x_b: Num, y_a: Num, y_b: Num, policy: NumericPolicy) -> tuple:
    """What the oracle keeps of a (buyer, A, B) pair: (x_a, x_b, y_a, y_b, knot points, integers).

    Empty when y_b is not positive.  A random concave sample draws one slope
    per knot point.  In the exact lane, when all four shares are exact
    (:func:`integers_over_common_denominator`) and both x lie in [0, 1], the
    integers are (X_a, X_b, D, Y_a, Y_b) with x_a = X_a/D, x_b = X_b/D and
    Y_a : Y_b = y_a : y_b, and the knot points are the ints D times the
    pair's :func:`_pair_knot_points`; otherwise the integers are None and
    the knot points are the pair's own.
    """
    if not policy.is_positive(y_b):
        return ()
    if policy.exact:
        xs = integers_over_common_denominator((x_a, x_b))
        ys = integers_over_common_denominator((y_a, y_b))
        if xs is not None and ys is not None:
            d, (xa, xb) = xs
            if 0 <= xa <= d and 0 <= xb <= d:
                return x_a, x_b, y_a, y_b, sorted({x for x in (xa, xb) if x > 0} | {d}), (xa, xb, d, *ys[1])
    return x_a, x_b, y_a, y_b, _pair_knot_points(x_a, x_b), None


def _concave_sample_breaks(shape: int, draw, xa, xb, d, ya, yb, points) -> bool:
    """Whether the sample breaks the rule at the pair, decided in integers.

    Takes the sample's draws as :func:`_draw_concave_sample` gives them, and
    the pair's integers and then its integer knot points as :func:`_pair_record`
    keeps them, with yb > 0.  The oracle's candidate constants find a break
    exactly when ya = 0 or u(x_a)*y_b > u(x_b)*y_a, and the sign of that
    cross-product does not depend on the shape's positive scale: a linear
    utility compares x, a ramp min(x, knee), and a random concave one its
    drawn slopes integrated up to x over the integer knot points.  A zero
    scale, like the zero utility, never breaks the rule.
    """
    if ya <= 0:
        return True
    if shape == 0:
        slopes, level = draw
        if level == 0:
            return False
        value, total, prev = {0: 0}, 0, 0
        for x, slope in zip(points, slopes):
            total += slope * (x - prev)
            value[x] = total
            prev = x
        ua, ub = value[xa], value[xb]
    elif shape == 3 or draw == 0:
        return False
    elif shape == 1:
        ua, ub = xa, xb
    else:
        # with both x in {0, 1} the ramp's knee is 1/2: min(x, 1/2) = x/2, proportional to x
        knee = xa if 0 < xa < d else (xb if 0 < xb < d else d)
        ua, ub = min(xa, knee), min(xb, knee)
    return ua * yb > ub * ya


def _breaking_constant(
    uniform: int, knots: tuple, x_a: Num, x_b: Num, y_a: Num, y_b: Num, policy: NumericPolicy
) -> Optional[Num]:
    """The first candidate C with u(x_b) < C*y_b but not u(x_a) < C*y_a, or None.

    Tries ``uniform``/GRAIN (a draw in 1..GRAIN-1) of 2*u(x_b)/y_b + 1, then
    the midpoint of the violation window too when the window is open.
    """
    # the sampled utility at the pair's two shares, as its report would value them
    xs = tuple(x for x, _ in knots)
    us = tuple(u for _, u in knots)
    u_a = piecewise_value(xs, us, x_a)
    u_b = piecewise_value(xs, us, x_b)
    ratio_b = u_b / y_b
    if policy.is_positive(y_a):
        window_hi = u_a / y_a
    else:
        window_hi = ratio_b + U_MAX
    candidates = [Fraction(uniform, GRAIN) * (2 * ratio_b + 1)]
    if window_hi > ratio_b:
        candidates.append((ratio_b + window_hi) / 2)
    for c in candidates:
        premise = policy.lt(u_b, c * y_b)
        conclusion = policy.lt(u_a, c * y_a)
        if premise and not conclusion:
            return c
    return None


def brute_force_monotonicity_check(
    schedule: ShareSchedule,
    samples: int,
    seed: int = 0,
    policy: NumericPolicy = EXACT,
    report_class: ReportClass = CONCAVE,
) -> Optional[MonotonicityWitness]:
    """Sampling oracle: directly test the bound-carrying implication.

    Draws random (utility, C, buyer, A within B) tuples and checks that
    utility(x_i(B)) < C*y_i(B) forces utility(x_i(A)) < C*y_i(A).  Utilities
    rotate through random class members (concave reports, linears, ramps and
    the zero report, or powers when the class is a power family); besides a
    uniform draw, C is also tried at the midpoint of the candidate violation
    window so genuine violations are found quickly.  Sampled utilities are
    worth at most U_MAX = 2 at x=1.

    In the exact lane, a concave-class sample whose four shares are all
    rational is first decided in integers (:func:`_concave_sample_breaks`),
    from the drawn utility alone; the loop has drawn its uniform constant
    too, so the random stream, and every witness, is the same as when each
    sample is valued in ``Fraction`` arithmetic.  Float shares (ranked
    sqrt or power weights), the power class and the tolerance lane value every
    sample that way.

    A call builds one generator, ``random.Random(seed)``, and every integer is
    drawn from its ``getrandbits`` by :func:`~groupbuy.utility._below`, the
    rejection rule ``randrange`` and ``choice`` apply, so the stream is the one
    those calls would draw; ``test_witnesses_are_pinned`` pins it.  A random
    concave sample draws its slopes, one per knot point of the pair, and its
    scale from that stream too.  Each call builds its subsets' member tuples
    once, at most 2^ORACLE_MAX_BUYERS of them, and each (buyer, A, B) pair's
    record (:func:`_pair_record`) once, when it is first drawn: its shares and
    knot points, in the exact lane as integers.  There only a sample that
    becomes a witness builds its knot points from the pair's shares.
    """
    n = schedule.n
    check_cap(n, ORACLE_MAX_BUYERS, "brute-force monotonicity oracle")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    masks = list(nonempty_subsets(full_mask(n)))
    table = [members(m) for m in range(1 << n)]  # mask -> its members
    if report_class.kind == "power":
        k_lo, k_hi = Fraction(report_class.k_min), Fraction(report_class.k_max)
    pairs = {}  # (buyer, A, B) -> _pair_record
    for trial in range(samples):
        b_mask = masks[_below(getrandbits, len(masks))]
        a_mask = _random_submask(rng, table[b_mask])
        a_members = table[a_mask]
        i = a_members[_below(getrandbits, len(a_members))]
        key = (i, a_mask, b_mask)
        pair = pairs.get(key)
        if pair is None:
            in_a, in_b = schedule.shares_for(a_mask), schedule.shares_for(b_mask)
            pair = pairs[key] = _pair_record(
                in_a.resource[i], in_b.resource[i], in_a.payment[i], in_b.payment[i], policy
            )
        if not pair:  # y_b is not positive: no utility falls below a zero bound
            continue
        x_a, x_b, y_a, y_b, points, ints = pair

        shape = trial % 4
        if report_class.kind == "power":
            if shape == 3:
                knots = _linear_knots(Fraction(0))
            else:
                k = (k_hi, k_lo, k_lo + (k_hi - k_lo) * Fraction(_below(getrandbits, GRAIN), GRAIN))[shape]
                scale = U_MAX * Fraction(1 + _below(getrandbits, GRAIN - 1), GRAIN)
                knots = _power_knots(k, x_a, x_b, scale)
        else:
            draw = _draw_concave_sample(getrandbits, shape, len(points))
            knots = None
            if ints is None:
                knots = _concave_sample_knots(shape, draw, x_a, x_b, points)
            elif _concave_sample_breaks(shape, draw, *ints, points):  # a witness, on the shares' own points
                knots = _concave_sample_knots(shape, draw, x_a, x_b, _pair_knot_points(x_a, x_b))
        uniform = 1 + _below(getrandbits, GRAIN - 1)  # after the sample's own draws, rejected or not
        if knots is None:
            continue
        c = _breaking_constant(uniform, knots, x_a, x_b, y_a, y_b, policy)
        if c is not None:
            return MonotonicityWitness(i, a_mask, b_mask, UtilityReport(knots), c)
    return None


# ---------------------------------------------------------------------------
# Single crossing


@dataclass(frozen=True)
class SingleCrossingCounterexample:
    """C*weight exceeds the utility at x_above but not at the later x_not_above."""

    utility: ClosedFormUtility
    constant: Num
    x_above: Num
    x_not_above: Num


def single_crossing_check(
    weight: ClosedFormUtility, report_class: ReportClass
) -> Optional[SingleCrossingCounterexample]:
    """Does C*weight cross every class member at most once, from below?

    Decided in closed form.  The steepest class member x**k decides: k = k_max
    for the power family c*x**k, and k = 1 (x itself) for the concave class,
    whose chords through the origin only flatten.  A weight c*x**q passes
    exactly when q >= k, since C*c*x**q / x**k (c > 0) is non-decreasing iff
    q >= k.  Otherwise x**k is the witness, with C*weight above it at x = 1/4
    and not above it at x = 1.
    """
    _check_weight(weight)
    k = report_class.k_max if report_class.kind == "power" else 1
    if weight.k >= k:
        return None
    constant = Fraction(1, 2) ** (k - weight.k) / weight.c
    return SingleCrossingCounterexample(
        ClosedFormUtility.power(1, k), constant, Fraction(1, 4), Fraction(1)
    )


def report_class_for(schedule: ShareSchedule) -> tuple:
    """The report class a schedule is checked and fuzzed against, and the crossing that narrowed it.

    A ranked schedule whose weight x**q fails :func:`single_crossing_check`
    against the concave class is monotone only against power utilities c*x**k
    with k <= q, so it gets the family q/4 <= k <= q and the counterexample;
    every other schedule gets ``(CONCAVE, None)``.
    """
    if isinstance(schedule, RankedSchedule):
        crossing = single_crossing_check(schedule.weight, CONCAVE)
        if crossing is not None:
            q = schedule.weight.k
            return ReportClass("power", q / 4, q), crossing
    return CONCAVE, None
