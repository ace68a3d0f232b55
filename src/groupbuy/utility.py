"""Utility reports: piecewise-linear concave functions on [0, 1] worth nothing at 0.

The message space of the group-bidding mechanism is the set of finite knot
lists whose piecewise-linear extrapolation is concave, non-decreasing, zero at
x=0 and defined up to x=1.  Closed forms c*x**k (0 < k <= 1; ``linear`` is
k = 1) and c*ln(1+x) are admissible by construction, so the engine also takes
a :class:`ClosedFormUtility` as a report and evaluates it at the share it
queries.  The same family supplies the weights of ranked schedules (powers
with c = 1), and the power-family fuzz menus hold its members as they are.
A closed form gives rational values exactly when it is a power with k = 1:
:attr:`ClosedFormUtility.rational`, which evaluation and the loader read.
:func:`sample_report` turns a closed form into a knot list at given share
points, for the oracles and records that need knots (a coalition-scan
violation records a closed-form deviant so); at those points both give the
same value.  A knot list answers a query at one of its knots with the stored
value, looked up, and interpolates between knots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .numeric import EXACT, Num, approx, integers_over_common_denominator, piecewise_value, to_float


class InvalidReportError(ValueError):
    pass


def validate_knots(knots: Sequence) -> Optional[str]:
    """Check the report invariants; return the first failure's message, or None.

    Comparisons are exact when :func:`integers_over_common_denominator` puts
    every coordinate over their common denominator, and then run on those
    integers; under the default float tolerance otherwise.  Concavity compares
    each chord's slope with the one before by :meth:`NumericPolicy.slope_le`.
    """
    if len(knots) == 0:
        return "knot list is empty"
    xs = [x for x, _ in knots]
    us = [u for _, u in knots]
    exact = integers_over_common_denominator(xs + us)
    if exact is None:
        policy, one = approx(), 1
    else:
        policy, (one, coords) = EXACT, exact
        xs, us = coords[:len(xs)], coords[len(xs):]
    if not (policy.eq(xs[0], 0) and policy.eq(us[0], 0)):
        return "first knot must be (0, 0), violated at knot 0"
    for i in range(1, len(xs)):
        if not policy.lt(xs[i - 1], xs[i]):
            return f"knot x values must be strictly increasing at knot {i}"
    if not policy.eq(xs[-1], one):
        return f"last knot must sit at x=1, violated at knot {len(xs) - 1}"
    for i in range(1, len(us)):
        if not policy.le(us[i - 1], us[i]):
            return f"values decrease at knot {i}"
    chords = [(us[i] - us[i - 1], xs[i] - xs[i - 1]) for i in range(1, len(xs))]
    for i in range(1, len(chords)):
        if not policy.slope_le(*chords[i], *chords[i - 1]):
            return f"not concave at knot {i + 1}"
    return None


@dataclass(frozen=True)
class UtilityReport:
    """A validated knot list; evaluation interpolates linearly between knots."""

    knots: tuple

    def __post_init__(self):
        normalized = tuple((x, u) for x, u in self.knots)
        message = validate_knots(normalized)
        if message is not None:
            raise InvalidReportError(message)
        self._set_knots(normalized)

    @classmethod
    def _checked(cls, knots: tuple) -> "UtilityReport":
        """The report on a tuple of (x, u) pairs that already passes :func:`validate_knots`.

        For builders that decide every check on the way, such as the concave
        menus; it skips the validation that ``UtilityReport(knots)`` runs.
        """
        report = object.__new__(cls)
        report._set_knots(knots)
        return report

    def _set_knots(self, knots: tuple) -> None:
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_xs", tuple(x for x, _ in knots))
        object.__setattr__(self, "_us", tuple(u for _, u in knots))
        object.__setattr__(self, "_at", dict(knots))

    def value_at(self, x: Num) -> Num:
        # a knot's own value, as piecewise_value returns it at a knot
        u = self._at.get(x)
        return piecewise_value(self._xs, self._us, x) if u is None else u


@dataclass(frozen=True)
class ClosedFormUtility:
    """Closed-form utility c*x**k or c*ln(1+x), usable directly as a report.

    ``linear(c)`` is the power k = 1.  The power exponent must lie in (0, 1]:
    a zero exponent with c > 0 would be worth c at x=0, which no admissible
    report can be.  ``rational``: whether rational shares get rational values.
    """

    kind: str  # power | log
    c: Num
    k: Optional[Num] = None

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.c < 0:
            raise ValueError("coefficient must be non-negative")
        if self.kind == "power":
            if self.k is None or not (0 < self.k <= 1):
                raise ValueError("power exponent must lie in (0, 1]")
        elif self.k is not None:
            raise ValueError(f"{self.kind} utility takes no exponent")
        object.__setattr__(self, "rational", self.kind == "power" and self.k == 1)  # no field: not in ==, repr

    @classmethod
    def linear(cls, c: Num) -> "ClosedFormUtility":
        return cls("power", c, 1)

    @classmethod
    def power(cls, c: Num, k: Num) -> "ClosedFormUtility":
        return cls("power", c, k)

    @classmethod
    def log(cls, c: Num) -> "ClosedFormUtility":
        return cls("log", c)

    def value_at(self, x: Num) -> Num:
        if x < 0 or x > 1:
            raise ValueError(f"utility argument {x} outside [0, 1]")
        if self.kind == "log":
            return self.c * math.log1p(x) if x != 0 else self.c * 0
        if x == 0 or x == 1 or self.rational:
            # c * x, not a bare c: rational x keeps the value rational
            return self.c * x
        # the float that c * x ** k computes through Fraction's mixed arithmetic
        return to_float(self.c) * float(x) ** to_float(self.k)


def sample_points(points: Iterable[Num]) -> list:
    """The given points with 0 and 1 added if absent, sorted: where :func:`sample_knots` samples."""
    return sorted(set(points) | {Fraction(0), Fraction(1)})


def sample_knots(form: ClosedFormUtility, points: Iterable[Num]) -> tuple:
    """Knots (p, f(p)) over :func:`sample_points`; ``value_at`` checks each."""
    return tuple((x, form.value_at(x)) for x in sample_points(points))


def sample_report(form: ClosedFormUtility, points: Iterable[Num]) -> UtilityReport:
    """The report through :func:`sample_knots`."""
    return UtilityReport(sample_knots(form, points))


GRAIN = 10 ** 6  # random utilities draw their slopes and scales in steps of 1/GRAIN


def _below(getrandbits, n: int) -> int:
    """A uniform integer in 0..n-1 (n > 0), drawn from ``getrandbits``.

    This is the rule CPython's ``Random.randrange`` and ``Random.choice`` apply
    after their argument checks: draw ``n.bit_length()`` bits, and draw again
    while the result is n or more.  So ``_below(rng.getrandbits, n)`` returns
    ``rng.randrange(n)`` and leaves ``rng`` in the same state, and
    ``seq[_below(rng.getrandbits, len(seq))]`` is ``rng.choice(seq)``, without
    their per-call overhead.  ``tests/test_utility.py`` checks the equality and
    ``test_witnesses_are_pinned`` pins the oracle's stream drawn this way.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_concave_draws(getrandbits, count: int) -> tuple:
    """What a random concave utility on ``count`` points draws, in units of 1/GRAIN.

    Returns ``count`` slopes in 1..GRAIN-1, non-increasing, and the scale in
    0..GRAIN, drawn from ``getrandbits`` by :func:`_below`, the rejection rule
    of ``randrange``: the numbers ``randrange(1, GRAIN)`` (per slope) and then
    ``randrange(0, GRAIN + 1)`` would give on the generator ``getrandbits``
    belongs to, which is left in the state those calls leave.  The sampling
    oracle passes its own generator's; :func:`random_concave_knots` a fresh
    one's.
    """
    slopes = sorted([1 + _below(getrandbits, GRAIN - 1) for _ in range(count)], reverse=True)
    return slopes, _below(getrandbits, GRAIN + 1)


def concave_knot_points(points: Iterable[Num]) -> list:
    """The given points with 1 added if absent, sorted: where a random concave utility has its knots besides 0."""
    xs = sorted(set(points) | {Fraction(1)})
    if any(not (0 < x <= 1) for x in xs):
        raise ValueError("points must lie in (0, 1]")
    return xs


def concave_knots(xs: Sequence, slopes: Sequence, level: int, u_max: Num) -> tuple:
    """The knot list on 0 and the sorted points ``xs`` of :func:`random_concave_draws`' numbers.

    Integrates the slopes (one per point, over the gap below it; in units of
    1/GRAIN), then scales so the value at the last point is ``level``/GRAIN
    of ``u_max``.
    """
    values = []
    total = Fraction(0)
    prev = Fraction(0)
    for x, slope in zip(xs, slopes):
        total += Fraction(slope, GRAIN) * (x - prev)
        values.append(total)
        prev = x
    scale = u_max * Fraction(level, GRAIN) / values[-1]
    knots = [(Fraction(0), 0 * scale)]
    knots.extend((x, v * scale) for x, v in zip(xs, values))
    return tuple(knots)


def random_concave_knots(seed: int, points: Iterable[Num], u_max: Num) -> tuple:
    """Deterministic-in-seed random admissible knot list on {0} | points.

    Draws non-increasing positive rational slopes from a fresh
    ``random.Random(seed)`` and integrates them (:func:`concave_knots`), so
    the top value lands in [0, u_max].  The point at x=1 is added when
    missing since every report must extend to the whole resource.
    """
    if not u_max > 0:
        raise ValueError("u_max must be positive")
    xs = concave_knot_points(points)
    return concave_knots(xs, *random_concave_draws(random.Random(seed).getrandbits, len(xs)), u_max)


@dataclass(frozen=True)
class ReportClass:
    """A family of admissible utilities: the concave class, or c*x**k with k_min <= k <= k_max."""

    kind: str  # concave | power
    k_min: Optional[Num] = None
    k_max: Optional[Num] = None

    def __post_init__(self):
        if self.kind == "power":
            if None in (self.k_min, self.k_max) or not (0 < self.k_min <= self.k_max <= 1):
                raise ValueError("power family needs 0 < k_min <= k_max <= 1")
        elif self.kind != "concave":
            raise ValueError(f"unknown report class kind {self.kind!r}")

    def contains(self, report) -> bool:
        """Whether an admissible report is a member; knot lists count only as concave.

        A closed form with c = 0 is the zero utility, c*x**k at every k, so it
        lies in every power family.
        """
        if self.kind == "concave":
            return True
        return isinstance(report, ClosedFormUtility) and (
            report.c == 0 or report.kind == "power" and self.k_min <= report.k <= self.k_max
        )


CONCAVE = ReportClass("concave")
