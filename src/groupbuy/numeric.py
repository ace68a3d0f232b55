"""Arithmetic policies: exact rational comparisons or float comparisons with a tolerance.

Quantities in this package are plain Python numbers: ``fractions.Fraction``
(or ``int``) wherever a value is exactly representable, ``float`` where an
irrational closed form (sqrt, log) has been evaluated.  A ``NumericPolicy``
decides how two such numbers compare; it never changes how they are computed.

The package has one tolerance rule and applies it only here: exact when
``epsilon`` is None (meant for rational data), otherwise an absolute
``epsilon`` in every comparison, the engine's bottleneck test
``eq(ratio, bound)`` included.  A comparison takes the one difference of its
two arguments, subtracts ``epsilon`` and compares the result with 0; a NaN
difference (the same infinity on both sides) counts as 0.  IEEE subtraction
is antisymmetric (fl(b - a) is -fl(a - b)), a ``Fraction`` difference meets
``epsilon`` as its nearest float, which rounds d and -d alike, and
fl(d - epsilon) has the sign of d - epsilon.  So ``lt``, ``eq`` and ``gt``
split every pair of numbers three ways, infinities included, and ``le``/``ge``
are exactly ``lt or eq``/``gt or eq``: the auction's ``ge``, the scan's
comparisons of nets and the bottleneck's ``eq`` decide an edge alike.
``not is_positive`` is the one test of a zero share, in the checks, the
engine and ``validate-schedule``'s note alike; ``epsilon`` stays below
``MAX_EPSILON``, half of 1/``MAX_BUYERS``, the least share of a subset's
largest payer, where a ranked weight must be positive too.

Report validation and the concave menus compare chord slopes du/dx by one
rule beside it, :meth:`NumericPolicy.slope_le`.  The one test of exactness,
which every exact lane and integer path follows, is
:func:`integers_over_common_denominator`.

:func:`to_float` is the one conversion to a float: an infinity of the
number's sign past the largest float, as float arithmetic rounds an overflow.
:meth:`NumericPolicy.lane` makes the auction's threshold a lane number, as is
when exact and a float in the tolerance lane, whose comparisons then run on
floats only (:mod:`groupbuy.auction`).  :meth:`NumericPolicy.ratio` is
``lane(u / y)`` for a column's value over its payment share at the exact
share (:mod:`groupbuy.mechanism`).  In the tolerance lane it divides two
``Fraction``s as one int true division of the cross products, or takes
``u / y`` where that overflows.  Python rounds that division correctly, as
``float`` of the reduced ``Fraction`` is rounded: the same rational, so the
same float, without the gcd that ``u / y`` takes.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

Num = Union[int, float, Fraction]

DEFAULT_EPSILON = 1e-9
MAX_BUYERS = 32  # of every schedule, so a subset's largest payer holds at least 1/MAX_BUYERS
MAX_EPSILON = 0.5 / MAX_BUYERS  # half that least share, so is_positive passes it
MAX_EXPONENT = 4300  # of a parsed decimal, either sign: int() reads numerals of up to 4,300 digits
QUOTE_MAX = 40  # the longest repr a refusal repeats in full


@dataclass(frozen=True)
class NumericPolicy:
    """Comparison rules for scalars, exact or within the absolute ``epsilon``.

    With ``epsilon``, each comparison decides on one difference:
    ``lt(a, b)`` is ``b - a - epsilon > 0``, ``le(a, b)`` is
    ``not a - b - epsilon > 0`` and ``eq(a, b)`` is ``not abs(a - b) - epsilon > 0``,
    so a NaN difference counts as 0; ``gt`` and ``ge`` swap the arguments.
    ``epsilon`` is subtracted before the comparison with 0: a ``Fraction``
    difference less a float is one float subtraction, where ``d > epsilon``
    would compare through ``Fraction.from_float``.
    """

    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < MAX_EPSILON:
            raise ValueError(f"epsilon must be positive and finite and below 1/{2 * MAX_BUYERS}, "
                             f"not {self.epsilon!r}")

    @property
    def exact(self) -> bool:
        return self.epsilon is None

    def eq(self, a: Num, b: Num) -> bool:
        if self.epsilon is None:
            return a == b
        return not abs(a - b) - self.epsilon > 0  # not >, where <= would fail a NaN (equal infinities)

    def lt(self, a: Num, b: Num) -> bool:
        if self.epsilon is None:
            return a < b
        return b - a - self.epsilon > 0

    def le(self, a: Num, b: Num) -> bool:
        if self.epsilon is None:
            return a <= b
        return not a - b - self.epsilon > 0

    def gt(self, a: Num, b: Num) -> bool:
        return self.lt(b, a)

    def ge(self, a: Num, b: Num) -> bool:
        return self.le(b, a)

    def is_positive(self, v: Num) -> bool:
        """``lt(0, v)``, without the ``- 0``."""
        if self.epsilon is None:
            return v > 0
        return v - self.epsilon > 0

    def slope_le(self, du: Num, dx: Num, du0: Num, dx0: Num) -> bool:
        """Whether the chord slope ``du/dx`` is at most ``du0/dx0``, for ``dx, dx0 > 0``.

        Exact: cross-multiplied, so integers stay integers.  Tolerance:
        ``le`` on the two quotients.
        """
        if self.epsilon is None:
            return du * dx0 <= du0 * dx
        return self.le(du / dx, du0 / dx0)

    def lane(self, v: Num) -> Num:
        """``v`` as the engine computes with it: as is when exact, else a float."""
        return v if self.epsilon is None else to_float(v)

    def ratio(self, u: Num, y: Num) -> Num:
        """``lane(u / y)``, bit for bit, for ``y`` != 0; two ``Fraction``s
        in the tolerance lane take one int true division (see the module notes),
        and two floats give their quotient as is."""
        if self.epsilon is None:
            return u / y
        if type(u) is Fraction and type(y) is Fraction:
            try:
                return (u.numerator * y.denominator) / (u.denominator * y.numerator)
            except OverflowError:
                pass
        elif type(u) is float and type(y) is float:  # float division rounds an overflow to an infinity
            return u / y
        return to_float(u / y)


EXACT = NumericPolicy()


def approx(epsilon: float = DEFAULT_EPSILON) -> NumericPolicy:
    return NumericPolicy(epsilon)


def integers_over_common_denominator(values) -> Optional[tuple]:
    """``(d, ints)``: exact ``values`` as the integers ``v * d``, ``d`` their least common denominator.

    None unless every value is an ``int`` or a ``Fraction``.  Order, equality
    and chord-slope comparisons of the integers are those of the values, so
    the exact lane can decide them on ints.  Each value is read by one
    ``as_integer_ratio()``, which both types give in lowest terms.
    """
    for v in values:
        if type(v) is not Fraction and type(v) is not int:  # by type: a bool is no exact number
            return None
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


def to_float(v: Num) -> float:
    """``float(v)``, or past the largest float an infinity of v's sign, as float arithmetic rounds."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def quote(value) -> str:
    """A refusal's quote of a scenario-file value: its ``repr`` when at most
    ``QUOTE_MAX`` characters, else the repr's first characters and the value's length."""
    text = repr(value)
    return text if len(text) <= QUOTE_MAX else _clipped(text, len(str(value)))


def quote_key(key) -> str:
    """A loader label's quote of a subset key: the key in double quotes, its first
    characters and its length inside them when it is longer than ``QUOTE_MAX``."""
    text = str(key)
    return f'"{text if len(text) <= QUOTE_MAX else _clipped(text, len(text))}"'


def _clipped(text: str, length: int) -> str:
    return f"{text[:QUOTE_MAX // 2]}... ({length} characters)"


_DIGIT_RUN = re.compile(r"[\d_]+")


def check_digits(numeral: str) -> None:
    """The one digit rule: a ValueError when ``numeral`` holds a run of more than ``MAX_EXPONENT`` digits.

    ``int()`` reads up to that many digits, underscores not counted, and a
    ``Fraction`` string is read one run at a time (whole part, decimals,
    denominator, exponent).  The error names the count and the limit, not the
    value.
    """
    if len(numeral) > MAX_EXPONENT:  # a shorter numeral holds no longer run
        digits = max((len(run) - run.count("_") for run in _DIGIT_RUN.findall(numeral)), default=0)
        if digits > MAX_EXPONENT:
            raise ValueError(f"integer of {digits} digits, beyond the limit of {MAX_EXPONENT}")


def parse_number(value) -> Fraction:
    """Parse a scenario-file number: int, "p/q" string, or decimal string.

    Raw JSON floats are accepted and converted through their decimal repr, so
    0.9 becomes 9/10 rather than the nearest binary float.  A string past
    :func:`check_digits`, or a decimal whose exponent exceeds ``MAX_EXPONENT``
    in magnitude, is rejected before its ``Fraction`` is built.  A number must
    convert to a finite float, since the tolerance lane computes in floats.
    One nearer 0 than the least subnormal float (about 4.9e-324) converts to
    0.0 and loads: it keeps its exact value, but decimal renderings show it,
    and the tolerance lane computes with it, as 0.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, (float, str)):
        text = str(value).strip()
        check_digits(text)
        _, e, exponent = text.lower().partition("e")
        try:
            beyond = bool(e) and abs(int(exponent)) > MAX_EXPONENT
            number = None if beyond else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse number {quote(value)}") from exc
        if beyond:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in magnitude: {quote(value)}")
    elif integers_over_common_denominator((value,)) is not None:
        number = Fraction(value)
    else:
        raise ValueError(f"cannot parse number {quote(value)}")
    if not math.isfinite(to_float(number)):
        raise ValueError(f"not a finite float: {quote(value)}")
    return number


def decimal_str(v: Num) -> str:
    """Decimal rendering with 15 significant digits."""
    return f"{to_float(v):.15g}"


def exact_str(v: Num) -> str:
    """``str(Fraction(v))``, through ``Decimal``: ``str(int)`` stops at 4,300 digits."""
    p, q = map(Decimal, v.as_integer_ratio())
    return f"{p}/{q}".removesuffix("/1")


def piecewise_value(xs, us, x):
    """Evaluate the piecewise-linear function through (xs, us) at x.

    ``xs`` must be strictly increasing and bracket ``x``.  Returns the knot
    value without interpolation arithmetic when ``x`` hits a knot, so sampled
    values survive round-trips exactly.
    """
    i = bisect.bisect_right(xs, x) - 1
    if i < 0:
        raise ValueError(f"{x} below the first knot {xs[0]}")
    if xs[i] == x:
        return us[i]
    if i + 1 >= len(xs):
        raise ValueError(f"{x} above the last knot {xs[-1]}")
    x0, x1 = xs[i], xs[i + 1]
    u0, u1 = us[i], us[i + 1]
    return u0 + (u1 - u0) * (x - x0) / (x1 - x0)
