"""Property harnesses: coalition deviation fuzzing and schedule comparison.

These are the desk-scale oracles for the mechanism's incentive claims.  None
of them proves anything; they enumerate or sample deviations and instances and
report concrete counterexamples when the claimed property fails to hold.  A
scan's menus span the schedule's report class (:func:`report_menus`).

The coalition scan judges outcomes, not profiles: the group always pays the
threshold, so a misreport only changes whether the group buys and its winning
set.  It runs in three stages.  Compile, once per instance (true reports,
schedule, menus, policy): every true and menu report becomes a ratio column
(:class:`groupbuy.mechanism.RatioColumn`), and each buyer's share in each of
the 2^n outcomes is valued once by its true report.  Judge, once per auction
config: the truthful winning set, then an outcome table of those values less
the payments of the group run's own division at the threshold
(:func:`groupbuy.mechanism.divide`), then each outcome compared with the
truthful one once per buyer, as two flags: weak and strict preference.
Search, once per coalition: a coalition judges every outcome by its members'
flags before it scans; one that no outcome improves is certified and runs no
profile.  The truthful profile and every deviant one of the others take one
path: the engine's steps over the compiled columns
(:func:`groupbuy.mechanism.bid_steps`), read up to the one that decides the
auction through the group run's own rule
(:func:`groupbuy.auction.decide_winning_set`).

The scan keeps one compiled instance, the last: a call reuses it when its
schedule, its true reports and every menu entry are the same objects as
before (menu lengths included) and its policy is equal, so the configs of
one instance scanned in a row compile once.  Any other call compiles afresh
and replaces it; nothing is keyed by value, and nothing outlives the next
call on another instance.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .auction import AuctionConfig, decide_winning_set, run_group_participation
from .mechanism import AllocationOutcome, BidTrace, RatioColumn, bid_steps, divide
from .numeric import EXACT, Num, NumericPolicy, approx, integers_over_common_denominator, to_float
from .schedule import ShareSchedule, check_cap, full_mask, members, nonempty_subsets, report_class_for
from .utility import ClosedFormUtility, UtilityReport, sample_points, sample_report, validate_knots


FUZZ_MAX_BUYERS = 3  # buyer-count limit of the deviation scans
DEFAULT_BUDGET = 200_000  # profiles a scan may cover, unless told otherwise; also --budget's default


# ---------------------------------------------------------------------------
# Preferences over outcomes


@dataclass(frozen=True)
class PreferenceOutcome:
    """What a buyer got, valued by its true utility.

    Ordered lexicographically: higher net first; at equal net, actually
    receiving a share beats walking away empty-handed.  The tie rule encodes
    the assumption that a buyer would rather break even on a real share than
    get nothing; extending it to all equal-net comparisons is a modelling
    choice, so violations record whether they lean on it.
    """

    net: Num
    wins_nonzero: bool


def strictly_prefers(a: PreferenceOutcome, b: PreferenceOutcome, policy: NumericPolicy) -> bool:
    if policy.gt(a.net, b.net):
        return True
    return policy.eq(a.net, b.net) and a.wins_nonzero and not b.wins_nonzero


def weakly_prefers(a: PreferenceOutcome, b: PreferenceOutcome, policy: NumericPolicy) -> bool:
    return not strictly_prefers(b, a, policy)


# ---------------------------------------------------------------------------
# Report grids for the fuzzers


def concave_report_grid(
    schedule: ShareSchedule,
    levels: Sequence[Num] = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
) -> list:
    """Per-buyer report menus: value tuples at the buyer's reachable share points.

    Every tuple over the level grid whose piecewise-linear extrapolation is
    admissible becomes one report, so the menu spans the whole concave class
    at grid resolution.  Tuples are built depth-first in product order, and a
    prefix grows only while it stays non-decreasing and concave under the
    comparisons of :func:`validate_knots` (``policy.le`` on values,
    :meth:`NumericPolicy.slope_le` on chords); in the exact lane they run on
    the integers that put the points and levels over one denominator.  The
    checks on the share points alone (first knot (0, 0), strictly increasing
    x, last point at x = 1) run once per buyer, as :func:`validate_knots` of
    the zero utility at its points; a buyer that fails them gets an empty
    menu.  So each leaf already passes every check and builds its
    ``Fraction`` knots into a report unvalidated.
    """
    scaled = tuple(Fraction(l) for l in levels)
    grid = []
    for buyer in range(schedule.n):
        points = schedule.share_points(buyer)
        menu = []
        grid.append(menu)
        if validate_knots(((Fraction(0), Fraction(0)), *((x, Fraction(0)) for x in points))) is not None:
            continue
        exact = integers_over_common_denominator((*points, *scaled))  # the levels are exact
        if exact is None:
            policy, xs, us = approx(), points, scaled
        else:
            policy, (_, ints) = EXACT, exact
            xs, us = ints[:len(points)], ints[len(points):]
        xs = (0, *xs)

        def extend(picks, du0, dx0):
            depth = len(picks)
            if depth == len(points):
                knots = ((Fraction(0), Fraction(0)), *zip(points, (scaled[j] for j in picks)))
                menu.append(UtilityReport._checked(knots))
                return
            u0 = us[picks[-1]] if picks else 0
            dx = xs[depth + 1] - xs[depth]
            for j, u in enumerate(us):
                if policy.le(u0, u):
                    du = u - u0
                    if not depth or policy.slope_le(du, dx, du0, dx0):
                        extend((*picks, j), du, dx)

        extend((), None, None)
    return grid


def power_report_grid(
    schedule: ShareSchedule,
    coefficients: Sequence[Num] = (0, Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2)),
    *,
    exponents: Sequence[Num],
) -> list:
    """Per-buyer menus of c*x**k members, each a :class:`ClosedFormUtility`.

    For schedules whose monotonicity only holds against a power family, the
    fuzz must stay inside that family.  The engine evaluates each member at
    the share it queries, the value its knot list at the buyer's share points
    would hold.  Members whose float values at those points (0 and 1 added)
    coincide collapse into the first, as every c=0 member does.
    """
    forms = [ClosedFormUtility.linear(0)]
    forms.extend(
        ClosedFormUtility.power(c, k)
        for c in coefficients if c > 0
        for k in exponents
    )
    grid = []
    for buyer in range(schedule.n):
        xs = sample_points(schedule.share_points(buyer))
        menu = []
        seen = set()
        for form in forms:
            signature = tuple(to_float(form.value_at(x)) for x in xs)
            if signature not in seen:
                seen.add(signature)
                menu.append(form)
        grid.append(menu)
    return grid


def report_menus(schedule: ShareSchedule) -> list:
    """Menus over :func:`~groupbuy.schedule.report_class_for`'s class, as ``groupbuy fuzz`` scans.

    A power family gets its members at four evenly spread exponents from
    k_min to k_max (1/8, 1/4, 3/8 and 1/2 for ranked sqrt), as closed forms
    the engine evaluates at the share it queries; the concave class gets its
    grid of knot lists.  Every entry lies in the class.  Above
    ``FUZZ_MAX_BUYERS`` it raises before enumerating any share point.
    """
    check_cap(schedule.n, FUZZ_MAX_BUYERS, "deviation enumeration")
    report_class, _ = report_class_for(schedule)
    if report_class.kind == "power":
        lo, hi = report_class.k_min, report_class.k_max
        exponents = [lo + (hi - lo) * Fraction(j, 3) for j in range(4)]
        return power_report_grid(schedule, exponents=exponents)
    return concave_report_grid(schedule)


# ---------------------------------------------------------------------------
# Coalition deviation fuzzing


def _recorded(report, schedule: ShareSchedule, buyer: int) -> UtilityReport:
    """A menu report as a violation records it: a closed form as its knot list at the buyer's points."""
    if isinstance(report, ClosedFormUtility):
        return sample_report(report, schedule.share_points(buyer))
    return report


class BudgetError(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"exhaustive scan needs {estimate} profiles but the budget is {budget}"
        )
        self.estimate = estimate
        self.budget = budget


@dataclass(frozen=True)
class DeviationViolation:
    """A joint misreport after which no coalition member is worse off and one gains.

    ``uses_tiebreak`` marks violations that vanish when outcomes are compared
    by net value alone, i.e. that depend on the win-a-share tie rule.
    ``deviant_reports`` are knot lists: a closed-form menu entry is recorded
    as its :func:`sample_report` at the buyer's positive share points.
    """

    coalition: int
    truthful_reports: tuple
    deviant_reports: tuple
    config: AuctionConfig
    before: tuple  # PreferenceOutcome per coalition member
    after: tuple
    uses_tiebreak: bool


@dataclass(frozen=True)
class CoalitionScan:
    """How a scan covered one coalition's ``profiles``.

    ``status`` is ``certified`` when no outcome improves the coalition, so
    none of its profiles ran the engine, and ``scanned`` when all of them did.
    """

    coalition: int
    status: str
    profiles: int

    @property
    def evaluated(self) -> int:
        """Profiles that ran the engine."""
        return 0 if self.status == "certified" else self.profiles


@dataclass(frozen=True)
class FuzzResult:
    """Violations, profiles covered, and one :class:`CoalitionScan` per coalition in scan order."""

    violations: tuple
    profiles: int
    truncated: bool
    coalitions: tuple = ()

    @property
    def evaluated(self) -> int:
        """Profiles that ran the engine; ``profiles`` also counts the certified ones."""
        return sum(scan.evaluated for scan in self.coalitions)


class _Instance:
    """A scan's instance compiled once for every auction config.

    Ratio columns for the true reports and every menu entry, and per winning
    set ``won`` (0: no purchase) each buyer's true value for its share there
    as a lane number (``values[won]``) and whether that share is positive
    (``wins[won]``).  None of it depends on the config.
    """

    __slots__ = ("schedule", "policy", "true_columns", "menus", "values", "wins")

    def __init__(self, true_reports, schedule, report_grid, policy):
        self.schedule = schedule
        self.policy = policy
        self.true_columns = [RatioColumn(schedule, policy, i, r) for i, r in enumerate(true_reports)]
        self.menus = [
            [RatioColumn(schedule, policy, i, r) for r in menu] for i, menu in enumerate(report_grid)
        ]
        self.values, self.wins = [], []
        for won in range(full_mask(schedule.n) + 1):
            fractions = divide(schedule, won, 0).fractions  # the shares, whatever the price
            self.values.append(tuple(
                policy.lane(report.value_at(x)) for report, x in zip(true_reports, fractions)
            ))
            self.wins.append(tuple(policy.is_positive(x) for x in fractions))

    def named_by(self, true_reports, schedule, report_grid, policy) -> bool:
        """Whether a call names this instance: the same objects throughout and an equal policy."""

        def same(columns, reports):
            return len(columns) == len(reports) and all(c.report is r for c, r in zip(columns, reports))

        return (
            self.schedule is schedule
            and self.policy == policy
            and same(self.true_columns, true_reports)
            and all(same(columns, menu) for columns, menu in zip(self.menus, report_grid))
        )


_last_instance = None  # the one instance the scan keeps: the last it compiled


def _compiled(true_reports, schedule, report_grid, policy) -> _Instance:
    """The last compiled instance if the call names it, else a fresh compile that replaces it.

    Identity, not value, keys the memo, and the instance holds every object
    it is keyed by, so none of them can be freed and its id reused.
    """
    global _last_instance
    instance = _last_instance
    if instance is None or not instance.named_by(true_reports, schedule, report_grid, policy):
        instance = _last_instance = _Instance(true_reports, schedule, report_grid, policy)
    return instance


def _judged(instance: _Instance, cfg: AuctionConfig, truthful: int) -> tuple:
    """(table, flags): every outcome valued for ``cfg``, and compared with the truthful one.

    ``table[won]`` holds each buyer's :class:`PreferenceOutcome`: its compiled
    value less its payment when ``won`` buys at the lane's threshold.  Bit i
    of the two masks in ``flags[won]`` says whether buyer i weakly prefers
    that outcome to ``table[truthful]`` and whether it strictly prefers it.
    """
    schedule, policy = instance.schedule, instance.policy
    threshold = policy.lane(cfg.threshold)
    table = [
        tuple(
            PreferenceOutcome(value - payment, wins_nonzero)
            for value, payment, wins_nonzero in zip(
                values, divide(schedule, won, threshold).payments, wins
            )
        )
        for won, (values, wins) in enumerate(zip(instance.values, instance.wins))
    ]
    base_prefs = table[truthful]
    flags = []
    for row in table:
        weak = strict = 0
        for i, (after, before) in enumerate(zip(row, base_prefs)):
            bit = 1 << i
            if weakly_prefers(after, before, policy):
                weak |= bit
            if strictly_prefers(after, before, policy):
                strict |= bit
        flags.append((weak, strict))
    return table, flags


def enumerate_coalition_deviations(
    true_reports: Sequence[UtilityReport],
    schedule: ShareSchedule,
    cfg: AuctionConfig,
    report_grid: Sequence[Sequence[UtilityReport]],
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    policy: NumericPolicy = EXACT,
) -> FuzzResult:
    """Try every joint misreport of every coalition against truthful play.

    Coalitions of one or two buyers are crossed exhaustively (refusing with a
    size estimate when that alone exceeds the budget); the three-buyer
    coalition is sampled within the remaining budget.  An empty violation list
    over a monotone schedule is the expected desk-scale outcome.

    Every misreport ends in one of 2^n outcomes (no purchase, or a winning
    set at the threshold), so each coalition first judges all of them.  If
    none improves it, the coalition is certified: no misreport of any kind,
    on the grid or off it, can profit it, and its profiles run no engine.
    They still count as covered in ``profiles``: all of them, or in the
    sampled branch the remaining budget, with ``truncated`` set.  A certified
    coalition in the sampled branch draws nothing from the random stream; at
    n <= 3 it is the last coalition, so no later draw moves.  Every profile,
    the truthful one included, wins the set ``run`` reports for it, decided
    on ``cfg`` itself by :func:`decide_winning_set`.

    The columns and the outcome values do not depend on ``cfg``, so they are
    compiled once per instance and kept for the next call while it names the
    same schedule, true report and menu entry objects under an equal policy:
    scanning one instance against several configs in a row compiles it once.
    Each call decides its truthful winning set and its outcome flags on
    ``cfg``; a call on any other objects compiles again and drops the kept
    instance.
    """
    n = schedule.n
    check_cap(n, FUZZ_MAX_BUYERS, "deviation enumeration")
    if len(true_reports) != n:
        raise ValueError(f"{len(true_reports)} reports for a {n}-buyer schedule")
    if len(report_grid) != n:
        raise ValueError("report grid must have one menu per buyer")

    everyone = full_mask(n)
    instance = _compiled(true_reports, schedule, report_grid, policy)
    true_columns, menus = instance.true_columns, instance.menus

    def decide(columns):
        return decide_winning_set(bid_steps(columns, policy, everyone), cfg, policy)

    truthful = decide(true_columns)
    table, flags = _judged(instance, cfg, truthful)
    base_prefs = table[truthful]

    coalitions = sorted(nonempty_subsets(everyone), key=lambda m: (m.bit_count(), m))
    exhaustive = sum(
        math.prod(len(report_grid[i]) for i in members(mask))
        for mask in coalitions
        if mask.bit_count() <= 2
    )
    if exhaustive > budget:
        raise BudgetError(exhaustive, budget)

    rng = random.Random(seed)
    violations = []
    scans = []
    profiles = 0
    truncated = False

    def judge(mask, idxs, won):
        """(before, after, uses_tiebreak) if winning set ``won`` improves ``mask``, else None."""
        weak, strict = flags[won]
        if weak & mask != mask or not strict & mask:
            return None
        before = tuple(base_prefs[i] for i in idxs)
        after = tuple(table[won][i] for i in idxs)
        # every member weakly prefers ``after``, so no net fell: net alone improves iff one rose
        return before, after, not any(policy.gt(a.net, b.net) for a, b in zip(after, before))

    for mask in coalitions:
        idxs = members(mask)
        picks = [menus[i] for i in idxs]
        total = math.prod(len(m) for m in picks)
        sampled = len(idxs) > 2 and total > budget - profiles
        covered = max(budget - profiles, 0) if sampled else total
        truncated = truncated or sampled
        profiles += covered
        verdicts = [judge(mask, idxs, won) for won in range(everyone + 1)]
        if all(verdict is None for verdict in verdicts):
            scans.append(CoalitionScan(mask, "certified", covered))
            continue
        scans.append(CoalitionScan(mask, "scanned", covered))
        if sampled:
            scan = (tuple(rng.choice(menu) for menu in picks) for _ in range(covered))
        else:
            scan = itertools.product(*picks)
        for profile in scan:
            columns = list(true_columns)
            for i, column in zip(idxs, profile):
                columns[i] = column
            verdict = verdicts[decide(columns)]
            if verdict is not None:
                before, after, uses_tiebreak = verdict
                violations.append(
                    DeviationViolation(
                        coalition=mask,
                        truthful_reports=tuple(true_reports[i] for i in idxs),
                        deviant_reports=tuple(
                            _recorded(column.report, schedule, i) for i, column in zip(idxs, profile)
                        ),
                        config=cfg,
                        before=before,
                        after=after,
                        uses_tiebreak=uses_tiebreak,
                    )
                )

    violations.sort(key=lambda v: (v.coalition, tuple(r.knots for r in v.deviant_reports)))
    return FuzzResult(tuple(violations), profiles, truncated, tuple(scans))


# ---------------------------------------------------------------------------
# Schedule comparison


@dataclass(frozen=True)
class ScheduleRun:
    name: str
    schedule: ShareSchedule
    trace: BidTrace
    outcome: AllocationOutcome


@dataclass(frozen=True)
class ScheduleComparison:
    runs: tuple
    dominance: dict  # (name_a, name_b) -> relation of a's bid vector vs b's


def _bid_vector_relation(u: Sequence[Num], v: Sequence[Num], policy: NumericPolicy) -> str:
    # equal is ge and le: lt, eq and gt split every pair three ways
    pairs = list(itertools.zip_longest(u, v, fillvalue=Fraction(0)))
    ge = all(policy.ge(x, y) for x, y in pairs)
    le = all(policy.le(x, y) for x, y in pairs)
    if ge:
        return "equal" if le else "dominates"
    return "dominated" if le else "incomparable"


def compare_schedules(
    reports: Sequence[UtilityReport],
    schedules: Mapping[str, ShareSchedule],
    cfg: AuctionConfig,
    policy: NumericPolicy = EXACT,
) -> ScheduleComparison:
    """Run the same reports through several schedules and compare bid vectors.

    Each schedule's group enters the auction ``cfg``, tie policy included, and
    divides only on a win, as in :func:`run_group_participation`.  A schedule
    dominates another when its ordered bearable payments are componentwise at
    least as large, exhausted (shorter) vectors padding with zero.
    """
    runs = []
    for name, schedule in schedules.items():
        trace, outcome = run_group_participation(reports, schedule, cfg, policy)
        runs.append(ScheduleRun(name, schedule, trace, outcome))
    dominance = {}
    for ra, rb in itertools.combinations(runs, 2):
        u = [s.max_payment for s in ra.trace.steps]
        v = [s.max_payment for s in rb.trace.steps]
        dominance[(ra.name, rb.name)] = _bid_vector_relation(u, v, policy)
    return ScheduleComparison(tuple(runs), dominance)
