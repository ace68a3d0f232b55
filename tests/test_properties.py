"""Properties of the engine on random instances.

Metamorphic, in the exact lane: random rational instances with 2 to 4 buyers
over equal split, a cross-monotonic table and a ranked schedule with identity
weight; relabelling buyers, scaling reports and price, and starting from the
full group must all leave the engine's answer unchanged up to the obvious map.

Reference, in both lanes: a closed-form buyer passed to the engine as it is
must give the same trace and outcomes as its knot list sampled at the share
points with :func:`sample_report`, because the engine only queries share
points.

A payer in every subset, in both lanes: every schedule kind the library
builds gives each non-empty subset a member whose payment share
``policy.is_positive`` passes, which is why the engine loop needs no check
for a subset without one.

Lane agreement: a rational instance run exactly, and again with its utility
values lowered to floats under the default tolerance, must give the same step
subsets, removed sets and winning sets, with bids within epsilon.  The values
sit on coarse grids, so distinct ratios stay far more than epsilon apart and
only exact ties may merge.  Every number the exact run puts out stays
rational: a float there would mean the exact lane leaked rounding.

Coalition scans, in both lanes: relabelling the buyers of a three-buyer table
(its rows, the true reports and the menus) permutes every coalition's scan and
every violation and keeps each status, on random tables and on the
non-monotone ``exploit_table``.  On the random tables the scan also matches
``reference_coalition_scan``, which runs every profile and keeps no flags.
In the exact lane, on the random tables and on equal-split, cmss and
ranked-identity tables, a certified coalition has no violation on a grid the
scan never saw, and scaling every report, the reserve and the rival bids by
one c > 0 keeps every status and violating profile.

Validators, in both lanes: relabelling the buyers of a three-buyer table keeps
the pass or fail verdict of ``validate_monotonicity`` and of
``validate_cross_monotonic``, and the sampling oracle finds no witness on a
relabelled table that the validator passes.  At 1,000 samples the oracle
flags the validator-oracle benchmark's plant on equal-split, cmss and
ranked-identity tables of 3 and 4 buyers, in every two-buyer subset, and
flags none of those tables without it.
In the exact lane, on random tables of 2 to 5 buyers, ``validate_monotonicity``
against the concave class passes exactly when every payment row equals its
resource row and ``validate_cross_monotonic`` passes.

The tolerance rule at its edge, with a threshold a few epsilon and a few ulps
off a bound: on a one-step trace the two tie policies decide apart exactly
where the bound equals the threshold; no member of a truthful winning set
nets below -epsilon on random 1- to 3-buyer tables, and a one-buyer scan
finds no violation under ``group_wins`` and under ``group_loses`` only
violations that lean on the tie rule.  On rational three-buyer instances with small denominators, where no
near-tie can occur, the exact and tolerance lanes scan alike.
"""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from numbers import Rational

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy.analysis import concave_report_grid, enumerate_coalition_deviations, report_menus
from groupbuy.auction import (
    GROUP_LOSES,
    GROUP_WINS,
    AuctionConfig,
    decide_winning_set,
    run_group_participation,
)
from groupbuy.mechanism import BidStep, compute_bid_trace
from groupbuy.numeric import DEFAULT_EPSILON, EXACT, MAX_EPSILON, approx
from groupbuy.schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    TableSchedule,
    brute_force_monotonicity_check,
    full_mask,
    identity_weight,
    members,
    nonempty_subsets,
    report_class_for,
    sqrt_weight,
    validate_cross_monotonic,
    validate_monotonicity,
)
from groupbuy.utility import (
    CONCAVE,
    ClosedFormUtility,
    UtilityReport,
    sample_report,
)

from helpers import (
    EXPLOIT_LEVELS,
    exploit_table,
    exploit_truth,
    fixed_price_outcome,
    random_concave_utility,
    random_table,
    reference_coalition_scan,
    renormalized_cmss,
    run_at_price,
    scaled_report,
)


def build_schedule(kind, weights, order):
    n = len(weights)
    if kind == "equal-split":
        return EqualSplitSchedule(n)
    if kind in ("ranked", "ranked-sqrt"):
        weight = identity_weight() if kind == "ranked" else sqrt_weight()
        return RankedSchedule(order, [F(w, sum(weights)) for w in weights], weight)
    table = {}
    for mask in range(1, 1 << n):
        total = sum(weights[i] for i in members(mask))
        table[mask] = tuple(F(w, total) if mask >> i & 1 else F(0) for i, w in enumerate(weights))
    return CrossMonotonicSchedule(n, table)


@st.composite
def instances(draw):
    """(kind, weights, rank order, schedule, reports, price as a fraction of the bid)."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("equal-split", "cmss", "ranked")))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    schedule = build_schedule(kind, weights, order)
    reports = [
        random_concave_utility(
            draw(st.integers(0, 2**32 - 1)), schedule.share_points(i), F(2)
        )
        for i in range(n)
    ]
    return kind, weights, order, schedule, reports, F(draw(st.integers(0, 150)), 100)


def relabel(mask, perm):
    return sum(1 << perm[i] for i in members(mask))


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_buyers_permutes_trace_and_outcome(instance, data):
    kind, weights, order, schedule, reports, fraction = instance
    n = len(weights)
    perm = data.draw(st.permutations(range(n)))  # buyer i becomes buyer perm[i]
    inverse = [perm.index(j) for j in range(n)]
    moved = build_schedule(
        kind, [weights[inverse[j]] for j in range(n)], [perm[i] for i in order]
    )
    moved_reports = [reports[inverse[j]] for j in range(n)]

    trace = compute_bid_trace(reports, schedule)
    moved_trace = compute_bid_trace(moved_reports, moved)
    assert [s.subset for s in moved_trace.steps] == [relabel(s.subset, perm) for s in trace.steps]
    assert [s.removed for s in moved_trace.steps] == [relabel(s.removed, perm) for s in trace.steps]
    assert [s.max_payment for s in moved_trace.steps] == [s.max_payment for s in trace.steps]

    price = trace.group_bid * fraction
    outcome = run_at_price(reports, schedule, price)
    moved_outcome = run_at_price(moved_reports, moved, price)
    assert moved_outcome.purchased == outcome.purchased
    assert moved_outcome.winning_set == relabel(outcome.winning_set, perm)
    for i in range(n):
        assert moved_outcome.fractions[perm[i]] == outcome.fractions[i]
        assert moved_outcome.payments[perm[i]] == outcome.payments[i]


@given(instances(), st.integers(1, 50), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_scaling_reports_and_price_scales_bids_and_payments(instance, num, den):
    _, _, _, schedule, reports, fraction = instance
    c = F(num, den)
    scaled_reports = [scaled_report(r, c) for r in reports]
    trace = compute_bid_trace(reports, schedule)
    scaled = compute_bid_trace(scaled_reports, schedule)
    assert [s.subset for s in scaled.steps] == [s.subset for s in trace.steps]
    assert [s.removed for s in scaled.steps] == [s.removed for s in trace.steps]
    assert [s.max_payment for s in scaled.steps] == [c * s.max_payment for s in trace.steps]

    price = trace.group_bid * fraction
    outcome = run_at_price(reports, schedule, price)
    scaled_outcome = run_at_price(scaled_reports, schedule, c * price)
    assert scaled_outcome.winning_set == outcome.winning_set
    assert scaled_outcome.fractions == outcome.fractions
    assert scaled_outcome.payments == tuple(c * p for p in outcome.payments)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_full_start_gives_the_default_trace(instance):
    _, weights, _, schedule, reports, _ = instance
    default = compute_bid_trace(reports, schedule)
    assert compute_bid_trace(reports, schedule, start=full_mask(len(weights))) == default


coefficients = st.builds(F, st.integers(0, 40), st.just(10))
closed_forms = st.one_of(
    st.builds(ClosedFormUtility.linear, coefficients),
    st.builds(
        ClosedFormUtility.power, coefficients,
        st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))),
    ),
    st.builds(ClosedFormUtility.log, coefficients),
)
prices = st.builds(F, st.integers(0, 80), st.just(20))  # 0 to 4 in steps of 1/20


@given(
    st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.sampled_from(("equal-split", "cmss", "ranked", "ranked-sqrt")),
        st.lists(st.integers(1, 9), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.lists(closed_forms, min_size=n, max_size=n),
    )),
    prices,
    st.lists(prices, max_size=2),
)
@settings(max_examples=80, deadline=None)
def test_closed_forms_match_their_sampled_reports(instance, reserve, rivals):
    kind, weights, order, forms = instance
    schedule = build_schedule(kind, weights, order)
    sampled = [
        sample_report(form, schedule.share_points(i))
        for i, form in enumerate(forms)
    ]
    cfg = AuctionConfig(reserve, tuple(rivals))
    for policy in (EXACT, approx()):
        lazy = run_group_participation(forms, schedule, cfg, policy)
        assert lazy == run_group_participation(sampled, schedule, cfg, policy)
        for k in range(81):  # every price on the grid: a sweep only shows where it flips
            price = F(k, 20)
            assert fixed_price_outcome(forms, schedule, price, policy) == fixed_price_outcome(
                sampled, schedule, price, policy
            )


@st.composite
def grid_knot_reports(draw):
    """Concave knots at x = j/4 with slopes on the grid k/4."""
    slopes = sorted(draw(st.lists(st.integers(0, 12), min_size=4, max_size=4)), reverse=True)
    points, value = [(F(0), F(0))], F(0)
    for j, slope in enumerate(slopes, start=1):
        value += F(slope, 16)
        points.append((F(j, 4), value))
    return UtilityReport(tuple(points))


rational_reports = st.one_of(
    st.builds(ClosedFormUtility.linear, st.builds(F, st.integers(0, 16), st.just(4))),
    grid_knot_reports(),
)


def lowered(report):
    """The same report with float utility values (share points stay exact)."""
    if isinstance(report, ClosedFormUtility):
        return ClosedFormUtility.linear(float(report.c))
    return UtilityReport(tuple((x, float(u)) for x, u in report.knots))


@given(
    st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.sampled_from(("equal-split", "cmss", "ranked")),
        st.lists(st.integers(1, 9), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.lists(rational_reports, min_size=n, max_size=n),
    )),
)
@settings(max_examples=80, deadline=None)
def test_exact_and_float_lanes_agree(instance):
    kind, weights, order, reports = instance
    schedule = build_schedule(kind, weights, order)
    exact = compute_bid_trace(reports, schedule, EXACT)
    assert all(isinstance(s.max_payment, Rational) for s in exact.steps)
    float_reports = [lowered(r) for r in reports]
    floats = compute_bid_trace(float_reports, schedule, approx())
    assert [(s.subset, s.removed) for s in floats.steps] == [
        (s.subset, s.removed) for s in exact.steps
    ]
    for f, e in zip(floats.steps, exact.steps):
        assert abs(f.max_payment - e.max_payment) <= DEFAULT_EPSILON

    # every step's bid, the midpoints between them, zero and above the bid
    betas = sorted({s.max_payment for s in exact.steps})
    prices = {F(0), betas[-1] + 1, *betas, *((a + b) / 2 for a, b in zip(betas, betas[1:]))}
    for price in prices:
        want = run_at_price(reports, schedule, price, EXACT)
        assert all(isinstance(v, Rational) for v in (*want.fractions, *want.payments, want.price))
        got = run_at_price(float_reports, schedule, float(price), approx())
        assert (got.purchased, got.winning_set) == (want.purchased, want.winning_set)


WEIGHTS = {
    "identity": identity_weight(),
    "sqrt": sqrt_weight(),
    "power:1/3": ClosedFormUtility.power(1, F(1, 3)),
}


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.sampled_from(("equal-split", "cmss", "table", *(f"ranked-{w}" for w in WEIGHTS))),
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any),
        st.permutations(range(n)),
        st.integers(0, 2**32 - 1),
    )),
)
@settings(max_examples=120, deadline=None)
def test_every_subset_has_a_payer_in_both_lanes(instance):
    kind, weights, order, seed = instance
    n = len(weights)
    if kind == "equal-split":
        schedule = EqualSplitSchedule(n)
    elif kind == "cmss":
        schedule = renormalized_cmss(n, [F(w + 1) for w in weights])
    elif kind == "table":
        schedule = random_table(random.Random(seed), n)
    else:  # a random base, zero shares included
        base = [F(w, sum(weights)) for w in weights]
        schedule = RankedSchedule(order, base, WEIGHTS[kind.removeprefix("ranked-")])
    # the default tolerance, and the largest epsilon approx() accepts
    for policy in (EXACT, approx(), approx(MAX_EPSILON * (1 - 2 ** -20))):
        for mask in nonempty_subsets(full_mask(n)):
            payment = schedule.shares_for(mask).payment
            payers = [i for i in members(mask) if policy.is_positive(payment[i])]
            assert payers, (kind, mask, payment)
            assert max(payment[i] for i in payers) >= F(1, mask.bit_count()) - DEFAULT_EPSILON


def moved_table(schedule, perm):
    """``schedule`` with buyer i renamed perm[i]: every subset and share row permuted."""
    n = schedule.n
    entries = {}
    for mask in nonempty_subsets(full_mask(n)):
        pair = schedule.shares_for(mask)
        x, y = [F(0)] * n, [F(0)] * n
        for i in range(n):
            x[perm[i]], y[perm[i]] = pair.resource[i], pair.payment[i]
        entries[relabel(mask, perm)] = (tuple(x), tuple(y))
    return TableSchedule(n, entries)


def moved_violation(v, perm):
    """A violation's fields as the relabelled scan reports them, member order included."""
    idxs = members(v.coalition)
    order = sorted(range(len(idxs)), key=lambda k: perm[idxs[k]])

    def pick(values):
        return tuple(values[k] for k in order)

    return (relabel(v.coalition, perm), pick(v.truthful_reports), pick(v.deviant_reports),
            pick(v.before), pick(v.after), v.uses_tiebreak)


def violation_fields(v):
    return (v.coalition, v.truthful_reports, v.deviant_reports, v.before, v.after, v.uses_tiebreak)


def assert_the_scan_permutes(truth, schedule, cfg, menus, perm, policy, moved=None):
    """Relabelling buyer i as perm[i] (true reports, menus, and the schedule,
    ``moved`` or else its rows) permutes each coalition scan and each
    violation and keeps every status; returns the scan."""
    n = schedule.n
    inverse = [perm.index(j) for j in range(n)]
    budget = math.prod(len(m) + 1 for m in menus)  # every coalition's product fits
    result = enumerate_coalition_deviations(truth, schedule, cfg, menus, budget, policy=policy)
    got = enumerate_coalition_deviations(
        [truth[inverse[j]] for j in range(n)], moved_table(schedule, perm) if moved is None else moved, cfg,
        [menus[inverse[j]] for j in range(n)], budget, policy=policy,
    )
    assert not result.truncated
    assert (got.profiles, got.truncated) == (result.profiles, result.truncated)
    assert {s.coalition: (s.status, s.profiles) for s in got.coalitions} == {
        relabel(s.coalition, perm): (s.status, s.profiles) for s in result.coalitions
    }
    assert Counter(map(violation_fields, got.violations)) == Counter(
        moved_violation(v, perm) for v in result.violations
    )
    return result


def random_scan(seed, step, fraction, tie, kind="random"):
    """(truth, schedule, cfg, menus): a random 3-buyer table, or a
    :func:`build_schedule` table of ``kind`` with random weights and rank
    order, random concave buyers, menus on the levels 0, 1/2 and 1, and one
    rival bidding ``fraction`` of the truthful trace's bound at ``step`` (the
    last if fewer)."""
    rng = random.Random(seed)
    if kind == "random":
        schedule = random_table(rng, 3)
    else:
        schedule = build_schedule(kind, [rng.randint(1, 9) for _ in range(3)], rng.sample(range(3), 3))
    truth = [
        random_concave_utility(rng.randrange(2**31), schedule.share_points(i), 1)
        for i in range(3)
    ]
    menus = concave_report_grid(schedule, levels=(0, F(1, 2), 1))
    steps = compute_bid_trace(truth, schedule).steps
    cfg = AuctionConfig(0, (steps[min(step, len(steps) - 1)].max_payment * fraction,), tie)
    return truth, schedule, cfg, menus


TIES = st.sampled_from((GROUP_WINS, GROUP_LOSES))
# Random tables are mostly non-monotone; the rival bids at or just below a
# bound of the truthful trace, where ties and violations occur.
RIVALS = (st.integers(0, 2), st.sampled_from((F(1, 2), F(99, 100), F(1))), TIES)
# The monotone kinds; a rival tying a bound under group_loses gives their violations.
MONOTONE = st.sampled_from(("equal-split", "cmss", "ranked"))


@given(st.integers(0, 2**32 - 1), st.permutations(range(3)), *RIVALS)
@settings(max_examples=30, deadline=None)
def test_relabelling_buyers_permutes_the_coalition_scan(seed, perm, step, fraction, tie):
    # Budgets are exhaustive: the sampled branch draws in menu order, which a
    # relabelling moves.
    truth, schedule, cfg, menus = random_scan(seed, step, fraction, tie)
    for policy in (EXACT, approx()):
        result = assert_the_scan_permutes(truth, schedule, cfg, menus, perm, policy)
        # and the scan agrees with the reference, which runs every profile
        assert replace(result, coalitions=()) == reference_coalition_scan(
            truth, schedule, cfg, menus, result.profiles, policy=policy
        )


@given(st.integers(0, 2**32 - 1), *RIVALS)
@example(1971110186, 1, F(99, 100), GROUP_WINS)  # off the grid, coalition {0, 1} gains
@example(4114760733, 2, F(1, 2), GROUP_WINS)  # {2} certified, the five others violated
@settings(max_examples=20, deadline=None)
def test_certified_coalitions_have_no_violation_off_the_grid(seed, step, fraction, tie):
    # Most random draws find no violation at all; the examples pin draws that do.
    assert_certificates_hold(*random_scan(seed, step, fraction, tie))


@given(MONOTONE, st.integers(0, 2**32 - 1), *RIVALS)
@example("cmss", 0, 2, F(1), GROUP_LOSES)  # {1}, {2} and {1, 2} certified; tie-rule violations in the rest
@settings(max_examples=30, deadline=None)
def test_certified_coalitions_have_no_violation_off_the_grid_on_monotone_tables(kind, seed, step, fraction, tie):
    assert_certificates_hold(*random_scan(seed, step, fraction, tie, kind))


def assert_certificates_hold(truth, schedule, cfg, menus):
    """A certificate holds for every misreport, so the reference runs every
    profile of a grid the scan never saw (levels 0, 1/3, 2/3, 1) and finds no
    violation for a coalition the scan certifies."""
    result = enumerate_coalition_deviations(truth, schedule, cfg, menus)
    certified = {s.coalition for s in result.coalitions if s.status == "certified"}
    finer = concave_report_grid(schedule, levels=(0, F(1, 3), F(2, 3), 1))
    budget = math.prod(len(m) + 1 for m in finer)  # every coalition's product fits
    reference = reference_coalition_scan(truth, schedule, cfg, finer, budget)
    assert not reference.truncated
    assert not certified & {v.coalition for v in reference.violations}


@given(st.integers(0, 2**32 - 1), *RIVALS, st.integers(1, 50), st.integers(1, 7))
@example(1037164612, 1, F(1), GROUP_LOSES, 3, 7)  # violations with and without the tie rule
@example(2460189480, 2, F(1), GROUP_LOSES, 50, 1)  # violations that lean on the tie rule
@settings(max_examples=20, deadline=None)
def test_scaling_the_scan_keeps_every_verdict(seed, step, fraction, tie, num, den):
    # Most random draws find no violation; the examples pin draws that do.
    assert_scaling_keeps_verdicts(*random_scan(seed, step, fraction, tie), F(num, den))


@given(MONOTONE, st.integers(0, 2**32 - 1), *RIVALS, st.integers(1, 50), st.integers(1, 7))
@example("cmss", 0, 2, F(1), GROUP_LOSES, 3, 7)  # three certified coalitions, four violated on the tie rule
@example("equal-split", 3, 1, F(1), GROUP_LOSES, 3, 7)  # violations with and without the tie rule
@settings(max_examples=30, deadline=None)
def test_scaling_the_scan_keeps_every_verdict_on_monotone_tables(kind, seed, step, fraction, tie, num, den):
    assert_scaling_keeps_verdicts(*random_scan(seed, step, fraction, tie, kind), F(num, den))


def assert_scaling_keeps_verdicts(truth, schedule, cfg, menus, c):
    """Values and prices scaled alike by c > 0 scale every ratio, threshold
    and net by c, so the exact lane decides every comparison the same way:
    the scan keeps every status and every violating profile, scaled."""
    result = enumerate_coalition_deviations(truth, schedule, cfg, menus)
    got = enumerate_coalition_deviations(
        [scaled_report(r, c) for r in truth], schedule,
        AuctionConfig(cfg.reserve * c, tuple(b * c for b in cfg.competing_bids), cfg.tie_policy),
        [[scaled_report(r, c) for r in menu] for menu in menus],
    )
    assert (got.profiles, got.truncated, got.coalitions) == (
        result.profiles, result.truncated, result.coalitions
    )

    def profile(v):
        return v.coalition, tuple(r.knots for r in v.deviant_reports), v.uses_tiebreak

    assert Counter(map(profile, got.violations)) == Counter(
        (v.coalition, tuple(scaled_report(r, c).knots for r in v.deviant_reports), v.uses_tiebreak)
        for v in result.violations
    )


@pytest.mark.parametrize("perm", [(2, 1, 0), (1, 2, 0)])  # a transposition and a 3-cycle
def test_relabelling_permutes_the_exploit_scan(perm):
    # the pinned non-monotone table, whose scans find violations in both lanes;
    # the two permutations generate every relabelling of three buyers
    menus = concave_report_grid(exploit_table(), levels=EXPLOIT_LEVELS)
    cfg = AuctionConfig(0, (F(1, 2),))
    for policy in (EXACT, approx()):
        result = assert_the_scan_permutes(exploit_truth(), exploit_table(), cfg, menus, perm, policy)
        assert result.violations


@pytest.mark.parametrize("perm", [(2, 1, 0), (1, 2, 0)])
@pytest.mark.parametrize("kind", ["equal-split", "cmss", "ranked-sqrt"])
def test_relabelling_permutes_the_monotone_scans(kind, perm):
    # The schedule relabelled as its own kind: weights and rank order follow
    # the buyers, and the fuzz menus of the moved schedule are the permuted
    # menus.  Ranked sqrt scans power menus from closed-form buyers inside its
    # class; the others random concave buyers.  The rival bids nothing, half
    # the truthful bid, and a fifth above it, where scans are not all
    # certified.
    weights, order = [3, 2, 1], [2, 0, 1]
    inverse = [perm.index(j) for j in range(3)]
    schedule = build_schedule(kind, weights, order)
    moved = build_schedule(kind, [weights[inverse[j]] for j in range(3)], [perm[i] for i in order])
    if kind == "ranked-sqrt":
        truth = [
            ClosedFormUtility.power(c, k) for c, k in ((1, F(1, 4)), (F(3, 2), F(1, 3)), (1, F(1, 2)))
        ]
    else:
        truth = [
            random_concave_utility(2014 + i, schedule.share_points(i), 1)
            for i in range(3)
        ]
    menus = report_menus(schedule)
    assert report_menus(moved) == [menus[inverse[j]] for j in range(3)]
    scanned = set()
    bid = compute_bid_trace(truth, schedule).group_bid
    for rival in (0, bid / 2, bid * F(6, 5)):
        for policy in (EXACT, approx()):
            result = assert_the_scan_permutes(
                truth, schedule, AuctionConfig(0, (rival,)), menus, perm, policy, moved
            )
            scanned |= {s.coalition for s in result.coalitions if s.status == "scanned"}
    assert len(scanned) >= 3


# Plants in a two-buyer subset {i, j}, i < j: (x_i, x_j) and (y_i, y_j).  The
# swap breaks monotonicity for j against its singleton, and on the monotone
# kinds for i too; the lean breaks both rules for i alone, against the full
# set, so that a validator which skips a buyer changes its verdict.
PLANTS = {
    "swap": ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))),
    "lean": ((F(0), F(1)), (F(0), F(1))),
}


def planted(schedule, victim, plant):
    """``schedule`` as a table, with ``PLANTS[plant]`` in the two-buyer subset ``victim``."""
    n = schedule.n
    pair_members = members(victim)
    entries = {}
    for mask in nonempty_subsets(full_mask(n)):
        pair = schedule.shares_for(mask)
        entries[mask] = (pair.resource, pair.payment)
    entries[victim] = tuple(
        tuple(dict(zip(pair_members, shares)).get(b, F(0)) for b in range(n)) for shares in PLANTS[plant]
    )
    return TableSchedule(n, entries)


@st.composite
def validator_tables(draw):
    """(kind, weights, rank order, schedule) on three buyers; a rational kind
    may carry a plant, so that both verdicts occur."""
    kind = draw(st.sampled_from(("equal-split", "cmss", "ranked", "ranked-sqrt", "random")))
    weights = draw(st.lists(st.integers(1, 9), min_size=3, max_size=3))
    order = draw(st.permutations(range(3)))
    if kind == "random":
        schedule = random_table(random.Random(draw(st.integers(0, 2**32 - 1))), 3)
    else:
        schedule = build_schedule(kind, weights, order)
    plant = "none" if kind == "ranked-sqrt" else draw(st.sampled_from(("none", *PLANTS)))
    if plant != "none":
        schedule = planted(schedule, draw(st.sampled_from((0b011, 0b101, 0b110))), plant)
    return kind, weights, order, schedule


@given(validator_tables(), st.permutations(range(3)), st.integers(0, 2**32 - 1))
@example(("equal-split", [1, 1, 1], [0, 1, 2], EqualSplitSchedule(3)), [1, 2, 0], 0)  # passes
@example(("cmss", [3, 2, 1], [0, 1, 2], planted(build_schedule("cmss", [3, 2, 1], [0, 1, 2]), 0b011, "swap")),
         [2, 1, 0], 0)  # fails
@example(("ranked", [3, 2, 1], [0, 1, 2], planted(build_schedule("ranked", [3, 2, 1], [0, 1, 2]), 0b101, "lean")),
         [1, 2, 0], 0)  # fails for buyer 0 alone, who becomes buyer 1
@settings(max_examples=40, deadline=None)
def test_relabelling_buyers_keeps_the_validators_verdicts(table, perm, seed):
    kind, weights, order, schedule = table
    if isinstance(schedule, RankedSchedule) and kind == "ranked-sqrt":
        # Float payment shares, whose sums a relabelling may round otherwise:
        # the schedule is relabelled as its own kind, in the tolerance lane.
        inverse = [perm.index(j) for j in range(3)]
        moved = build_schedule(kind, [weights[inverse[j]] for j in range(3)], [perm[i] for i in order])
        policies = (approx(),)
    else:
        moved = moved_table(schedule, perm)
        policies = (EXACT, approx())
    classes = {CONCAVE, report_class_for(schedule)[0]}  # ranked sqrt also gets its power family
    for policy in policies:
        crossing = validate_cross_monotonic(schedule, policy) is None
        assert (validate_cross_monotonic(moved, policy) is None) == crossing
        for cls in classes:
            passes = validate_monotonicity(schedule, policy, cls) is None
            assert (validate_monotonicity(moved, policy, cls) is None) == passes
            if passes:
                assert brute_force_monotonicity_check(moved, 200, seed, policy, cls) is None


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["equal-split", "cmss", "ranked"])
def test_the_oracle_flags_the_benchmark_plant(kind, n):
    # the validator-oracle benchmark's plant, the swap in one two-buyer
    # subset, found at its 1,000 samples in every subset and flagged
    # nowhere without it
    rng = random.Random(f"{kind}:{n}")
    for _ in range(20):
        weights = [rng.randrange(1, 9) for _ in range(n)]
        schedule = build_schedule(kind, weights, rng.sample(range(n), n))
        seed = rng.randrange(2 ** 31)
        assert brute_force_monotonicity_check(schedule, 1000, seed) is None
        for victim in (m for m in range(1 << n) if m.bit_count() == 2):
            assert brute_force_monotonicity_check(planted(schedule, victim, "swap"), 1000, seed) is not None


def share_row(rng, mask, n):
    """A random share row of ``mask``: draws in 0..5 over their sum, zeros
    among them (the first member draws 1 when every member drew 0)."""
    raw = [rng.randrange(0, 6) if mask >> i & 1 else 0 for i in range(n)]
    if not any(raw):
        raw[members(mask)[0]] = 1
    return tuple(F(v, sum(raw)) for v in raw)


def moved_share(rng, rows, masks):
    """``rows``, with part of one member's share of a subset of two or more
    members moved to another member, who may have held nothing there."""
    m = rng.choice([m for m in masks if m.bit_count() > 1])
    j = rng.choice([i for i in members(m) if rows[m][i] > 0])
    i = rng.choice([i for i in members(m) if i != j])
    delta = rows[m][j] * F(rng.randrange(1, 5), 4)
    return {**rows, m: tuple(v + delta if k == i else v - delta if k == j else v for k, v in enumerate(rows[m]))}


@st.composite
def collapse_tables(draw):
    """An exact table on 2 to 5 buyers.  Its resource rows are the ranked
    rule's (zero shares among them) or proportional weights', both
    cross-monotonic, the ranked rule's with one share moved, or random rows;
    its payment rows equal them, have one share moved, or are drawn
    independently."""
    n = draw(st.integers(2, 5))
    resource = draw(st.sampled_from(("ranked", "weights", "moved", "random")))
    payment = draw(st.sampled_from(("equal", "moved", "independent")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    masks = list(nonempty_subsets(full_mask(n)))
    if resource == "random":
        xs = {m: share_row(rng, m, n) for m in masks}
    else:
        if resource != "weights":  # a zero base share leaves its holder nothing in most subsets
            schedule = build_schedule("ranked", share_row(rng, full_mask(n), n), rng.sample(range(n), n))
        else:
            schedule = build_schedule("cmss", [rng.randrange(1, 10) for _ in range(n)], range(n))
        xs = {m: schedule.shares_for(m).resource for m in masks}
    if resource == "moved":
        xs = moved_share(rng, xs, masks)
    if payment == "equal":
        ys = xs
    elif payment == "moved":
        ys = moved_share(rng, xs, masks)
    else:
        ys = {m: share_row(rng, m, n) for m in masks}
    return TableSchedule(n, {m: (xs[m], ys[m]) for m in masks})


@given(collapse_tables())
@settings(max_examples=300, deadline=None)
def test_concave_monotonicity_is_cross_monotonicity_with_payment_equal_to_resource(schedule):
    # the collapse proved in validate_monotonicity's docstring, in the exact lane
    masks = nonempty_subsets(full_mask(schedule.n))
    equal = all(schedule.shares_for(m).payment == schedule.shares_for(m).resource for m in masks)
    rule = equal and validate_cross_monotonic(schedule) is None
    assert (validate_monotonicity(schedule) is None) == rule


def near(bound, epsilons, ulps):
    """``bound`` as a float, moved by ``epsilons`` times epsilon and then by ``ulps`` units in the last place."""
    t = float(bound) + epsilons * DEFAULT_EPSILON
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return max(t, 0.0)


# A threshold this close to a bound sits where a sum form and the difference
# form of the tolerance rule decide apart (a + epsilon may round to t while
# t - a exceeds epsilon).
NEAR = (st.integers(-2, 2), st.integers(-3, 3))


@st.composite
def bounds_near_thresholds(draw):
    """(bound, threshold): a bound c/10^16, as a Fraction or a float, and a float threshold near it."""
    bound = F(draw(st.integers(1, 10**16 - 1)), 10**16)
    return draw(st.sampled_from((bound, float(bound)))), near(bound, draw(NEAR[0]), draw(NEAR[1]))


@given(bounds_near_thresholds(), st.sampled_from((EXACT, approx())))
# bound - epsilon rounds to the threshold, yet gt(bound, threshold) holds and eq does not
@example((float(F(1, 3)), 0.3333333323333333), approx())
@settings(max_examples=100, deadline=None)
def test_tie_policies_part_only_where_the_bound_equals_the_threshold(pair, policy):
    # On a one-step trace, group_wins buys where ge(bound, threshold) holds and
    # group_loses where gt does, so the two part exactly where eq holds.
    bound, threshold = pair
    steps = (BidStep(0b1, policy.lane(bound), 0b1),)
    won = [decide_winning_set(steps, AuctionConfig(0, (threshold,), tie), policy)
           for tie in (GROUP_WINS, GROUP_LOSES)]
    assert (won[0] != won[1]) == policy.eq(policy.lane(bound), threshold)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), *NEAR, TIES)
@example(8, 1, 0, 1, 0, GROUP_WINS)  # one buyer, bound + epsilon rounds to the threshold
@settings(max_examples=60, deadline=None)
def test_truthful_winners_net_at_least_minus_epsilon(seed, n, step, epsilons, ulps, tie):
    # A winning set buys at a threshold its bound covers within epsilon, so
    # each member's net, valued as the scan values it, passes ge(net, 0).
    rng = random.Random(seed)
    schedule = random_table(rng, n)
    truth = [
        random_concave_utility(rng.randrange(2**31), schedule.share_points(i), 1)
        for i in range(n)
    ]
    policy = approx()
    steps = compute_bid_trace(truth, schedule, policy).steps
    cfg = AuctionConfig(0, (near(steps[min(step, len(steps) - 1)].max_payment, epsilons, ulps),), tie)
    _, outcome = run_group_participation(truth, schedule, cfg, policy)
    for i in members(outcome.winning_set):
        net = policy.lane(truth[i].value_at(outcome.fractions[i])) - outcome.payments[i]
        assert policy.ge(net, 0), (i, net)


@given(st.integers(1, 10**16 - 1), *NEAR, TIES)
@example(3333333323333333, 1, 0, GROUP_WINS)  # the epsilon edge: c + epsilon rounds to float(1/3)
@example(6 * 10**15, 0, 0, GROUP_LOSES)  # c ties the rival bid; overbidding wins at net 0
@settings(max_examples=60, deadline=None)
def test_one_buyer_scan_finds_only_tie_rule_violations(numerator, epsilons, ulps, tie):
    # One linear buyer c = numerator / 10^16 against a rival bidding near c.
    # Under group_wins every tie goes to the truthful buyer, so no misreport
    # gains.  Under group_loses a buyer whose value ties the threshold loses,
    # and overbidding wins at a net equal to 0, which only the tie rule (a
    # real share beats walking away) prefers.
    c = F(numerator, 10**16)
    schedule = EqualSplitSchedule(1)
    cfg = AuctionConfig(0, (near(c, epsilons, ulps),), tie)
    result = enumerate_coalition_deviations(
        [ClosedFormUtility.linear(c)], schedule, cfg, report_menus(schedule), policy=approx()
    )
    if tie == GROUP_WINS:
        assert result.violations == ()
    else:
        assert all(v.uses_tiebreak for v in result.violations)


def lane_instance(schedule, picks, rival, tie):
    """(truth, schedule, cfg, menus): a rational three-buyer instance with small denominators.

    Buyer i's true report is entry ``picks[i]`` (modulo its length) of the
    concave grid on quarters; the menus are the grid on halves.  ``rival``
    is the rival's bid, or an int: the bound at that step of the truthful
    trace (the last if fewer).
    """
    truth = [menu[k % len(menu)] for menu, k in zip(concave_report_grid(schedule), picks)]
    if isinstance(rival, int):
        steps = compute_bid_trace(truth, schedule).steps
        rival = steps[min(rival, len(steps) - 1)].max_payment
    cfg = AuctionConfig(0, (rival,), tie)
    return truth, schedule, cfg, concave_report_grid(schedule, levels=(0, F(1, 2), 1))


@st.composite
def lane_instances(draw):
    """:func:`lane_instance` on equal split, cmss, ranked identity or a random table.

    Shares have denominators of at most 33, true values lie on quarters,
    menu values on halves, and the rival bids a multiple of 1/20 or a bound
    of the truthful trace.  Two distinct ratios, bounds, thresholds or nets
    then differ by more than 5e-6, thousands of times epsilon, so the
    tolerance lane meets no near-tie and must decide as the exact one.
    """
    kind = draw(st.sampled_from(("equal-split", "cmss", "ranked", "random")))
    if kind == "random":
        schedule = random_table(random.Random(draw(st.integers(0, 2**32 - 1))), 3)
    else:
        weights = draw(st.lists(st.integers(1, 9), min_size=3, max_size=3))
        schedule = build_schedule(kind, weights, draw(st.permutations(range(3))))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=3, max_size=3))
    rival = draw(st.one_of(st.builds(F, st.integers(0, 30), st.just(20)), st.integers(0, 2)))
    return lane_instance(schedule, picks, rival, draw(TIES))


@given(lane_instances())
@example(lane_instance(random_table(random.Random(1800188482), 3), (15, 39, 23), 0, GROUP_LOSES))
@example(lane_instance(random_table(random.Random(1511875401), 3), (3, 6, 33), F(11, 10), GROUP_WINS))
@settings(max_examples=40, deadline=None)
def test_exact_and_tolerance_lanes_scan_alike(instance):
    # Most draws find no violation; the examples pin draws that do, with and
    # without the tie rule, at a traced bound and at a bid on the grid.
    truth, schedule, cfg, menus = instance
    budget = math.prod(len(m) + 1 for m in menus)  # every coalition's product fits
    exact, tolerance = (
        enumerate_coalition_deviations(truth, schedule, cfg, menus, budget, policy=policy)
        for policy in (EXACT, approx())
    )
    assert not exact.truncated
    assert (tolerance.profiles, tolerance.truncated, tolerance.coalitions) == (
        exact.profiles, exact.truncated, exact.coalitions
    )

    def profile(v):
        return v.coalition, tuple(r.knots for r in v.deviant_reports), v.uses_tiebreak

    assert list(map(profile, tolerance.violations)) == list(map(profile, exact.violations))
