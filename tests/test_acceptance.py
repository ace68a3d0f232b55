"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the plain ``pytest`` run.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

from groupbuy.analysis import concave_report_grid, enumerate_coalition_deviations
from groupbuy.mechanism import compute_bid_trace
from groupbuy.numeric import approx
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
    sqrt_weight,
    validate_monotonicity,
)
from groupbuy.utility import ClosedFormUtility, sample_report

from helpers import (
    CRITERION_4_BUDGET,
    EXPLOIT_LEVELS,
    check_individual_consistency,
    criterion_4_scans,
    divide_at_price,
    exploit_table,
    fixed_price_outcome,
    random_concave_utility,
    random_table,
    renormalized_cmss,
    rras_resource_table,
    run_at_price,
    worked_trio,
)

APPROX = approx()

ORDER = (0, 1, 2)
BASE = (F(1, 2), F(1, 4), F(1, 4))


def report_line(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_monotone_schedule(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return EqualSplitSchedule(n)
    if kind == 1:
        weights = [F(rng.randrange(1, 9)) for _ in range(n)]
        return renormalized_cmss(n, weights)
    order = list(range(n))
    rng.shuffle(order)
    raw = [rng.randrange(1, 9) for _ in range(n)]
    base = [F(r, sum(raw)) for r in raw]
    return RankedSchedule(order, base, identity_weight())


def random_instance(rng, n):
    sched = random_monotone_schedule(rng, n)
    reports = [
        random_concave_utility(rng.randrange(2**32), sched.share_points(i), F(2))
        for i in range(n)
    ]
    return sched, reports


def test_criterion_1_fixed_price_reproduction():
    sched = EqualSplitSchedule(3)
    reports = worked_trio(sched)
    outcome = fixed_price_outcome(reports, sched, F(9, 10), APPROX)

    ok = (
        outcome.purchased
        and outcome.winning_set == 0b011
        and outcome.fractions == (F(1, 2), F(1, 2), F(0))
        and abs(outcome.payments[0] - 0.45) <= 1e-9
        and abs(outcome.payments[1] - 0.45) <= 1e-9
        and outcome.payments[2] == 0
    )

    best = min(
        _timed(lambda: fixed_price_outcome(reports, sched, F(9, 10), APPROX))
        for _ in range(5)
    )
    ok = ok and best < 1e-3
    report_line(
        1, ok,
        f"winners {{0,1}} at 0.45 each, fractions (1/2, 1/2, 0); reference sweep {best * 1e6:.0f}us",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_auction_reproduction():
    sched = EqualSplitSchedule(3)
    reports = worked_trio(sched)
    trace = compute_bid_trace(reports, sched, APPROX)
    values = [s.max_payment for s in trace.steps]

    ok = len(values) == 3
    ok = ok and abs(values[0] - 3 * math.log(4 / 3)) <= 1e-9
    ok = ok and abs(values[0] - 0.8630462) <= 5e-8  # published digit prefix
    ok = ok and values[1] == 1 and values[2] == 1
    ok = ok and trace.group_bid == 1

    low = run_at_price(reports, sched, F(3, 5), APPROX)
    ok = ok and all(abs(p - 0.2) <= 1e-12 for p in low.payments)
    high = run_at_price(reports, sched, F(9, 10), APPROX)
    ok = ok and high.winning_set == 0b011
    ok = ok and abs(high.payments[0] - 0.45) <= 1e-12 and abs(high.payments[1] - 0.45) <= 1e-12
    ok = ok and high.payments[2] == 0

    report_line(2, ok, f"bearable payments ({values[0]:.10f}, 1, 1), bid 1, divisions at 0.6 and 0.9")


def test_criterion_3_schedule_table_reproduction():
    rras = RankedSchedule(ORDER, BASE, sqrt_weight())
    cmss = CrossMonotonicSchedule(3, rras_resource_table(ORDER, BASE))
    forms = [
        ClosedFormUtility.power(1, F(1, 4)),
        ClosedFormUtility.power(1, F(1, 3)),
        ClosedFormUtility.power(1, F(1, 2)),
    ]
    reports = [
        sample_report(f, {p for s in (rras, cmss) for p in s.share_points(i)})
        for i, f in enumerate(forms)
    ]
    got_rras = [s.max_payment for s in compute_bid_trace(reports, rras, APPROX).steps]
    got_cmss = [s.max_payment for s in compute_bid_trace(reports, cmss, APPROX).steps]

    # closed forms for every entry, each the smallest of the member ratios
    sym_rras = [
        (2 + math.sqrt(2)) / 2,
        (3 / 4) ** 0.25 * (1 + math.sqrt(3)) / math.sqrt(3),
        1.0,
    ]
    sym_cmss = [2 ** 0.75, (3 / 4) ** (-2 / 3), 1.0]
    ok = all(abs(g - s) <= 1e-9 for g, s in zip(got_rras, sym_rras))
    ok = ok and all(abs(g - s) <= 1e-9 for g, s in zip(got_cmss, sym_cmss))

    # golden rounded values, matched within one unit in the last printed place
    for got, printed, unit in (
        (got_rras[0], 1.707, 1e-3),
        (got_rras[1], 1.467, 1e-3),
        (got_rras[2], 1.0, 1e-3),
        (got_cmss[0], 1.68, 1e-2),
        (got_cmss[1], 1.21, 1e-2),
        (got_cmss[2], 1.0, 1e-2),
    ):
        ok = ok and abs(got - printed) < unit

    report_line(
        3, ok,
        f"ranked ({float(got_rras[0]):.3f}, {float(got_rras[1]):.3f}, {float(got_rras[2]):.0f}) "
        f"vs cross-monotonic ({float(got_cmss[0]):.2f}, {float(got_cmss[1]):.2f}, {float(got_cmss[2]):.0f})",
    )


def test_criterion_4_coalition_fuzz_clean():
    t0 = time.perf_counter()
    total_violations = 0

    # two buyers: full cross-products on a 5-value grid, three configs each;
    # three buyers: budgeted scans, at least a hundred thousand profiles in all
    profiles3 = 0
    for truth, sched, cfg, grid in criterion_4_scans():
        result = enumerate_coalition_deviations(
            truth, sched, cfg, grid, budget=CRITERION_4_BUDGET, policy=APPROX
        )
        total_violations += len(result.violations)
        if sched.n == 2:
            assert not result.truncated
        else:
            profiles3 += result.profiles

    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and profiles3 >= 100_000 and elapsed < 300
    report_line(
        4, ok,
        f"zero violations over {profiles3} three-buyer profiles (+ full two-buyer scans) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_5_individual_consistency_sweep():
    rng = random.Random(505)
    failures = 0
    premise_hits = 0
    for _ in range(1000):
        n = rng.randrange(2, 5)
        sched, reports = random_instance(rng, n)
        price = F(rng.randrange(0, 240), 100)
        if any(r.value_at(F(1)) > price for r in reports):
            premise_hits += 1
        if check_individual_consistency(reports, sched, price) is not None:
            failures += 1
    ok = failures == 0 and premise_hits > 200
    report_line(
        5, ok,
        f"1000 random instances, {premise_hits} with a buyer worth more than the price, "
        f"{failures} failures",
    )


def _corrupted(table_sched, rng):
    """Plant a doubled-resource / flat-payment pair into an explicit table."""
    n = table_sched.n
    entries = {}
    for mask in nonempty_subsets(full_mask(n)):
        pair = table_sched.shares_for(mask)
        entries[mask] = (pair.resource, pair.payment)
    pairs_mask = [m for m in entries if len(members(m)) == 2]
    victim = rng.choice(pairs_mask)
    i, j = members(victim)
    entries[victim] = (
        tuple(F(2, 3) if k == i else (F(1, 3) if k == j else F(0)) for k in range(n)),
        tuple(F(1, 3) if k == i else (F(2, 3) if k == j else F(0)) for k in range(n)),
    )
    return TableSchedule(n, entries)


def _as_table(sched):
    entries = {
        mask: (sched.shares_for(mask).resource, sched.shares_for(mask).payment)
        for mask in nonempty_subsets(full_mask(sched.n))
    }
    return TableSchedule(sched.n, entries)


def test_criterion_6_validator_versus_oracle():
    rng = random.Random(606)
    tables = []
    for _ in range(50):  # monotone by construction
        n = rng.randrange(2, 5)
        tables.append(_as_table(random_monotone_schedule(rng, n)))
    for _ in range(35):  # arbitrary, usually violating
        tables.append(random_table(rng, rng.randrange(2, 5)))
    violators = 0
    for _ in range(15):  # guaranteed violating
        n = rng.randrange(3, 5)
        tables.append(_corrupted(_as_table(random_monotone_schedule(rng, n)), rng))
        violators += 1

    disagreements = 0
    witnesses = 0
    for idx, sched in enumerate(tables):
        closed = validate_monotonicity(sched)
        sampled = brute_force_monotonicity_check(sched, 10_000, seed=idx)
        if (closed is None) != (sampled is None):
            disagreements += 1
        if closed is not None:
            witnesses += 1
    ok = disagreements == 0 and violators >= 10 and witnesses >= violators
    report_line(
        6, ok,
        f"100 tables ({witnesses} with violations, {violators} planted), "
        f"{disagreements} disagreements at 10^4 samples each",
    )


def test_criterion_7_winning_set_stability():
    rng = random.Random(707)
    claim1_failures = 0
    claim2_failures = 0
    for _ in range(200):
        n = rng.randrange(2, 6)
        sched, reports = random_instance(rng, n)
        price = compute_bid_trace(reports, sched).group_bid * F(rng.randrange(0, 150), 100)
        baseline = run_at_price(reports, sched, price)
        winners = baseline.winning_set
        losers = full_mask(n) & ~winners
        for removed in nonempty_subsets(losers):
            start = full_mask(n) & ~removed
            if start == 0:
                continue
            rerun = compute_bid_trace(reports, sched, start=start).steps
            if divide_at_price(rerun, sched, price).winning_set != winners:
                claim1_failures += 1
        for i in members(winners):
            rerun = compute_bid_trace(reports, sched, start=full_mask(n) & ~(1 << i)).steps
            shrunk = divide_at_price(rerun, sched, price).winning_set
            if shrunk & ~(winners & ~(1 << i)):
                claim2_failures += 1
    ok = claim1_failures == 0 and claim2_failures == 0
    report_line(
        7, ok,
        f"200 instances: {claim1_failures} non-winner-removal changes, "
        f"{claim2_failures} winner-removal escapes",
    )


CRITERION_8_PRICES = (F(1, 5), F(3, 5), F(1), F(7, 5), F(2))


def test_criterion_8_removal_discipline_equivalence(tmp_path):
    # verified conjecture: sweeping out all unaffordable buyers at a fixed price
    # picks the same winning set as the bearable-payment path; counterexamples
    # are archived, not failed.  Under a monotone schedule it follows: a buyer
    # who can pay in a set can pay in every larger one, so the union of two
    # affordable sets is affordable, and there is one largest affordable set.
    # Both paths drop only buyers who cannot pay in a set holding it, so
    # neither drops one of its members, and both buy it.
    prices = CRITERION_8_PRICES
    legs = []
    eq3 = EqualSplitSchedule(3)
    legs.append((eq3, concave_report_grid(eq3, levels=(0, F(1, 3), F(2, 3), 1))))
    rr3 = RankedSchedule(ORDER, BASE, identity_weight())
    legs.append((rr3, concave_report_grid(rr3, levels=(0, F(1, 3), F(2, 3), 1))))

    checked = 0
    counterexamples = []
    for sched, grid in legs:
        import itertools

        for profile in itertools.product(*grid):
            reports = list(profile)
            for price in prices:
                checked += 1
                a = run_at_price(reports, sched, price)
                b = fixed_price_outcome(reports, sched, price)
                if a.winning_set != b.winning_set:
                    counterexamples.append(
                        {
                            "schedule": type(sched).__name__,
                            "price": str(price),
                            "reports": [[[str(x), str(u)] for x, u in r.knots] for r in reports],
                            "trace_path_winners": a.winning_set,
                            "sweep_path_winners": b.winning_set,
                        }
                    )
    if counterexamples:
        archive = Path("artifacts")
        archive.mkdir(exist_ok=True)
        out = archive / "removal_discipline_counterexamples.json"
        out.write_text(json.dumps(counterexamples, indent=2))
        print(f"[NOTE] criterion 8: {len(counterexamples)} counterexamples archived at {out}")
    report_line(
        8, True,
        f"{checked} profile/price pairs compared, {len(counterexamples)} counterexamples "
        f"({'archived' if counterexamples else 'none found'})",
    )


def test_removal_disciplines_part_on_the_non_monotone_exploit_table():
    # criterion 8's comparison where its argument fails: in exploit_table
    # buyer 0 holds 1/3 of {0,1,2} but 2/3 of {0,1} at the same payment, so
    # at 7/5 it cannot pay in the whole set and can once buyer 2 leaves.  The
    # sweep drops buyers 0 and 2 at once, and buyer 1 alone cannot pay 7/5;
    # the trace drops buyer 2 first, and {0,1} buys
    sched = exploit_table()
    grid = concave_report_grid(sched, levels=EXPLOIT_LEVELS)
    assert [len(menu) for menu in grid] == [9, 10, 10]
    differ = []
    for picks in itertools.product(*(range(len(menu)) for menu in grid)):
        reports = [menu[k] for menu, k in zip(grid, picks)]
        for price in CRITERION_8_PRICES:
            a = run_at_price(reports, sched, price).winning_set
            b = fixed_price_outcome(reports, sched, price).winning_set
            if a != b:
                differ.append((picks, price, a, b))
    assert differ == [((2, 9, 0), F(7, 5), 0b011, 0)]
