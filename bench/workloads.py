"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload turns ``--seed`` into a pool of inputs at set-up time and the
timed loop cycles through that pool, one op at a time.  The mix of input
shapes in a pool (schedule kinds, buyer counts, planted violations) is fixed
by slot position; the seed only draws the values inside each shape, so that
runs on different seeds measure the same amount of work.

A workload exposes ``setup(gb, seed, workdir) -> pool``, ``run(gb, item)``
(the timed call into groupbuy's public API), ``check(item, output)`` returning
the work units done or ``None`` when the output is wrong, and
``digest(output)``, a hashable summary used to show that a traced run returns
what the untraced one did.  ``gb`` is the imported ``groupbuy``
package; functions are looked up on its modules at call time so the tracer's
rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

# ---------------------------------------------------------------------------
# coalition-fuzz

FUZZ_POOL = 120
FUZZ_THREE_BUYER_SAMPLES = 24  # budget left for the sampled three-buyer coalition
FUZZ_SCHEDULES = ("equal-split", "renormalized", "ranked-sqrt")
FUZZ_LEVELS = {
    "equal-split": (0, F(1, 3), F(2, 3), 1),
    "renormalized": (0, F(1, 2), 1),
}
FUZZ_POWER_COEFFICIENTS = (0, F(1, 2), 1, F(3, 2))
FUZZ_POWER_EXPONENTS = (F(1, 8), F(1, 2))


def _renormalized_table(n, weights):
    """Proportional weights renormalized over each subset (cross-monotonic)."""
    table = {}
    for mask in range(1, 1 << n):
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        table[mask] = tuple(
            F(w) / total if mask >> i & 1 else F(0) for i, w in enumerate(weights)
        )
    return table


class CoalitionFuzz:
    name = "coalition-fuzz"
    unit = "deviation profiles"
    why = (
        "criterion 4's shape: 3-buyer coalition scans, each report built once and read "
        "thousands of times; mechanism, auction, value_at and analysis do the work"
    )

    def setup(self, gb, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        pool, spec = [], []
        for k in range(FUZZ_POOL):
            kind = FUZZ_SCHEDULES[k % 3]
            configs = 2 + (k // 3) % 2
            if kind == "equal-split":
                schedule = gb.schedule.EqualSplitSchedule(3)
                forms = self._concave_forms(gb, rng)
                params = {}
            elif kind == "renormalized":
                weights = rng.sample(range(1, 10), 3)
                schedule = gb.schedule.CrossMonotonicSchedule(3, _renormalized_table(3, weights))
                forms = self._concave_forms(gb, rng)
                params = {"weights": weights}
            else:
                order = [0, 1, 2]
                rng.shuffle(order)
                raw = [rng.randrange(1, 9) for _ in range(3)]
                base = [F(r, sum(raw)) for r in raw]
                schedule = gb.schedule.RankedSchedule(order, base, gb.schedule.sqrt_weight())
                power = gb.utility.ClosedFormUtility.power
                forms = [
                    power(F(rng.randrange(2, 9), 4), rng.choice((F(1, 4), F(1, 3), F(3, 8), F(1, 2))))
                    for _ in range(3)
                ]
                params = {"order": order, "base": [str(b) for b in base]}
            truth = [
                gb.utility.sample_report(form, [p for p in schedule.share_points(i) if p > 0])
                for i, form in enumerate(forms)
            ]
            cfgs = tuple(
                gb.auction.AuctionConfig(
                    F(rng.randrange(0, 6), 10), (F(rng.randrange(2, 25), 10),)
                )
                for _ in range(configs)
            )
            item = {"id": k, "kind": kind, "schedule": schedule, "truth": truth,
                    "configs": cfgs, "seed": rng.randrange(2 ** 31)}
            pool.append(item)
            spec.append({
                "id": k, "kind": kind, **params,
                "truth": [[form.kind, str(form.c), str(form.k)] for form in forms],
                "configs": [[str(c.reserve), [str(b) for b in c.competing_bids]] for c in cfgs],
                "seed": item["seed"],
            })
        _write_json(workdir / "inputs.json", spec)
        return pool

    @staticmethod
    def _concave_forms(gb, rng):
        cf = gb.utility.ClosedFormUtility
        forms = [
            cf.linear(F(rng.randrange(2, 9), 4)),
            cf.power(F(rng.randrange(2, 9), 4), F(1, 2)),
            cf.log(F(rng.randrange(2, 9), 4)),
        ]
        rng.shuffle(forms)
        return forms

    def run(self, gb, item):
        analysis = gb.analysis
        schedule = item["schedule"]
        if item["kind"] == "ranked-sqrt":
            grid = analysis.power_report_grid(
                schedule, coefficients=FUZZ_POWER_COEFFICIENTS, exponents=FUZZ_POWER_EXPONENTS
            )
        else:
            grid = analysis.concave_report_grid(schedule, levels=FUZZ_LEVELS[item["kind"]])
        sizes = [len(menu) for menu in grid]
        budget = fuzz_exhaustive_profiles(sizes) + FUZZ_THREE_BUYER_SAMPLES
        policy = gb.numeric.approx()
        results = [
            analysis.enumerate_coalition_deviations(
                item["truth"], schedule, cfg, grid, budget=budget, seed=item["seed"], policy=policy
            )
            for cfg in item["configs"]
        ]
        return sizes, budget, results

    def check(self, item, output):
        sizes, budget, results = output
        profiles, truncated = expected_fuzz_scan(sizes, budget)
        for result in results:
            if result.violations or result.profiles != profiles or result.truncated != truncated:
                return None
        return sum(result.profiles for result in results)

    def digest(self, output):
        sizes, budget, results = output
        return tuple(sizes), budget, tuple((r.profiles, r.truncated, len(r.violations)) for r in results)


def fuzz_exhaustive_profiles(sizes):
    """Profiles in the exhaustive part of a 3-buyer scan: every 1- and 2-buyer coalition."""
    a, b, c = sizes
    return a + b + c + a * b + a * c + b * c


def expected_fuzz_scan(sizes, budget):
    """(profiles, truncated) that a scan over these menu sizes must report."""
    exhaustive = fuzz_exhaustive_profiles(sizes)
    joint = math.prod(sizes)
    if joint <= budget - exhaustive:
        return exhaustive + joint, False
    return budget, True


# ---------------------------------------------------------------------------
# validator-oracle

ORACLE_POOL = 100
ORACLE_SAMPLES = 1000


class ValidatorOracle:
    name = "validator-oracle"
    unit = "tables"
    why = (
        "criterion 6's shape: closed-form validator vs sampling oracle on exact tables; "
        "write-heavy report construction, the mechanism never runs"
    )

    def setup(self, gb, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        pool, spec = [], []
        for k in range(ORACLE_POOL):
            planted = k % 5 == 4
            n = 3 + (k // 5) % 2 if planted else 2 + k % 3
            entries = self._entries(self._monotone_schedule(gb, rng, n, k // 5 % 3))
            if planted:
                self._plant(entries, n, rng)
            table = gb.schedule.TableSchedule(n, entries)
            item = {"id": k, "planted": planted, "table": table, "seed": rng.randrange(2 ** 31)}
            pool.append(item)
            spec.append({
                "id": k, "n": n, "planted": planted, "seed": item["seed"],
                "entries": {
                    gb.schedule.subset_key(mask): [[str(v) for v in x], [str(v) for v in y]]
                    for mask, (x, y) in entries.items()
                },
            })
        _write_json(workdir / "inputs.json", spec)
        return pool

    @staticmethod
    def _monotone_schedule(gb, rng, n, kind):
        sched = gb.schedule
        if kind == 0:
            return sched.EqualSplitSchedule(n)
        if kind == 1:
            weights = [rng.randrange(1, 9) for _ in range(n)]
            return sched.CrossMonotonicSchedule(n, _renormalized_table(n, weights))
        order = list(range(n))
        rng.shuffle(order)
        raw = [rng.randrange(1, 9) for _ in range(n)]
        return sched.RankedSchedule(order, [F(r, sum(raw)) for r in raw], sched.identity_weight())

    @staticmethod
    def _entries(schedule):
        entries = {}
        for mask in range(1, 1 << schedule.n):
            pair = schedule.shares_for(mask)
            entries[mask] = (pair.resource, pair.payment)
        return entries

    @staticmethod
    def _plant(entries, n, rng):
        """Plant a violation: in one two-buyer subset, one buyer gets 2/3 of the
        resource for 1/3 of the payment and the other the reverse."""
        victim = rng.choice([m for m in entries if m.bit_count() == 2])
        i, j = (b for b in range(n) if victim >> b & 1)
        entries[victim] = (
            tuple(F(2, 3) if b == i else F(1, 3) if b == j else F(0) for b in range(n)),
            tuple(F(1, 3) if b == i else F(2, 3) if b == j else F(0) for b in range(n)),
        )

    def run(self, gb, item):
        sched = gb.schedule
        closed = sched.validate_monotonicity(item["table"])
        sampled = sched.brute_force_monotonicity_check(item["table"], ORACLE_SAMPLES, seed=item["seed"])
        return closed, sampled

    def check(self, item, output):
        closed, sampled = output
        if (closed is None) != (sampled is None):
            return None
        if item["planted"] != (closed is not None):
            return None
        return 1

    def digest(self, output):
        return tuple(
            None if w is None else (w.buyer, w.subset_a, w.subset_b, w.constant, w.utility.knots)
            for w in output
        )


# ---------------------------------------------------------------------------
# cli-scale

# (buyer count, schedule kind, files) in one pass, cheapest first.  Cost
# grows as 2^n.  The counts put the median op in the middle of the n=9 ranked
# block and the 90th percentile in the middle of the n=12 block, so that
# neither sits on the edge between two kinds of file.
CLI_MIX = (
    (8, "equal-split", 3), (9, "equal-split", 2), (10, "equal-split", 1),
    (8, "rras:identity", 9), (8, "rras:sqrt", 9), (8, "rras:power:1/3", 8),
    (8, "cmss", 6),
    (9, "rras:identity", 10), (9, "rras:sqrt", 10), (9, "rras:power:1/3", 9),
    (9, "cmss", 4),
    (10, "rras:identity", 4), (10, "rras:sqrt", 4), (10, "rras:power:1/3", 3),
    (11, "rras:identity", 2), (11, "rras:sqrt", 1), (11, "rras:power:1/3", 1),
    (12, "rras:identity", 4), (12, "rras:sqrt", 3), (12, "rras:power:1/3", 3),
    (13, "rras:identity", 1), (13, "rras:sqrt", 1), (13, "rras:power:1/3", 1),
    (14, "rras:sqrt", 1),
)
# Kinds whose shares are rational, so that the exact lane stays exact.  With
# sqrt or power weights the payment shares are floats, and under the exact
# policy the payments then miss the price by rounding.
CLI_RATIONAL = ("equal-split", "cmss", "rras:identity")
# (buyer count, schedule kind, exact lane) per file.  Every second file of a
# rational kind with n <= 10 runs in the exact lane (linear and knots buyers).
CLI_SLOTS = tuple(
    (n, kind, n <= 10 and kind in CLI_RATIONAL and j % 2 == 1)
    for n, kind, files in CLI_MIX
    for j in range(files)
)


class CliScale:
    name = "cli-scale"
    unit = "runs"
    why = (
        "the only path through scenario parsing, serialization and cli: run on n=8..14 "
        "files, where loading computes every subset's shares and the trace visits few"
    )

    def setup(self, gb, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for k, (n, kind, exact) in enumerate(CLI_SLOTS):
            schedule = self._schedule(rng, n, kind)
            # Buyer kinds follow rank, not index: under a ranked schedule the
            # top-ranked buyers reach the most share points, so this keeps the
            # sampling work of a slot the same on every seed.
            rank = {b: r for r, b in enumerate(schedule.get("order", range(n)))}
            scenario = {
                "buyers": [self._buyer(rng, rank[i], exact) for i in range(n)],
                "schedule": schedule,
            }
            if k % 2:
                scenario["fixed_price"] = _ratio(rng.randrange(n * 5, n * 25), 20)
            else:
                scenario["auction"] = {
                    "reserve": _ratio(rng.randrange(0, n * 5), 20),
                    "competing_bids": [_ratio(rng.randrange(n * 5, n * 30), 20)
                                       for _ in range(rng.randrange(1, 4))],
                }
            path = workdir / f"scenario-{k:02d}-n{n}.json"
            _write_json(path, scenario)
            pool.append({"id": k, "path": str(path)})
        return pool

    @staticmethod
    def _buyer(rng, rank, exact):
        if rank % 4 == 3:
            # concave knots: decreasing positive slopes over random breakpoints
            xs = sorted(rng.sample(range(1, 12), 2))
            slopes = sorted((rng.randrange(1, 40) for _ in range(3)), reverse=True)
            points, value, prev = [["0", "0"]], F(0), F(0)
            for x, slope in zip([F(x, 12) for x in xs] + [F(1)], slopes):
                value += F(slope, 10) * (x - prev)
                points.append([str(x), str(value)])
                prev = x
            return {"kind": "knots", "points": points}
        c = _ratio(rng.randrange(2, 40), 10)
        if exact:
            return {"kind": "linear", "c": c}
        kind = ("linear", "power", "log")[rank % 3]
        if kind == "power":
            return {"kind": "power", "c": c, "k": rng.choice(("1/4", "1/3", "1/2", "2/3"))}
        return {"kind": kind, "c": c}

    @staticmethod
    def _schedule(rng, n, kind):
        if kind == "equal-split":
            return {"kind": "equal-split"}
        if kind == "cmss":
            table = _renormalized_table(n, _weights(rng, n))
            return {"kind": "cmss", "shares": {
                ",".join(str(i) for i in range(n) if mask >> i & 1): [str(v) for v in vec]
                for mask, vec in table.items()
            }}
        order = list(range(n))
        rng.shuffle(order)
        raw = _weights(rng, n)
        total = sum(raw)
        return {"kind": "rras", "order": order, "base": [_ratio(r, total) for r in raw],
                "f": kind.split(":", 1)[1]}

    def run(self, gb, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gb.cli.main(["run", item["path"], "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, output):
        code, stdout, _ = output
        if code != 0:
            return None
        try:
            report = json.loads(stdout)
            return 1 if run_report_ok(report) else None
        except (ValueError, KeyError, TypeError):
            return None

    def digest(self, output):
        return output


EPSILON = 1e-9  # the tolerance lane's default epsilon, which the scenarios keep


def run_report_ok(report):
    """Output invariants of one ``run --format json`` report.

    The bid is the largest step bound, every step removes someone, and a
    purchase divides exactly the price (within the tolerance lane's epsilon).
    """
    steps = report["trace"]["steps"]
    exact = "exact" in report["trace"]["bid"]
    read = (lambda v: F(v["exact"])) if exact else (lambda v: float(v["decimal"]))
    if not steps or any(step["removed"] == "" for step in steps):
        return False
    if read(report["trace"]["bid"]) != max(read(step["beta"]) for step in steps):
        return False
    outcome = report["outcome"]
    if outcome["purchased"]:
        paid = sum(read(p) for p in outcome["payments"])
        price = read(outcome["price"])
        if exact and paid != price:
            return False
        if not exact and abs(paid - price) > EPSILON:
            return False
    return True



def _weights(rng, n):
    """A permutation of 1..n.  The multiset of weights, and with it the number
    of distinct share points and the sampling work, is the same on every seed."""
    return rng.sample(range(1, n + 1), n)


def _ratio(p, q):
    return str(F(p, q))


def _write_json(path: Path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


WORKLOADS = {w.name: w for w in (CoalitionFuzz(), ValidatorOracle(), CliScale())}
