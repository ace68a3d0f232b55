"""One digest line per coalition-scan result, for diffing two checkouts.

Usage, from the root of a checkout::

    python3 tools/scan_parity.py > scans.txt
    python3 tools/scan_parity.py --seeds 1,9173,11 > scans.txt

It runs ``enumerate_coalition_deviations`` in-process on the checkout's own
``src/`` and prints one line per ``FuzzResult``:

* the coalition-fuzz benchmark items of the given seeds (default 1 and
  9173): ``bench.workloads.CoalitionFuzz``'s ``setup`` builds the pool and
  its ``run`` scans each item once per auction config, ``bench/`` being only
  read;
* acceptance criterion 4's scans (``criterion_4_scans`` of
  ``tests/helpers.py``) at ``CRITERION_4_BUDGET`` in the ``approx()`` lane;
* the non-monotone ``exploit_table`` from ``exploit_truth`` against a rival
  bid of 1/2, over concave menus on the ``EXPLOIT_LEVELS`` grid and over
  ``EXPLOIT_POWER_MENU``'s power menus, in each lane (exact and ``approx()``).

Each line carries a label, the profile count, the truncation flag, the
number of scanned coalitions and of violations, and the sha256 of the
result's ``repr``: every violation's coalition, truthful and deviant knots,
config, outcomes (nets by ``repr``) and tie-break flag, and every coalition
scan.  Run it at both checkouts and diff the two files: identical files mean
identical scan results.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import groupbuy  # noqa: E402
from bench.workloads import CoalitionFuzz  # noqa: E402
from groupbuy.analysis import (  # noqa: E402
    concave_report_grid,
    enumerate_coalition_deviations,
    power_report_grid,
)
from groupbuy.auction import AuctionConfig  # noqa: E402
from groupbuy.numeric import EXACT, approx  # noqa: E402
from helpers import (  # noqa: E402
    CRITERION_4_BUDGET,
    EXPLOIT_LEVELS,
    EXPLOIT_POWER_MENU,
    criterion_4_scans,
    exploit_table,
    exploit_truth,
)

LANES = (("exact", EXACT), ("approx", approx()))


def result_line(label, result):
    """``label`` and the counts of one FuzzResult, then the sha256 of its ``repr``."""
    scanned = sum(scan.status == "scanned" for scan in result.coalitions)
    digest = hashlib.sha256(repr(result).encode("utf-8")).hexdigest()
    return (f"{label} profiles={result.profiles} truncated={result.truncated} "
            f"scanned={scanned} violations={len(result.violations)} repr={digest}")


def exploit_results():
    """(label, FuzzResult) of the exploit table over concave and power menus in each lane."""
    schedule = exploit_table()
    grids = {
        "concave": concave_report_grid(schedule, levels=EXPLOIT_LEVELS),
        "power": power_report_grid(schedule, **EXPLOIT_POWER_MENU),
    }
    cfg = AuctionConfig(0, (Fraction(1, 2),))
    for menus, grid in grids.items():
        for lane, policy in LANES:
            result = enumerate_coalition_deviations(
                exploit_truth(), schedule, cfg, grid, budget=300_000, policy=policy
            )
            yield f"exploit menus={menus} lane={lane}", result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,9173",
                        help="comma-separated seeds of the coalition-fuzz pools ('' for none)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    fuzz = CoalitionFuzz()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            pool = fuzz.setup(groupbuy, seed, Path(tmp))
        for item in pool:
            _, _, results = fuzz.run(groupbuy, item)
            for k, result in enumerate(results):
                print(result_line(f"coalition-fuzz:{seed} item {item['id']} {item['kind']} "
                                  f"config {k}", result))
    for k, (truth, schedule, cfg, grid) in enumerate(criterion_4_scans()):
        result = enumerate_coalition_deviations(
            truth, schedule, cfg, grid, budget=CRITERION_4_BUDGET, policy=approx()
        )
        print(result_line(f"criterion-4 scan {k} n={schedule.n}", result))
    for label, result in exploit_results():
        print(result_line(label, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
