"""Group bidding for a shareable resource.

A group of buyers with private concave utilities wants to buy one indivisible
unit sold in a second-price auction (or at a fixed price) and share it.  This
package implements the truthful aggregation mechanism: pre-announced per-subset
resource and payment shares, elicitation of piecewise-linear concave reports,
the shrinking-subset bid computation, and the division of resource and payment
at the realized price, plus validators and brute-force oracles for the
incentive properties the construction is supposed to have.

The package root exports the entry points; everything else lives in the
submodules (``groupbuy.schedule``, ``groupbuy.analysis``, ...).
"""

from .analysis import enumerate_coalition_deviations
from .auction import AuctionConfig, run_group_participation
from .mechanism import compute_bid_trace
from .numeric import approx
from .scenario import bundled_scenario_path, load_scenario_file
from .schedule import (
    CrossMonotonicSchedule,
    EqualSplitSchedule,
    RankedSchedule,
    TableSchedule,
    validate_monotonicity,
)
from .utility import ClosedFormUtility, UtilityReport, sample_report

__all__ = [
    "AuctionConfig",
    "ClosedFormUtility",
    "CrossMonotonicSchedule",
    "EqualSplitSchedule",
    "RankedSchedule",
    "TableSchedule",
    "UtilityReport",
    "approx",
    "bundled_scenario_path",
    "compute_bid_trace",
    "enumerate_coalition_deviations",
    "load_scenario_file",
    "run_group_participation",
    "sample_report",
    "validate_monotonicity",
]

__version__ = "0.1.0"
