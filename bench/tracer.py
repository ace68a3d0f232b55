"""Outside-in tracing of groupbuy's public functions.

The tracer wraps functions from outside the program: each target is rebound in
every ``groupbuy`` module that holds it (``from .x import y`` binds the name
per module), and class methods are replaced on their class.  Every wrapped
call adds to a per-name aggregate of calls, busy time and self time, where
self time is busy time minus the time covered by traced child calls.  Hot
leaves stay aggregates; the only spans kept are one per benchmark op, tagged
with the op id.  Nothing is written until the caller asks for the records.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, function) pairs wrapped wherever the module-level name is bound:
# the public functions the workloads reach.
FUNCTION_TARGETS = (
    ("numeric", "parse_number"),
    ("numeric", "piecewise_value"),
    ("utility", "sample_report"),
    ("utility", "random_concave_utility"),
    ("schedule", "validate_monotonicity"),
    ("schedule", "brute_force_monotonicity_check"),
    ("mechanism", "compute_bid_trace"),
    ("mechanism", "allocate"),
    ("mechanism", "fixed_price_outcome"),
    ("auction", "run_group_participation"),
    ("auction", "run_second_price"),
    ("analysis", "enumerate_coalition_deviations"),
    ("analysis", "outcome_for_buyer"),
    ("analysis", "concave_report_grid"),
    ("analysis", "power_report_grid"),
    ("scenario", "load_scenario_file"),
    ("scenario", "load_scenario"),
    ("scenario", "parse_schedule"),
    ("scenario", "trace_to_json"),
    ("scenario", "outcome_to_json"),
    ("cli", "main"),
)

# (module, class, method, metric name) for methods replaced on their class.
# Both share_points definitions report under one name.
METHOD_TARGETS = (
    ("utility", "UtilityReport", "value_at", "utility.value_at"),
    ("utility", "UtilityReport", "__post_init__", "utility.report_new"),
    ("schedule", "ShareSchedule", "shares_for", "schedule.shares_for"),
    ("schedule", "ShareSchedule", "share_points", "schedule.share_points"),
    ("schedule", "EqualSplitSchedule", "share_points", "schedule.share_points"),
)


class Tracer:
    """Aggregated per-function counters plus one span per op.

    ``install`` wraps the targets in an imported ``groupbuy`` package and
    ``uninstall`` puts the originals back; use it as a context manager.
    """

    def __init__(self, package):
        self.package = package
        self.stats = {}  # name -> [calls, busy_s, self_s]
        self.counters = {
            "mechanism.trace_steps": 0,
            "analysis.profiles": 0,
            "analysis.truncated_scans": 0,
            "utility.knots_built": 0,
            "schedule.shares_computed": 0,
            "cli.nonzero_exits": 0,
        }
        self.spans = []  # (op_id, label, start_s, end_s)
        self._stack = []  # child time accumulated per open traced call
        self._restore = []  # (owner, attribute, original)
        self._seen_subsets = weakref.WeakKeyDictionary()  # schedule -> subsets requested
        self._origin = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                busy = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - child
                if stack:
                    stack[-1] += busy

        return traced

    def _hooks(self):
        counters = self.counters
        seen = self._seen_subsets

        def trace_steps(args, trace):
            counters["mechanism.trace_steps"] += len(trace.steps)

        def fuzz_result(args, result):
            counters["analysis.profiles"] += result.profiles
            counters["analysis.truncated_scans"] += bool(result.truncated)

        def knots_built(args, result):
            counters["utility.knots_built"] += len(args[0].knots)

        def shares_requested(args, result):
            schedule, subset = args[0], args[1]
            subsets = seen.get(schedule)
            if subsets is None:
                subsets = seen[schedule] = set()
            if subset not in subsets:
                subsets.add(subset)
                counters["schedule.shares_computed"] += 1

        def exit_code(args, code):
            if code != 0:
                counters["cli.nonzero_exits"] += 1

        return {
            "mechanism.compute_bid_trace": trace_steps,
            "analysis.enumerate_coalition_deviations": fuzz_result,
            "utility.report_new": knots_built,
            "schedule.shares_for": shares_requested,
            "cli.main": exit_code,
        }

    def install(self):
        hooks = self._hooks()
        prefix = self.package.__name__
        loaded = [
            m for key, m in sys.modules.items()
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for module_name, func_name in FUNCTION_TARGETS:
            module = sys.modules.get(f"{prefix}.{module_name}")
            original = getattr(module, func_name, None) if module is not None else None
            name = f"{module_name}.{func_name}"
            self.stats.setdefault(name, [0, 0.0, 0.0])
            if original is None:
                continue  # a later version may drop a target; it reports zeros
            wrapped = self._wrap(name, original, hooks.get(name))
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
        for module_name, class_name, method, name in METHOD_TARGETS:
            module = sys.modules.get(f"{prefix}.{module_name}")
            cls = getattr(module, class_name, None) if module is not None else None
            self.stats.setdefault(name, [0, 0.0, 0.0])
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, hooks.get(name)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans and records ------------------------------------------------

    def span(self, op_id, label, start, end):
        self.spans.append((op_id, label, start - self._origin, end - self._origin))

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def records(self):
        """Per-function aggregates, counters and op spans, ready for JSON."""
        return {
            "functions": {
                name: {"calls": calls, "busy_s": busy, "self_s": own}
                for name, (calls, busy, own) in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "spans": [
                {"op": op_id, "name": label, "start_s": start, "end_s": end}
                for op_id, label, start, end in self.spans
            ],
        }
