"""Spans and counters around the library's public functions.

The tracer replaces functions at the module attributes their callers look
up (``power_coloring.beck_fiala``, ``orderings.weak_reach``, ...), so no
library file changes.  Timed functions record a span (name, start, end,
parent, op id); per-vertex hot functions are only counted, because a
span per call would cost more than the call.  Counters observed from
arguments and results are taken after the span's end time.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

OP_SPAN = "op"

# (module, attribute, span name); a span name may cover several attributes
# when modules import the same function under their own names.
TIMED = [
    ("power_coloring", "power_coloring", "power_coloring.power_coloring"),
    ("power_coloring", "orientation_coloring", "power_coloring.orientation_coloring"),
    ("power_coloring", "reach_profile", "power_coloring.reach_profile"),
    ("power_coloring", "wreach_star_system", "power_coloring.wreach_star_system"),
    ("power_coloring", "in_neighborhood_system", "power_coloring.in_neighborhood_system"),
    ("power_coloring", "beck_fiala", "discrepancy.beck_fiala"),
    ("pointer", "beck_fiala", "discrepancy.beck_fiala"),
    ("approx", "beck_fiala", "discrepancy.beck_fiala"),
    ("power_coloring", "eval_discrepancy", "discrepancy.eval_discrepancy"),
    ("approx", "eval_discrepancy", "discrepancy.eval_discrepancy"),
    ("discrepancy", "eval_discrepancy", "discrepancy.eval_discrepancy"),
    ("power_coloring", "graph_power", "graphs.graph_power"),
    ("power_coloring", "neighborhood_system", "setsystems.neighborhood_system"),
    ("power_coloring", "degeneracy_order", "orderings.degeneracy_order"),
    ("orderings", "degeneracy_order", "orderings.degeneracy_order"),
    ("orderings", "wcol_from_order", "orderings.wcol_from_order"),
    ("formulas", "parse_formula", "formulas.parse_formula"),
    ("pointer", "qf_color", "pointer.qf_color"),
    ("pointer", "definable_closure", "pointer.definable_closure"),
    ("pointer", "qf_decompose", "pointer.qf_decompose"),
    ("pointer", "defined_system", "pointer.defined_system"),
    ("pointer", "intersection_closure", "setsystems.intersection_closure"),
    ("approx", "epsilon_approximation", "approx.epsilon_approximation"),
    ("approx", "halve", "approx.halve"),
    ("approx", "trace", "setsystems.trace"),
    ("approx", "verify_approximation", "approx.verify_approximation"),
    ("approx", "verify_net", "approx.verify_net"),
]

COUNTED = [
    ("orderings", "weak_reach", "orderings.weak_reach"),
    ("power_coloring", "weak_reach", "orderings.weak_reach"),
    ("pointer", "eval_formula", "pointer.eval_formula"),
    ("discrepancy", "beck_fiala_with_stats", "discrepancy.beck_fiala_with_stats"),
]


def _set_degree(s) -> int:
    counts: dict[int, int] = defaultdict(int)
    for st in s.sets:
        for v in st:
            counts[v] += 1
    return max(counts.values(), default=0)


def _observe(c: dict, name: str, args: tuple, result) -> None:
    """Counters that fix each layer's input and output shape."""
    if name == "orderings.weak_reach":
        c["orderings.wreach_size_sum"] += len(result)
    elif name == "discrepancy.beck_fiala_with_stats":
        s = args[0]
        c["discrepancy.rounds"] += result[1]
        c["discrepancy.incidences"] += sum(len(st) for st in s.sets)
        c["discrepancy.ground_sum"] += s.ground_size
    elif name == "power_coloring.wreach_star_system":
        c["power_coloring.star_sets"] += len(result.sets)
        c["power_coloring.star_degree_max"] = max(
            c["power_coloring.star_degree_max"], _set_degree(result)
        )
    elif name == "graphs.graph_power":
        c["graphs.power_edges"] += sum(len(a) for a in result.adjacency) // 2
    elif name == "setsystems.intersection_closure":
        c["setsystems.closure_base_sets"] += len(args[0].sets)
        c["setsystems.closure_sets"] += len(result.sets)
    elif name == "approx.epsilon_approximation":
        c["approx.levels"] += len(result.levels)
        c["approx.applied_levels"] += sum(1 for rec in result.levels if rec.applied)


class Tracer:
    """Collects spans and counters while installed; restores every
    original attribute on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int], int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, Callable]] = []

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._op))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            self.counts[name + ".calls"] += 1
            _observe(self.counts, name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            _observe(self.counts, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(f"sparsedisc.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def op(self, op_id: int, fn: Callable, *args):
        """Run one op under a root span."""
        self._op = op_id
        return self._timed(OP_SPAN, fn)(*args)


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: self time (duration minus the part its child spans
    cover), inclusive time, the longest single call, and the call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        rec = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "max_s": 0.0, "calls": 0})
        dur = end - start
        rec["self_s"] += dur - child_time[i]
        rec["total_s"] += dur
        rec["max_s"] = max(rec["max_s"], dur)
        rec["calls"] += 1
    return out
