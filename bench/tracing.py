"""Spans and counts around the calls into each binaryrisk module.

:func:`install` rebinds the public functions of ``binaryrisk.measures``,
``binaryrisk.cohort`` and ``binaryrisk.sweep`` to timing wrappers in every
module namespace that holds them, so calls from the CLI and between
modules are seen without any change to the package. A span records its
name, start, end, parent span and request id; its self time is its
duration minus the time covered by its child spans. Hot per-cell calls
(``derive_measures`` and ``PopulationParams`` inside a grid or a
bisection) are counted, never spanned.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# Spans under which derive_measures runs once per cell or per bisection step.
HOT_PARENTS = ("sweep.evaluate_grid", "measures.rr_for_target_c")

# (module, function) pairs that are spanned; the layer name is "<module>.<function>".
LAYERS = (
    ("measures", "derive_measures"),
    ("measures", "rr_for_target_c"),
    ("measures", "rr_from_par"),
    ("cohort", "simulate_cohort"),
    ("cohort", "empirical_measures"),
    ("sweep", "evaluate_grid"),
    ("sweep", "extract_contours"),
    ("sweep", "render_svg"),
    ("sweep", "grids_to_json"),
    ("sweep", "grids_to_csv"),
)


class Tracer:
    """In-memory spans of one traced pass, plus counters at the same boundaries."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # [name, start_ns, end_ns, parent index, request id, child_ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.peak_bytes_per_subject = 0.0
        self._largest_cohort = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0, 0, parent, self.request, 0])
        self.stack.append(index)
        self.spans[index][1] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        end = perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += end - span[1]

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_ns(self) -> Counter:
        totals: Counter = Counter()
        for name, start, end, _, _, child_ns in self.spans:
            totals[name] += end - start - child_ns
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, child_ns in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "request": request,
                                         "self_ns": end - start - child_ns}) + "\n")


def _on_result(tracer: Tracer, name: str, args, result) -> None:
    counts = tracer.counts
    if name == "sweep.evaluate_grid":
        counts["sweep.evaluate_grid.cells"] += int(result.c_values.size)
        counts["sweep.evaluate_grid.masked_cells"] += int(result.mask.sum())
    elif name == "sweep.extract_contours":
        counts["sweep.extract_contours.polylines"] += len(result.polylines)
        counts["sweep.extract_contours.vertices"] += sum(len(p) for p in result.polylines)
    elif name in ("sweep.render_svg", "sweep.grids_to_json", "sweep.grids_to_csv"):
        counts[f"{name}.bytes"] += len(result.encode("utf-8"))
        if name != "sweep.render_svg":
            counts["sweep.export.cells"] += sum(int(g.c_values.size) for g in args[0])
    elif name == "cohort.simulate_cohort":
        counts["cohort.simulate_cohort.subjects"] += args[0].n_subjects


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[f"{name}.calls"] += 1
        parent = tracer.innermost()
        if name == "measures.derive_measures" and parent in HOT_PARENTS:
            tracer.counts[f"{parent}.evals"] += 1
            return fn(*args, **kwargs)
        memory = name == "cohort.simulate_cohort"
        if memory:
            tracemalloc.start()
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if memory and args[0].n_subjects >= tracer._largest_cohort:
            tracer._largest_cohort = args[0].n_subjects
            tracer.peak_bytes_per_subject = peak / args[0].n_subjects
        _on_result(tracer, name, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every layer function, in every binaryrisk module that holds it."""
    from binaryrisk import cli, cohort, measures, sweep

    modules = {"measures": measures, "cohort": cohort, "sweep": sweep}
    for module_name, function in LAYERS:
        original = getattr(modules[module_name], function)
        wrapper = _wrap(tracer, f"{module_name}.{function}", original)
        for namespace in (cli, cohort, measures, sweep):
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)

    params = measures.PopulationParams
    validate = params.__post_init__

    def counted_post_init(self):
        tracer.counts["measures.params.calls"] += 1
        validate(self)

    params.__post_init__ = counted_post_init


def layer_metrics(tracer: Tracer, out_bytes: int) -> dict[str, float]:
    """The per-layer table, from the spans and counts of one traced pass."""
    counts = tracer.counts
    self_ns = tracer.self_ns()

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "cli.main.calls": counts["cli.main.calls"],
        "cli.out_bytes": out_bytes,
        "measures.params.calls": counts["measures.params.calls"],
        "measures.rr_for_target_c.evals_per_call": per(
            counts["measures.rr_for_target_c.evals"], counts["measures.rr_for_target_c.calls"]),
        "sweep.evaluate_grid.cells": counts["sweep.evaluate_grid.cells"],
        "sweep.evaluate_grid.masked_cells": counts["sweep.evaluate_grid.masked_cells"],
        "sweep.evaluate_grid.ns_per_cell": per(
            self_ns["sweep.evaluate_grid"], counts["sweep.evaluate_grid.cells"]),
        "sweep.extract_contours.polylines": counts["sweep.extract_contours.polylines"],
        "sweep.extract_contours.vertices": counts["sweep.extract_contours.vertices"],
        "sweep.export.ns_per_cell": per(
            self_ns["sweep.grids_to_json"] + self_ns["sweep.grids_to_csv"],
            counts["sweep.export.cells"]),
        "cohort.simulate_cohort.ns_per_subject": per(
            self_ns["cohort.simulate_cohort"], counts["cohort.simulate_cohort.subjects"]),
        "cohort.simulate_cohort.peak_bytes_per_subject": tracer.peak_bytes_per_subject,
    }
    for name in ("cli.main",) + tuple(f"{m}.{f}" for m, f in LAYERS):
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name in ("sweep.render_svg", "sweep.grids_to_json", "sweep.grids_to_csv"):
        metrics[f"{name}.bytes"] = counts[f"{name}.bytes"]
    return metrics
