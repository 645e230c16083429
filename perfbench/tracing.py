"""Span tracing of the pipeline from outside the program.

The tracer replaces public functions at the names their callers look
them up by (``sensorplace.pipeline.anneal``, ``sensorplace.vqe.apply_ansatz``,
...) with timing wrappers, and restores the originals afterwards.
Functions called once per side or per sweep entry get one span each
(name, start, end, parent); functions called thousands of times per
round get a call count and a total time instead.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _feasible_tuples(problem) -> int:
    """Selections of ``num_sensors`` candidates at pairwise distinct positions.

    The elementary symmetric polynomial of the per-position candidate
    counts, computed from the problem's position map.
    """
    sizes = defaultdict(int)
    for p in problem.position_of.tolist():
        sizes[p] += 1
    e = [1] + [0] * problem.num_sensors
    for size in sizes.values():
        for j in range(problem.num_sensors, 0, -1):
            e[j] += e[j - 1] * size
    return e[problem.num_sensors]


def _note_exhaustive(notes, arguments, result):
    notes["fixed_count.feasible_tuples"] += _feasible_tuples(arguments["problem"])


def _note_qubo(notes, arguments, result):
    notes["setcover.assignments"] += 2 ** arguments["model"].num_variables


def _note_anneal(notes, arguments, result):
    schedule = arguments["schedule"]
    spins = arguments["model"].num_spins
    notes["annealer.spin_updates"] += schedule.num_reads * schedule.sweeps_per_read * spins
    notes["annealer.unique_samples"] += len(result)


def _note_vqe(notes, arguments, result):
    notes["vqe.eval_budget"] += arguments["optimizer"].max_evals + 1


def _note_generate(notes, arguments, result):
    notes["roi.points"] += len(result)


def _note_coverage(notes, arguments, result):
    notes["coverage.mask_cells"] += result.num_configs * result.num_points


def _exhaustive_key(arguments):
    return f"k{arguments['problem'].num_sensors}"


# (module, attribute, span name, per-call key, note) for spanned calls.
SPANNED = [
    ("pipeline", "generate_synthetic_roi", "roi.generate", None, _note_generate),
    ("pipeline", "partition_roi", "geometry.partition", None, None),
    ("pipeline", "enumerate_configs", "geometry.enumerate", None, None),
    ("pipeline", "build_coverage", "coverage.build", None, _note_coverage),
    ("pipeline", "make_problem", "fixed_count.make_problem", None, None),
    ("pipeline", "sweep_num_sensors", "fixed_count.sweep", None, None),
    ("pipeline", "solve_exhaustive", "fixed_count.exhaustive", _exhaustive_key, _note_exhaustive),
    ("pipeline", "solve_greedy", "fixed_count.greedy", None, None),
    ("pipeline", "vqe_fixed_count", "vqe.run", None, _note_vqe),
    ("pipeline", "build_iqp", "setcover.build_iqp", None, None),
    ("pipeline", "to_ising", "setcover.to_ising", None, None),
    ("pipeline", "solve_exhaustive_qubo", "setcover.exhaustive_qubo", None, _note_qubo),
    ("pipeline", "scaled_schedule", "annealer.schedule", None, None),
    ("pipeline", "anneal", "annealer.anneal", None, _note_anneal),
    ("pipeline", "best_selection", "annealer.best_selection", None, None),
    ("pipeline", "vqe_ising", "vqe.run", None, _note_vqe),
    ("pipeline", "drop_worst_and_summarize", "reporting.summarize", None, None),
    ("pipeline", "best_run", "reporting.best_run", None, None),
    ("pipeline", "aggregate", "reporting.aggregate", None, None),
    ("pipeline", "write_sweep_csv", "reporting.write", None, None),
    ("pipeline", "write_aggregate_csv", "reporting.write", None, None),
    ("pipeline", "write_adherence_csv", "reporting.write", None, None),
]

# (module, attribute, counter name) for calls made thousands of times.
COUNTED = [
    ("fixed_count", "objective", "fixed_count.objective"),
    ("vqe", "selection_objective", "fixed_count.objective"),
    ("vqe", "apply_ansatz", "vqe.ansatz"),
    ("vqe", "sample_histogram", "vqe.histogram"),
]


class Tracer:
    """Collects spans, call counters and notes for one traced round."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or None]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.notes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name, fn, key=None, note=None):
        signature = inspect.signature(fn)

        def bind(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def wrapper(*args, **kwargs):
            full = f"{name}.{key(bind(args, kwargs))}" if key else name
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([full, 0.0, 0.0, parent])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if note is not None:
                note(self.notes, bind(args, kwargs), result)
            return result

        return wrapper

    def counted(self, name, fn):
        counter = self.counters[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[1] += perf_counter() - start
                counter[0] += 1

        return wrapper

    @contextmanager
    def installed(self, package):
        """Patch the package's functions for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, key, note in SPANNED:
                module = getattr(package, module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(name, getattr(module, attr), key, note))
            for module_name, attr, name in COUNTED:
                module = getattr(package, module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counted(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Totals and self times per span name, counters and notes."""
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            self_total[name] += own
            calls[name] += 1
        return {
            "top_level_s": sum(
                end - start for _, start, end, parent in self.spans if parent is None
            ),
            "span_total_s": dict(total),
            "span_self_s": dict(self_total),
            "span_calls": dict(calls),
            "counters": {k: {"calls": v[0], "total_s": v[1]} for k, v in self.counters.items()},
            "notes": dict(self.notes),
        }


def layer_metrics(summary: dict, ks, traced_solve_s: float, untraced_solve_s: float) -> dict:
    """Per-layer metrics of one traced round, named as in BENCHMARK.json."""
    total = defaultdict(float, summary["span_total_s"])
    counters = defaultdict(lambda: {"calls": 0, "total_s": 0.0}, summary["counters"])
    notes = defaultdict(int, summary["notes"])

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    exhaustive_s = sum((v for k, v in total.items() if k.startswith("fixed_count.exhaustive.")), 0.0)
    ansatz = counters["vqe.ansatz"]
    histogram = counters["vqe.histogram"]
    m = {
        "roi.generate_s": total["roi.generate"],
        "roi.points": notes["roi.points"],
        "geometry.partition_s": total["geometry.partition"],
        "geometry.enumerate_s": total["geometry.enumerate"],
        "coverage.build_s": total["coverage.build"],
        "coverage.mask_cells": notes["coverage.mask_cells"],
        "coverage.mask_cells_per_s": ratio(notes["coverage.mask_cells"], total["coverage.build"]),
        "fixed_count.exhaustive_s": exhaustive_s,
    }
    for k in ks:
        m[f"fixed_count.exhaustive_s.k{k}"] = total[f"fixed_count.exhaustive.k{k}"]
    m.update({
        "fixed_count.objective_calls": counters["fixed_count.objective"]["calls"],
        "fixed_count.feasible_tuples": notes["fixed_count.feasible_tuples"],
        "fixed_count.ns_per_feasible_tuple": ratio(exhaustive_s, notes["fixed_count.feasible_tuples"], 1e9),
        "fixed_count.greedy_s": total["fixed_count.greedy"],
        "setcover.build_iqp_s": total["setcover.build_iqp"],
        "setcover.to_ising_s": total["setcover.to_ising"],
        "setcover.exhaustive_qubo_s": total["setcover.exhaustive_qubo"],
        "setcover.assignments_per_s": ratio(notes["setcover.assignments"], total["setcover.exhaustive_qubo"]),
        "annealer.schedule_s": total["annealer.schedule"],
        "annealer.anneal_s": total["annealer.anneal"],
        "annealer.spin_updates": notes["annealer.spin_updates"],
        "annealer.ns_per_spin_update": ratio(total["annealer.anneal"], notes["annealer.spin_updates"], 1e9),
        "annealer.best_selection_s": total["annealer.best_selection"],
        "annealer.unique_samples": notes["annealer.unique_samples"],
        "vqe.run_s": total["vqe.run"],
        "vqe.ansatz_evals": ansatz["calls"],
        "vqe.ansatz_s": ansatz["total_s"],
        "vqe.ms_per_ansatz_eval": ratio(ansatz["total_s"], ansatz["calls"], 1e3),
        "vqe.histogram_s": histogram["total_s"],
        "vqe.optimizer_s": total["vqe.run"] - ansatz["total_s"] - histogram["total_s"],
        "vqe.evals_over_budget": ansatz["calls"] - notes["vqe.eval_budget"],
        "reporting.aggregate_s": total["reporting.aggregate"],
        "reporting.write_s": total["reporting.write"],
        # What the top-level spans do not cover is the pipeline's own time.
        "pipeline.self_s": traced_solve_s - summary["top_level_s"],
        "trace.overhead_s": traced_solve_s - untraced_solve_s,
    })
    return m

