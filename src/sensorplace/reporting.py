"""Whole-vehicle aggregation, adherence diagnostics, and the layout of
every CSV that ``solve`` writes.

Per-side results are solved against side-local weighting, so the
aggregate recomputes the union coverage of every selected sensor over
the full cloud with the global criticality total: it builds the
selected sensors' :func:`~sensorplace.coverage.build_coverage` over that
cloud and reads their exact union.  Cross-side FoV overlap can therefore
push the aggregate above the criticality-weighted mean of the per-side
numbers.

Adherence is a post-processing diagnostic only (never a constraint): of
the points at or above the criticality threshold, which fraction lies
inside at least two selected FoVs, and inside FoVs of at least two
distinct sensor types.  It counts both from the coverage masks of the
selected sensors over those critical points.

Each CSV writer here only builds the rows of one file, the samples and
trace dumps included, and :func:`sensorplace.plain.write_csv` writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .annealer import SampleSet
from .coverage import build_coverage, exact_union_coverage, union_mask
from .errors import MissingSideError, NoCriticalPointsError
from .fixed_count import SelectionResult
from .geometry import RoiCloud, Side, SIDE_ORDER
from .plain import write_csv

SWEEP_SCHEMA = "# sensorplace sweep csv v1"
AGGREGATE_SCHEMA = "# sensorplace aggregate csv v1"
ADHERENCE_SCHEMA = "# sensorplace adherence csv v1"

ADHERENCE_THRESHOLD = 0.7


@dataclass(frozen=True)
class AggregateReport:
    per_side: dict[Side, SelectionResult | None]  # None: the side had no points to cover
    total_cost: float
    aggregate_coverage: float
    adherence_two_sensors: float | None
    adherence_two_types: float | None


def adherence(configs, cloud: RoiCloud, catalog) -> tuple[float, float]:
    """Fractions of critical points inside >= 2 FoVs and >= 2 distinct-type FoVs.

    Raises :class:`NoCriticalPointsError` when no point reaches
    ``ADHERENCE_THRESHOLD``, so callers can report an explicit
    not-applicable marker instead of a bogus 0/0.
    """
    critical = cloud.subset(cloud.criticality >= ADHERENCE_THRESHOLD)
    denom = len(critical)
    if denom == 0:
        raise NoCriticalPointsError(f"no points with criticality >= {ADHERENCE_THRESHOLD}")
    data = build_coverage(critical, tuple(configs), catalog)
    types = [cfg.type_index for cfg in data.configs]
    sensor_count = data.masks.sum(axis=0)
    type_count = np.zeros(denom, dtype=np.int64)
    for t in set(types):
        type_count += union_mask([i for i, u in enumerate(types) if u == t], data)

    two_sensors = int((sensor_count >= 2).sum()) / denom
    two_types = int((type_count >= 2).sum()) / denom
    return two_sensors, two_types


def aggregate(per_side: dict[Side, SelectionResult | None], cloud: RoiCloud, catalog) -> AggregateReport:
    """Coalesce per-side selections into whole-vehicle coverage and cost.

    ``cloud`` is the full region of interest; coverage is the exact
    union of every selected FoV weighted by the global criticality
    total.  A side mapped to None (nothing to cover) contributes no
    sensors; a side absent from ``per_side`` is an error, and so is a
    cloud with zero total criticality (:class:`EmptyCloudError`).
    """
    missing = [s.value for s in SIDE_ORDER if s not in per_side]
    if missing:
        raise MissingSideError(f"missing sides: {', '.join(missing)}")

    solved = [per_side[s] for s in SIDE_ORDER if per_side[s] is not None]
    selected_configs = [cfg for r in solved for cfg in r.configs]
    data = build_coverage(cloud, selected_configs, catalog)
    coverage = exact_union_coverage(range(len(selected_configs)), data)
    total_cost = float(sum(r.cost for r in solved))

    try:
        two_sensors, two_types = adherence(selected_configs, cloud, catalog)
    except NoCriticalPointsError:
        two_sensors = two_types = None

    return AggregateReport(
        per_side=dict(per_side),
        total_cost=total_cost,
        aggregate_coverage=coverage,
        adherence_two_sensors=two_sensors,
        adherence_two_types=two_types,
    )


@dataclass(frozen=True)
class RunStats:
    """Retained-run statistics after dropping the single worst of a batch.

    The fields are in ``sweep.csv`` column order.
    """

    num_runs: int
    dropped_run: int
    coverage_mean: float
    coverage_min: float
    coverage_max: float
    cost_mean: float
    cost_min: float
    cost_max: float
    objective_mean: float
    objective_min: float
    objective_max: float


def drop_worst_and_summarize(runs: list[SelectionResult]) -> tuple[list[SelectionResult], RunStats]:
    """Drop the worst-objective run, summarize the rest (mean and min-max range).

    With a single run nothing is dropped.  Ties break toward the first
    worst run for determinism.
    """
    if not runs:
        raise ValueError("no runs to summarize")
    if len(runs) == 1:
        retained = list(runs)
        dropped = -1
    else:
        objectives = [r.objective for r in runs]
        dropped = int(np.argmax(objectives))
        retained = [r for i, r in enumerate(runs) if i != dropped]
    summary = {}
    for name in ("coverage", "cost", "objective"):
        values = np.array([getattr(r, name) for r in retained])
        for stat in ("mean", "min", "max"):
            summary[f"{name}_{stat}"] = float(getattr(values, stat)())
    return retained, RunStats(num_runs=len(runs), dropped_run=dropped, **summary)


def best_run(runs: list[SelectionResult]) -> SelectionResult:
    """Lowest-objective run; ties break toward the earliest run."""
    return runs[int(np.argmin([r.objective for r in runs]))]


# ---------------------------------------------------------------------------
# CSV emission


def _result_cells(r: SelectionResult | None) -> list:
    """Coverage, cost, objective and selected indices of a result, ``n/a`` without one."""
    if r is None:
        return [None] * 4
    return [r.coverage, r.cost, r.objective, " ".join(map(str, r.selected))]


@dataclass(frozen=True)
class SweepRow:
    side: Side
    num_sensors: int | None
    solver: str
    result: SelectionResult | None
    stats: RunStats | None = None
    error: str | None = None


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    """One row per sweep entry; the ``RunStats`` columns follow ``selected``,
    with ``num_runs`` headed "runs", and an entry without an error leaves
    ``error`` empty."""
    stats_columns = [f.name for f in fields(RunStats)]
    header = ["side", "n_sensors", "solver", "coverage", "cost", "objective", "selected", "runs"]
    write_csv(path, header + stats_columns[1:] + ["error"], (
        [row.side.value, row.num_sensors, row.solver]
        + _result_cells(row.result)
        + [getattr(row.stats, name) if row.stats else None for name in stats_columns]
        + [row.error or ""]
        for row in rows
    ), SWEEP_SCHEMA)


def write_aggregate_csv(path, reports: dict[str, AggregateReport]) -> None:
    """One row per (solver, side) plus an aggregate row per solver, whose
    ``objective`` and ``selected`` are empty."""

    def rows():
        for solver in sorted(reports):
            report = reports[solver]
            for side in SIDE_ORDER:
                yield [solver, side.value] + _result_cells(report.per_side[side])
            yield [solver, "aggregate", report.aggregate_coverage, report.total_cost, "", ""]

    write_csv(path, ["solver", "side", "coverage", "cost", "objective", "selected"], rows(), AGGREGATE_SCHEMA)


def write_adherence_csv(path, reports: dict[str, AggregateReport]) -> None:
    write_csv(path, ["solver", "two_sensors", "two_distinct_types"], (
        [solver, reports[solver].adherence_two_sensors, reports[solver].adherence_two_types]
        for solver in sorted(reports)
    ), ADHERENCE_SCHEMA)


def write_samples_csv(path, samples: SampleSet) -> None:
    """An annealer sample set, one row per unique assignment in energy order."""
    bits = ("".join(map(str, row.tolist())) for row in samples.assignments)
    write_csv(path, ["energy", "multiplicity", "bits"], zip(samples.energies, samples.multiplicities, bits))


def write_trace_csv(path, trace: list[tuple[int, float, NDArray[np.float64]]]) -> None:
    """A variational run's trace: each evaluation's index, objective and angles."""
    header = ["iteration", "objective"] + [f"theta{i}" for i in range(len(trace[0][2]))]
    write_csv(path, header, ([it, obj, *theta] for it, obj, theta in trace))
