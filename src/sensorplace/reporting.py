"""Whole-vehicle aggregation, adherence diagnostics, and CSV emission.

Per-side results are solved against side-local weighting, so the
aggregate recomputes the union coverage of every selected sensor over
the full cloud with the global criticality total.  Cross-side FoV
overlap can therefore push the aggregate above the criticality-weighted
mean of the per-side numbers.

Adherence is a post-processing diagnostic only (never a constraint): of
the points at or above the criticality threshold, which fraction lies
inside at least two selected FoVs, and inside FoVs of at least two
distinct sensor types.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import MissingSideError, NoCriticalPointsError
from .fixed_count import SelectionResult
from .geometry import RoiCloud, SensorConfig, Side, SIDE_ORDER, fov_mask

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


def adherence(
    configs,
    cloud: RoiCloud,
    catalog,
) -> tuple[float, float]:
    """Fractions of critical points inside >= 2 FoVs and >= 2 distinct-type FoVs.

    Raises :class:`NoCriticalPointsError` when no point reaches
    ``ADHERENCE_THRESHOLD``, so callers can report an explicit
    not-applicable marker instead of a bogus 0/0.
    """
    critical = cloud.criticality >= ADHERENCE_THRESHOLD
    denom = int(critical.sum())
    if denom == 0:
        raise NoCriticalPointsError(f"no points with criticality >= {ADHERENCE_THRESHOLD}")
    pts = cloud.points[critical]

    configs = list(configs)
    sensor_count = np.zeros(denom, dtype=np.int64)
    type_masks: dict[int, np.ndarray] = {}
    for cfg in configs:
        m = fov_mask(cfg, catalog[cfg.type_index], pts)
        sensor_count += m
        if cfg.type_index in type_masks:
            type_masks[cfg.type_index] |= m
        else:
            type_masks[cfg.type_index] = m

    type_count = np.zeros(denom, dtype=np.int64)
    for m in type_masks.values():
        type_count += m

    two_sensors = int((sensor_count >= 2).sum()) / denom
    two_types = int((type_count >= 2).sum()) / denom
    return two_sensors, two_types


def aggregate(
    per_side: dict[Side, SelectionResult | None],
    cloud: RoiCloud,
    catalog,
) -> AggregateReport:
    """Coalesce per-side selections into whole-vehicle coverage and cost.

    ``cloud`` is the full region of interest; coverage is the exact
    union of every selected FoV weighted by the global criticality
    total.  A side mapped to None (nothing to cover) contributes no
    sensors; a side absent from ``per_side`` is an error.
    """
    missing = [s.value for s in SIDE_ORDER if s not in per_side]
    if missing:
        raise MissingSideError(f"missing sides: {', '.join(missing)}")

    solved = [per_side[s] for s in SIDE_ORDER if per_side[s] is not None]
    selected_configs: list[SensorConfig] = [cfg for r in solved for cfg in r.configs]

    covered = np.zeros(len(cloud), dtype=bool)
    for cfg in selected_configs:
        covered |= fov_mask(cfg, catalog[cfg.type_index], cloud.points)
    coverage = float(cloud.criticality[covered].sum() / cloud.total_criticality)
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
    """Retained-run statistics after dropping the single worst of a batch."""

    num_runs: int
    dropped_run: int
    objective_mean: float
    objective_min: float
    objective_max: float
    coverage_mean: float
    coverage_min: float
    coverage_max: float
    cost_mean: float
    cost_min: float
    cost_max: float


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
    obj = np.array([r.objective for r in retained])
    cov = np.array([r.coverage for r in retained])
    cost = np.array([r.cost for r in retained])
    return retained, RunStats(
        num_runs=len(runs),
        dropped_run=dropped,
        objective_mean=float(obj.mean()),
        objective_min=float(obj.min()),
        objective_max=float(obj.max()),
        coverage_mean=float(cov.mean()),
        coverage_min=float(cov.min()),
        coverage_max=float(cov.max()),
        cost_mean=float(cost.mean()),
        cost_min=float(cost.min()),
        cost_max=float(cost.max()),
    )


def best_run(runs: list[SelectionResult]) -> SelectionResult:
    """Lowest-objective run; ties break toward the earliest run."""
    return runs[int(np.argmin([r.objective for r in runs]))]


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _result_cells(r: SelectionResult | None) -> list[str]:
    """Coverage, cost, objective and selected indices of a result, ``n/a`` without one."""
    if r is None:
        return ["n/a"] * 4
    return [_fmt(r.coverage), _fmt(r.cost), _fmt(r.objective), " ".join(str(i) for i in r.selected)]


@dataclass(frozen=True)
class SweepRow:
    side: Side
    num_sensors: int | None
    solver: str
    result: SelectionResult | None
    stats: RunStats | None = None
    error: str | None = None


#: RunStats fields in sweep.csv column order; the header calls ``num_runs`` "runs".
_STATS_COLUMNS = (
    "num_runs", "dropped_run",
    "coverage_mean", "coverage_min", "coverage_max",
    "cost_mean", "cost_min", "cost_max",
    "objective_mean", "objective_min", "objective_max",
)


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["side", "n_sensors", "solver", "coverage", "cost", "objective", "selected", "runs"]
            + list(_STATS_COLUMNS[1:])
            + ["error"]
        )
        for row in rows:
            s = row.stats
            writer.writerow(
                [row.side.value, _fmt(row.num_sensors), row.solver]
                + _result_cells(row.result)
                + [_fmt(getattr(s, name) if s else None) for name in _STATS_COLUMNS]
                + [row.error or ""]
            )


def write_aggregate_csv(path, reports: dict[str, AggregateReport]) -> None:
    """One row per (solver, side) plus an aggregate row per solver."""
    with open(path, "w", newline="") as fh:
        fh.write(AGGREGATE_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(["solver", "side", "coverage", "cost", "objective", "selected"])
        for solver in sorted(reports):
            report = reports[solver]
            for side in SIDE_ORDER:
                writer.writerow([solver, side.value] + _result_cells(report.per_side[side]))
            writer.writerow(
                [solver, "aggregate", _fmt(report.aggregate_coverage), _fmt(report.total_cost), "", ""]
            )


def write_adherence_csv(path, reports: dict[str, AggregateReport]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(ADHERENCE_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(["solver", "two_sensors", "two_distinct_types"])
        for solver in sorted(reports):
            report = reports[solver]
            writer.writerow(
                [solver, _fmt(report.adherence_two_sensors), _fmt(report.adherence_two_types)]
            )
