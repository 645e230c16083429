"""Fixed sensor-count selection: minimize -w_cov * coverage + w_cost * cost.

The decision is which candidates to mount, subject to at most one sensor
per position and exactly ``num_sensors`` sensors in total.  Covered-point
indicator variables are never materialized: at any optimum they equal
the OR of the selected coverage rows, so the objective is evaluated
directly from the precomputed masks.

`solve_exhaustive` is the desk-scale exact reference; `solve_greedy` is
the scalable baseline.  Both are deterministic, including tie-breaks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .coverage import CoverageData, exact_union_coverage
from .errors import BudgetExceededError, InfeasibleError, SensorPlaceError
from .geometry import SensorConfig

DEFAULT_COVERAGE_WEIGHT = 1.0
DEFAULT_COST_WEIGHT = 1e-4
DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class SelectionResult:
    """A solved selection with its exact coverage, cost and objective.

    ``selected`` holds candidate indices (sorted); ``configs`` the
    resolved placements for downstream aggregation.  ``objective`` is
    always ``-coverage_weight * coverage + cost_weight * cost`` with the
    exact union coverage.
    """

    selected: tuple[int, ...]
    coverage: float
    cost: float
    objective: float
    solver_tag: str
    feasible: bool
    configs: tuple[SensorConfig, ...] = ()
    seed: int | None = None
    run_index: int | None = None


@dataclass(frozen=True)
class FixedCountProblem:
    """One side's fixed-count instance over precomputed coverage."""

    data: CoverageData
    costs: NDArray[np.float64]
    coverage_weight: float
    cost_weight: float
    num_sensors: int
    position_groups: dict[int, tuple[int, ...]]
    position_of: NDArray[np.int64]

    def __post_init__(self):
        if self.coverage_weight < 0.0 or self.cost_weight < 0.0:
            raise ValueError("objective weights must be non-negative")
        if not 1 <= self.num_sensors <= len(self.position_groups):
            raise ValueError(
                f"num_sensors must be in [1, {len(self.position_groups)}], got {self.num_sensors}"
            )


def position_index_map(configs) -> tuple[dict[int, tuple[int, ...]], NDArray[np.int64]]:
    """Group candidate indices by mount position.

    Returns the position -> candidate-indices mapping and the inverse
    per-candidate position array.  Positions are keyed by order of first
    appearance in the candidate list.
    """
    keys: dict[tuple, int] = {}
    groups: dict[int, list[int]] = {}
    position_of = np.empty(len(configs), dtype=np.int64)
    for i, cfg in enumerate(configs):
        key = (cfg.side, cfg.position)
        p = keys.setdefault(key, len(keys))
        groups.setdefault(p, []).append(i)
        position_of[i] = p
    return {p: tuple(v) for p, v in groups.items()}, position_of


def make_problem(
    data: CoverageData,
    catalog,
    num_sensors: int,
    coverage_weight: float = DEFAULT_COVERAGE_WEIGHT,
    cost_weight: float = DEFAULT_COST_WEIGHT,
) -> FixedCountProblem:
    from .geometry import config_costs

    groups, position_of = position_index_map(data.configs)
    return FixedCountProblem(
        data=data,
        costs=config_costs(data.configs, catalog),
        coverage_weight=coverage_weight,
        cost_weight=cost_weight,
        num_sensors=num_sensors,
        position_groups=groups,
        position_of=position_of,
    )


def selection_cost(selection, problem: FixedCountProblem) -> float:
    idx = list(selection)
    return float(problem.costs[idx].sum()) if idx else 0.0


def objective(selection, problem: FixedCountProblem) -> float:
    """-coverage_weight * exact union coverage + cost_weight * total cost."""
    cov = exact_union_coverage(selection, problem.data)
    return -problem.coverage_weight * cov + problem.cost_weight * selection_cost(selection, problem)


def evaluate_selection(
    selection,
    problem: FixedCountProblem,
    solver_tag: str,
    seed: int | None = None,
    run_index: int | None = None,
    free_count: bool = False,
) -> SelectionResult:
    """Package a selection into a :class:`SelectionResult` with exact metrics.

    Costs, weights and positions come from ``problem``.  The feasibility
    flag always requires pairwise-distinct positions; the sensor-count
    constraint applies unless ``free_count`` is set (the quadratic
    formulation, whose count is an output).
    """
    idx = tuple(sorted(int(i) for i in selection))
    cov = exact_union_coverage(idx, problem.data)
    cost = selection_cost(idx, problem)
    distinct = len(set(problem.position_of[list(idx)].tolist())) == len(idx)
    return SelectionResult(
        selected=idx,
        coverage=cov,
        cost=cost,
        objective=-problem.coverage_weight * cov + problem.cost_weight * cost,
        solver_tag=solver_tag,
        feasible=distinct and (free_count or len(idx) == problem.num_sensors),
        configs=tuple(problem.data.configs[i] for i in idx),
        seed=seed,
        run_index=run_index,
    )


def evaluate_bits(
    bits,
    problem: FixedCountProblem,
    solver_tag: str,
    seed: int | None = None,
    run_index: int | None = None,
) -> SelectionResult:
    """Decode a free-count bit vector (bit i set = candidate i mounted) and score it."""
    return evaluate_selection(np.flatnonzero(bits), problem, solver_tag, seed, run_index, free_count=True)


def solve_exhaustive(
    problem: FixedCountProblem,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SelectionResult:
    """Global optimum by enumerating every feasible selection.

    Ties in the objective break toward the lexicographically smallest
    index tuple.  Raises :class:`BudgetExceededError` when the candidate
    count ``C(N, num_sensors)`` exceeds ``budget``.
    """
    n = problem.data.num_configs
    k = problem.num_sensors
    count = math.comb(n, k)
    if count > budget:
        raise BudgetExceededError(count, budget)

    best_obj = None
    best_sel = None
    position_of = problem.position_of
    for sel in itertools.combinations(range(n), k):
        positions = position_of[list(sel)]
        if len(set(positions.tolist())) != k:
            continue
        obj = objective(sel, problem)
        if best_obj is None or obj < best_obj or (obj == best_obj and sel < best_sel):
            best_obj = obj
            best_sel = sel
    if best_sel is None:
        raise InfeasibleError(f"no feasible selection of {k} sensors over {len(problem.position_groups)} positions")
    return evaluate_selection(best_sel, problem, solver_tag="exhaustive")


def solve_greedy(problem: FixedCountProblem) -> SelectionResult:
    """Add, one at a time, the candidate with the best marginal objective change.

    Deterministic: float ties break toward the smallest candidate index.
    A picked candidate blocks every candidate at its mount position;
    :class:`FixedCountProblem` guarantees enough positions for the count.
    """
    data = problem.data
    mask_f = data.masks.astype(float)
    selected: list[int] = []
    blocked = np.zeros(data.num_configs, dtype=bool)
    covered = np.zeros(data.num_points, dtype=bool)
    for _ in range(problem.num_sensors):
        remaining = data.weights * ~covered
        gains = mask_f @ remaining / data.normalizer
        delta = -problem.coverage_weight * gains + problem.cost_weight * problem.costs
        delta[blocked] = np.inf
        pick = int(np.argmin(delta))
        selected.append(pick)
        blocked |= problem.position_of == problem.position_of[pick]
        covered |= data.masks[pick]
    return evaluate_selection(selected, problem, solver_tag="greedy")


@dataclass(frozen=True)
class SweepEntry:
    num_sensors: int
    result: SelectionResult | None
    error: str | None = None


@dataclass(frozen=True)
class SweepOutcome:
    entries: tuple[SweepEntry, ...]
    best: SelectionResult | None


def sweep_num_sensors(problem: FixedCountProblem, counts, solver=solve_exhaustive) -> SweepOutcome:
    """Solve the instance once per sensor count; per-count errors are recorded
    in the entry instead of aborting the sweep."""
    counts = list(counts)
    if not counts:
        raise ValueError("sweep requires at least one sensor count")
    entries: list[SweepEntry] = []
    best: SelectionResult | None = None
    for k in counts:
        try:
            res = solver(replace(problem, num_sensors=int(k)))
        except (SensorPlaceError, ValueError) as exc:
            entries.append(SweepEntry(int(k), None, f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(SweepEntry(int(k), res))
        if best is None or res.objective < best.objective:
            best = res
    return SweepOutcome(tuple(entries), best)
