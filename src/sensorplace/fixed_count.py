"""Fixed sensor-count selection: minimize -w_cov * coverage + w_cost * cost.

The decision is which candidates to mount, subject to at most one sensor
per position and exactly ``num_sensors`` sensors in total.  Covered-point
indicator variables are never materialized: at any optimum they equal
the OR of the selected coverage rows, so the objective is evaluated
directly from the precomputed masks.

`solve_exhaustive` is the desk-scale exact reference; `solve_greedy` is
the scalable baseline.  Both are deterministic, including tie-breaks.

The exact search runs in two stages.  A screen walks the
position-feasible ``(k - 1)``-prefixes in blocks, builds each block's
union masks once and scores every legal last candidate with one matrix
product.  Only tuples whose screened objective lies within a proven
rounding bound of the best screened value are confirmed with
:func:`objective`, which alone decides the winner.
"""

from __future__ import annotations

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

#: Doubles in one screening work buffer (256 KB); a block of the
#: exhaustive screen holds as many prefixes as fit one buffer.
_SCREEN_BUDGET = 1 << 15


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
    )


def evaluate_bits(
    bits,
    problem: FixedCountProblem,
    solver_tag: str,
    seed: int | None = None,
) -> SelectionResult:
    """Decode a free-count bit vector (bit i set = candidate i mounted) and score it."""
    return evaluate_selection(np.flatnonzero(bits), problem, solver_tag, seed, free_count=True)


def _legal_next(prefixes: NDArray[np.int64], position_of: NDArray[np.int64]) -> NDArray[np.bool_]:
    """``(r, N)`` mask of the candidates each sorted prefix row may append:
    an index above its last one, at a position it does not use."""
    legal = np.arange(len(position_of)) > prefixes.max(axis=1, initial=-1)[:, None]
    for col in prefixes.T:
        legal &= position_of != position_of[col][:, None]
    return legal


def _feasible_blocks(position_of: NDArray[np.int64], length: int, rows: int):
    """Index tuples of ``length`` at pairwise distinct positions, in
    lexicographic order, as ``(r, length)`` arrays of at most ``rows`` rows.

    Each block of shorter tuples is extended by every legal next index at
    once; ``np.nonzero`` keeps the row-major, hence lexicographic, order.
    """
    if length == 0:
        yield np.empty((1, 0), dtype=np.int64)
        return
    for parents in _feasible_blocks(position_of, length - 1, rows):
        r, j = np.nonzero(_legal_next(parents, position_of))
        tuples = np.column_stack([parents[r], j])
        for lo in range(0, len(tuples), rows):
            yield tuples[lo:lo + rows]


def solve_exhaustive(
    problem: FixedCountProblem,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SelectionResult:
    """Global optimum over every feasible selection.

    Ties in the objective break toward the lexicographically smallest
    index tuple.  Raises :class:`BudgetExceededError` when the candidate
    count ``C(N, num_sensors)`` exceeds ``budget``.

    **Screen.**  The position-feasible ``(k - 1)``-prefixes are walked
    lazily in blocks (:func:`_feasible_blocks`).  For a block with union
    masks ``C`` every last candidate ``j`` is scored at once: the covered
    weight is ``sum(w[C]) + ((~C) * w) @ masks.T`` and the cost the
    prefix cost plus ``costs[j]``.  A last index not above the prefix's
    last one, or at a position the prefix uses, is masked out.  Points
    that every candidate covers alike are merged first (their weights
    summed), which changes no covered weight but shrinks the product.
    A block holds ``rows`` prefixes with ``rows * (points + N)`` at most
    ``_SCREEN_BUDGET``, so its float buffers stay near 256 KB and memory
    stays flat whatever the size of the search.

    **Confirm.**  The screened value differs from :func:`objective` only
    by rounding.  Both sum non-negative terms: at most ``n`` criticalities
    (``n`` points, merged or split into partial sums along the way) and
    ``k`` costs.  A float sum of ``m`` non-negative terms in any order or
    grouping is within ``gamma_m = m u / (1 - m u)`` (``u = eps / 2``) of
    its exact value relative to the exact sum, and products by 0/1 masks
    are exact.  The division by the normalizer, the two weight products
    and the final addition cost at most four more roundings, so each of
    the two values lies within ``gamma_{n + k + 4} * (w_cov * cov +
    w_cost * cost)`` of the exact objective.  With ``gamma_m <= 2 m u =
    m eps`` (``m u <= 1/2``), ``cov <= sum(w) / normalizer`` and ``cost
    <= sum(costs)`` they differ by at most ``2 (n + k + 4) eps (w_cov
    sum(w) / normalizer + w_cost sum(costs))``; ``tau`` is twice that,
    which also absorbs the rounding of ``tau`` itself and of the
    threshold below.

    A tuple whose screened value exceeds the best screened value by more
    than ``2 tau`` has an objective above that best tuple's, so it cannot
    win.  Every tuple within ``2 tau`` of the running screened minimum (a
    superset, since the minimum only falls) is scored with
    :func:`objective` as it streams past, and only the exact incumbent is
    held.  The winner is therefore the enumerator's: the lowest
    objective, ties to the smallest tuple, and memory stays flat even
    when every tuple ties.
    """
    data = problem.data
    n = data.num_configs
    k = problem.num_sensors
    count = math.comb(n, k)
    if count > budget:
        raise BudgetExceededError(count, budget)

    costs, position_of = problem.costs, problem.position_of
    cov_w, cost_w = problem.coverage_weight, problem.cost_weight
    tau = 4 * (data.num_points + k + 4) * np.finfo(float).eps * (
        cov_w * float(data.weights.sum()) / data.normalizer + cost_w * float(costs.sum())
    )
    # one byte string per point column, so equal columns merge in one sort
    packed = np.ascontiguousarray(np.packbits(data.masks, axis=0).T)
    _, first, group = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True, return_inverse=True
    )
    masks = data.masks[:, first]
    weights = np.bincount(group, weights=data.weights, minlength=len(first))
    mask_f = masks.astype(float)
    rows = max(1, _SCREEN_BUDGET // (masks.shape[1] + n))

    floor = math.inf
    best_obj = None
    best_sel = None
    for prefixes in _feasible_blocks(position_of, k - 1, rows):
        covered = masks[prefixes].any(axis=1)
        held = np.where(covered, weights, 0.0).sum(axis=1)
        gains = np.where(covered, 0.0, weights) @ mask_f.T
        screened = -cov_w * ((held[:, None] + gains) / data.normalizer) + cost_w * (
            costs[prefixes].sum(axis=1)[:, None] + costs
        )
        screened[~_legal_next(prefixes, position_of)] = math.inf
        floor = min(floor, float(screened.min()))
        if floor == math.inf:
            continue
        for r, c in zip(*np.nonzero(screened <= floor + 2 * tau)):
            sel = (*prefixes[r].tolist(), int(c))
            obj = objective(sel, problem)
            # tuples stream in lexicographic order: the first of equal objectives is the smallest
            if best_obj is None or obj < best_obj:
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
