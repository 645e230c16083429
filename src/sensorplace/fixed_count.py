"""Sensor selection: minimize -w_cov * coverage + w_cost * cost.

The decision is which candidates to mount, subject to at most one sensor
per position and exactly ``num_sensors`` sensors in total.  A problem
whose ``num_sensors`` is None has a free count: it is the scorer of the
quadratic (free-count) formulation, whose count is an output.  Covered-point
indicator variables are never materialized: at any optimum they equal
the OR of the selected coverage rows, so the objective is evaluated
directly from the precomputed masks.

`solve_exhaustive` is the desk-scale exact reference; `solve_greedy` is
the scalable baseline.  Both are deterministic, including tie-breaks.

The exact search scores blocks of tuples with matrix products over
exact limb sums (:mod:`sensorplace.coverage`) and adds costs in
:func:`objective`'s order, so every screened value is the tuple's
objective bit for bit and the first lexicographic minimum wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .coverage import CoverageData, exact_union_coverage, limb_total
from .errors import BudgetExceededError, InfeasibleError, SensorPlaceError
from .geometry import SensorConfig, config_costs

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
    """One side's selection instance over precomputed coverage; a
    ``num_sensors`` of None leaves the count free."""

    data: CoverageData
    costs: NDArray[np.float64]
    coverage_weight: float
    cost_weight: float
    num_sensors: int | None
    position_groups: dict[int, tuple[int, ...]]
    position_of: NDArray[np.int64]

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.coverage_weight, self.cost_weight)):
            raise ValueError("objective weights must be finite and non-negative")
        if self.num_sensors is not None and not 1 <= self.num_sensors <= len(self.position_groups):
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
    num_sensors: int | None,
    coverage_weight: float = DEFAULT_COVERAGE_WEIGHT,
    cost_weight: float = DEFAULT_COST_WEIGHT,
) -> FixedCountProblem:
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


def sensor_count(problem: FixedCountProblem) -> int:
    if problem.num_sensors is None:
        raise ValueError("this solver needs a fixed sensor count, the problem's is free")
    return problem.num_sensors


def selection_cost(selection, problem: FixedCountProblem) -> float:
    """Total cost, added one candidate at a time in index order."""
    return float(sum((problem.costs[i] for i in sorted(selection)), 0.0))


def objective(selection, problem: FixedCountProblem) -> float:
    """-coverage_weight * exact union coverage + cost_weight * total cost."""
    cov = exact_union_coverage(selection, problem.data)
    return -problem.coverage_weight * cov + problem.cost_weight * selection_cost(selection, problem)


def evaluate_selection(
    selection,
    problem: FixedCountProblem,
    solver_tag: str,
    seed: int | None = None,
) -> SelectionResult:
    """Package a selection into a :class:`SelectionResult` with exact metrics.

    Costs, weights and positions come from ``problem``.  The feasibility
    flag always requires pairwise-distinct positions, and the problem's
    sensor count unless that count is free.
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
        feasible=distinct and problem.num_sensors in (None, len(idx)),
        configs=tuple(problem.data.configs[i] for i in idx),
        seed=seed,
    )


def evaluate_bits(
    bits,
    problem: FixedCountProblem,
    solver_tag: str,
    seed: int | None = None,
) -> SelectionResult:
    """Decode a bit vector (bit i set = candidate i mounted) and score it."""
    return evaluate_selection(np.flatnonzero(bits), problem, solver_tag, seed)


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
    """Global optimum over every feasible selection, ties to the
    lexicographically smallest index tuple.  Raises
    :class:`BudgetExceededError` when ``C(N, num_sensors)`` exceeds ``budget``.

    The position-feasible ``(k - 1)``-prefixes are walked lazily in
    blocks (:func:`_feasible_blocks`).  For a block with uncovered points
    ``U`` every last candidate ``j`` is scored at once: limb ``l`` of the
    covered weight is ``sum(limbs[l]) - U @ (~masks[j] * limbs[l])``, and
    the cost the prefix cost plus ``costs[j]``; illegal tuples are masked
    out.  Points that every candidate covers alike are merged first (their
    limbs summed), which shrinks the product.  A block holds ``rows``
    prefixes with ``rows * (points + limbs * N)`` at most ``_SCREEN_BUDGET``,
    so memory stays flat whatever the size of the search.
    """
    data = problem.data
    n = data.num_configs
    k = sensor_count(problem)
    count = math.comb(n, k)
    if count > budget:
        raise BudgetExceededError(count, budget)

    costs, position_of = problem.costs, problem.position_of
    cov_w, cost_w = problem.coverage_weight, problem.cost_weight
    # one byte string per point column, so equal columns merge in one sort
    packed = np.ascontiguousarray(np.packbits(data.masks, axis=0).T)
    _, first, group = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True, return_inverse=True
    )
    masks = data.masks[:, first]
    limbs = np.array([np.bincount(group, weights=limb, minlength=len(first)) for limb in data.limbs])
    # (N, L, points): the limbs each candidate misses, sliceable by candidate
    missed = ~masks[:, None, :] * limbs
    rows = max(1, _SCREEN_BUDGET // (masks.shape[1] + len(limbs) * n))

    best_obj = math.inf
    best_sel = None
    for prefixes in _feasible_blocks(position_of, k - 1, rows):
        # no candidate below a prefix's last index may follow it
        lo = int(prefixes.max(axis=1, initial=0).min())
        uncovered = (~masks[prefixes].any(axis=1)).astype(float)
        both_missed = uncovered @ missed[lo:].reshape(-1, masks.shape[1]).T
        weight = limb_total(limbs.sum(axis=1) - both_missed.reshape(len(prefixes), n - lo, len(limbs)))
        prefix_cost = np.zeros(len(prefixes))
        for col in prefixes.T:
            prefix_cost = prefix_cost + costs[col]
        screened = -cov_w * (weight / data.normalizer) + cost_w * (prefix_cost[:, None] + costs[lo:])
        screened[~_legal_next(prefixes, position_of)[:, lo:]] = math.inf
        # row-major order is lexicographic order: argmin keeps the block's smallest tuple
        r, c = divmod(int(np.argmin(screened)), n - lo)
        if screened[r, c] < best_obj:
            best_obj = screened[r, c]
            best_sel = (*prefixes[r].tolist(), lo + c)
    if best_sel is None:
        raise InfeasibleError(f"no feasible selection of {k} sensors over {len(problem.position_groups)} positions")
    return evaluate_selection(best_sel, problem, solver_tag="exhaustive")


def solve_greedy(problem: FixedCountProblem) -> SelectionResult:
    """Add, one at a time, the candidate with the best marginal objective change.

    A gain is the limb total of the weights a candidate newly covers.
    Deterministic: float ties break toward the smallest candidate index.
    A picked candidate blocks every candidate at its mount position;
    :class:`FixedCountProblem` guarantees enough positions for the count.
    """
    data = problem.data
    mask_f = data.masks.astype(float)
    selected: list[int] = []
    blocked = np.zeros(data.num_configs, dtype=bool)
    covered = np.zeros(data.num_points, dtype=bool)
    for _ in range(sensor_count(problem)):
        gains = limb_total(mask_f @ (data.limbs * ~covered).T) / data.normalizer
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
