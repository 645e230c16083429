"""Tuple-by-tuple exhaustive search: the reference the screened search is tested against.

Every ``itertools.combinations`` tuple at pairwise distinct positions is
scored with :func:`sensorplace.fixed_count.objective`; the lowest
objective wins and a tie goes to the lexicographically smallest tuple.
"""

from __future__ import annotations

import itertools
import math

from sensorplace.errors import BudgetExceededError, InfeasibleError
from sensorplace.fixed_count import (
    DEFAULT_ENUMERATION_BUDGET,
    FixedCountProblem,
    SelectionResult,
    evaluate_selection,
    objective,
)


def solve_enumerate(
    problem: FixedCountProblem,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SelectionResult:
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
