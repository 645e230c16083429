"""LP exports: byte identity with the per-model reference writers, the
free-count guard, and the fixed-count LP solved back by HiGHS."""

from __future__ import annotations

import io

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import lp_oracle
from conftest import side_instance
from sensorplace.exports import write_fixed_count_lp, write_iqp_lp, write_qubo_coo
from sensorplace.fixed_count import make_problem, solve_exhaustive
from sensorplace.geometry import Side
from sensorplace.setcover import build_iqp


def _text(write, *args) -> str:
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


@pytest.mark.parametrize("side", [Side.FRONT, Side.LEFT])
@pytest.mark.parametrize("exact", [True, False], ids=["dyadic", "float"])
@pytest.mark.parametrize("orientations", [(0.0,), (-30.0, 0.0, 30.0, 45.0)], ids=["one", "four"])
@pytest.mark.parametrize("grid", [(2, 2), (4, 4)], ids=["2x2", "4x4"])
def test_exports_match_per_model_writers_byte_for_byte(grid, orientations, exact, side):
    rng = np.random.default_rng(41)
    _, _, catalog, data = side_instance(
        rng, grid=grid, side=side, num_points=400, orientations=orientations, exact=exact
    )
    assert data.num_points > 0
    fixed = make_problem(data, catalog, num_sensors=2, coverage_weight=1.0, cost_weight=1e-4)
    assert _text(write_fixed_count_lp, fixed) == _text(lp_oracle.write_fixed_count_lp, fixed)
    model = build_iqp(data, catalog, coverage_weight=1.0, cost_weight=1e-4)
    free = make_problem(data, catalog, None, coverage_weight=1.0, cost_weight=1e-4)
    assert "] / 2" in _text(write_iqp_lp, model, free)
    assert _text(write_iqp_lp, model, free) == _text(lp_oracle.write_iqp_lp, model, data)
    assert _text(write_qubo_coo, model) == _text(lp_oracle.write_qubo_coo, model)


def test_fixed_count_lp_rejects_a_free_count_problem():
    _, _, catalog, data = side_instance(np.random.default_rng(3), grid=(2, 2), num_points=60)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="fixed sensor count"):
        write_fixed_count_lp(buf, make_problem(data, catalog, None))
    assert buf.getvalue() == ""


def _linear_expression(tokens) -> dict[str, float]:
    """``[+|-] [coefficient] name`` terms; a missing coefficient is 1."""
    terms: dict[str, float] = {}
    sign, coeff = 1.0, 1.0
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1.0 if tok == "+" else -1.0
            continue
        try:
            coeff = float(tok)
        except ValueError:
            terms[tok] = terms.get(tok, 0.0) + sign * coeff
            sign, coeff = 1.0, 1.0
    return terms


def read_linear_lp(text: str):
    """``(names, c, A, lower, upper)`` of a linear LP file whose variables
    are all binary: the objective vector, the row matrix and its bounds."""
    lines = [line for line in text.splitlines() if not line.startswith("\\")]
    assert lines[0] == "Minimize" and lines[-1] == "End"
    st, binaries = lines.index("Subject To"), lines.index("Binaries")
    names = [line.strip() for line in lines[binaries + 1 : -1]]
    column = {name: j for j, name in enumerate(names)}
    objective = _linear_expression(" ".join(lines[1:st]).split()[1:])  # drop "obj:"
    c = np.zeros(len(names))
    for name, coeff in objective.items():
        c[column[name]] += coeff
    A = np.zeros((binaries - st - 1, len(names)))
    lower, upper = np.full(len(A), -np.inf), np.full(len(A), np.inf)
    for r, line in enumerate(lines[st + 1 : binaries]):
        *lhs, sense, rhs = line.split()[1:]  # drop the row name
        for name, coeff in _linear_expression(lhs).items():
            A[r, column[name]] += coeff
        if sense in ("<=", "="):
            upper[r] = float(rhs)
        if sense in (">=", "="):
            lower[r] = float(rhs)
    return names, c, A, lower, upper


@pytest.mark.parametrize("seed", range(6))
def test_fixed_count_lp_solved_by_highs_reaches_the_exhaustive_optimum(seed):
    rng = np.random.default_rng(seed)
    _, _, catalog, data = side_instance(rng, grid=(2, 2), num_points=120, exact=seed % 2 == 0)
    for k in (1, 2, 3):
        problem = make_problem(data, catalog, num_sensors=k)
        names, c, A, lower, upper = read_linear_lp(_text(write_fixed_count_lp, problem))
        assert names[: data.num_configs] == [f"x{i}" for i in range(data.num_configs)]
        res = milp(
            c,
            constraints=LinearConstraint(A, lower, upper),
            integrality=np.ones(len(c)),
            bounds=Bounds(0.0, 1.0),
            options={"mip_rel_gap": 0.0},
        )
        assert res.success
        assert abs(res.fun - solve_exhaustive(problem).objective) <= 1e-12
