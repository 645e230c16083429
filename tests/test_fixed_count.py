"""Fixed-count solvers: objective arithmetic, exact search, greedy, sweeps."""

from __future__ import annotations

import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from sensorplace.coverage import build_coverage, exact_union_coverage, limb_total
from sensorplace.errors import BudgetExceededError, SizeLimitError
from sensorplace.exports import write_fixed_count_lp
from sensorplace import fixed_count
from sensorplace.fixed_count import (
    evaluate_bits,
    evaluate_selection,
    make_problem,
    objective,
    solve_exhaustive,
    solve_greedy,
    sweep_num_sensors,
)
from sensorplace.geometry import (
    DEFAULT_CATALOG,
    PlacementGrid,
    RoiCloud,
    SensorConfig,
    SensorSpec,
    Side,
    VehicleModel,
    enumerate_configs,
    partition_roi,
)
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi
from sensorplace.vqe import EncodingMap, OptimizerConfig, vqe_fixed_count

from conftest import TWO_TYPE_CATALOG, random_instance, side_instance
from fixed_count_oracle import solve_enumerate


def disjoint_instance(num_configs: int, costs=None, singles=None):
    """Candidates with pairwise-disjoint coverage: config i covers point i."""
    n = num_configs
    pts = np.array([[10.0 * i + 5.0, 0.0, 0.0] for i in range(n)])
    crit = np.array(singles if singles is not None else [1.0] * n)
    cloud = RoiCloud(pts, crit)
    catalog = tuple(
        SensorSpec(f"s{i}", 10.0, 10.0, 1.0, float(costs[i]) if costs else 10.0) for i in range(n)
    )
    configs = [SensorConfig(i, (10.0 * i + 4.5, 0.0, 0.0), 0.0, Side.FRONT) for i in range(n)]
    data = build_coverage(cloud, configs, catalog)
    assert np.array_equal(data.masks, np.eye(n, dtype=bool))
    return cloud, configs, catalog, data


class TestObjective:
    def test_weighted_combination_of_coverage_and_cost(self):
        # coverage 0.8460 at cost 320 with the default weights scores -0.8140
        cloud = RoiCloud(
            np.array([[5.0, 0.0, 0.0], [500.0, 0.0, 0.0]]), np.array([0.846, 0.154])
        )
        catalog = (SensorSpec("s", 60.0, 60.0, 20.0, 320.0),)
        configs = [SensorConfig(0, (0.0, 0.0, 0.0), 0.0, Side.FRONT)]
        data = build_coverage(cloud, configs, catalog)
        problem = make_problem(data, catalog, num_sensors=1)
        assert objective([0], problem) == pytest.approx(-0.8140, abs=1e-12)

    def test_empty_selection_scores_zero(self):
        rng = np.random.default_rng(0)
        _, _, catalog, data = random_instance(rng)
        problem = make_problem(data, catalog, num_sensors=1)
        assert objective([], problem) == 0.0

    def test_zero_coverage_weight_leaves_pure_cost(self):
        rng = np.random.default_rng(1)
        _, _, catalog, data = random_instance(rng)
        problem = make_problem(data, catalog, num_sensors=2, coverage_weight=0.0, cost_weight=1e-4)
        sel = [0, 5]
        assert objective(sel, problem) == 1e-4 * float(problem.costs[sel].sum())

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        _, _, catalog, data = random_instance(rng)
        problem = make_problem(data, catalog, num_sensors=2)
        for _ in range(20):
            sel = [int(i) for i in rng.choice(data.num_configs, 3, replace=False)]
            j = objective(sel, problem)
            cov = exact_union_coverage(sel, data)
            cost = float(problem.costs[sel].sum())
            assert abs(j + problem.coverage_weight * cov - problem.cost_weight * cost) < 1e-12


class TestEvaluateSelection:
    def test_reads_the_problems_position_map(self, monkeypatch):
        rng = np.random.default_rng(3)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, num_sensors=2)

        def rebuilt(configs):
            raise AssertionError("position map rebuilt while scoring")

        monkeypatch.setattr(fixed_count, "position_index_map", rebuilt)
        result = evaluate_selection([5, 0], problem, "test", seed=7)
        assert result.selected == (0, 5) and result.feasible
        assert result.objective == objective([0, 5], problem)
        assert result.cost == float(problem.costs[[0, 5]].sum())
        assert result.configs == (data.configs[0], data.configs[5])
        assert (result.solver_tag, result.seed) == ("test", 7)
        assert not evaluate_selection([0, 4], problem, "test").feasible  # shared position

    def test_count_applies_to_fixed_count_only(self):
        rng = np.random.default_rng(4)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, num_sensors=2)
        assert not evaluate_selection([0, 5, 10], problem, "test").feasible
        assert evaluate_selection([0, 5, 10], make_problem(data, catalog, None), "test").feasible

    def test_bits_decode_to_the_set_candidates(self):
        rng = np.random.default_rng(5)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, None)
        bits = np.zeros(data.num_configs, dtype=np.uint8)
        bits[[0, 5, 10]] = 1
        result = evaluate_bits(bits, problem, "test")
        assert result == evaluate_selection([0, 5, 10], problem, "test")
        assert result.feasible
        assert evaluate_bits(np.zeros(data.num_configs), problem, "test").selected == ()


class TestSolveExhaustive:
    def test_matches_definition_on_small_instance(self):
        rng = np.random.default_rng(5)
        _, _, catalog, data = random_instance(rng, num_configs=8)
        problem = make_problem(data, catalog, num_sensors=2)
        result = solve_exhaustive(problem)
        best = min(
            (
                objective(sel, problem)
                for sel in itertools.combinations(range(8), 2)
                if evaluate_selection(sel, problem, "test").feasible
            ),
        )
        assert result.objective == best
        assert evaluate_selection(result.selected, problem, "test").feasible
        assert result.feasible

    def test_single_sensor_is_argmin_over_singles(self):
        rng = np.random.default_rng(6)
        _, _, catalog, data = random_instance(rng, num_configs=10)
        problem = make_problem(data, catalog, num_sensors=1)
        result = solve_exhaustive(problem)
        values = -problem.coverage_weight * data.singles + problem.cost_weight * problem.costs
        assert result.objective == values.min()
        assert result.selected[0] == int(np.argmin(values))

    def test_dominant_config_selected(self):
        # one candidate covers everything at the lowest cost
        _, _, catalog, data = disjoint_instance(3)
        cloud = RoiCloud(np.array([[5.0, 0.0, 0.0]]), np.array([1.0]))
        catalog = (SensorSpec("wide", 170.0, 170.0, 100.0, 5.0), SensorSpec("meh", 10.0, 10.0, 1.0, 50.0))
        configs = [
            SensorConfig(0, (0.0, 0.0, 0.0), 0.0, Side.FRONT),
            SensorConfig(1, (0.0, 1.0, 0.0), 0.0, Side.FRONT),
        ]
        data = build_coverage(cloud, configs, catalog)
        problem = make_problem(data, catalog, num_sensors=1)
        assert solve_exhaustive(problem).selected == (0,)

    def test_budget_exceeded_reports_count(self):
        rng = np.random.default_rng(7)
        _, _, catalog, data = random_instance(rng, num_configs=12)
        problem = make_problem(data, catalog, num_sensors=6)
        with pytest.raises(BudgetExceededError) as err:
            solve_exhaustive(problem, budget=100)
        assert err.value.count == math.comb(12, 6)

    def test_weight_scaling_preserves_argmin(self):
        rng = np.random.default_rng(8)
        _, _, catalog, data = random_instance(rng, num_configs=9)
        p1 = make_problem(data, catalog, num_sensors=2, coverage_weight=1.0, cost_weight=1e-4)
        p2 = make_problem(data, catalog, num_sensors=2, coverage_weight=3.0, cost_weight=3e-4)
        assert solve_exhaustive(p1).selected == solve_exhaustive(p2).selected


def oracle_instances():
    """(name, catalog, data, weights) instances whose every sensor count is
    small enough for the tuple-by-tuple enumerator."""
    free = (0.0, 30.0)
    rng = np.random.default_rng(1400)
    cases = [
        ("2x2 fixed", *side_instance(rng, grid=(2, 2))[2:], {}),
        ("3x2 fixed", *side_instance(rng, grid=(3, 2))[2:], {}),
        ("2x2 free", *side_instance(rng, grid=(2, 2), orientations=free)[2:], {}),
        ("3x2 free", *side_instance(rng, TWO_TYPE_CATALOG, grid=(3, 2), orientations=free)[2:], {}),
        ("3x2 float", *side_instance(rng, grid=(3, 2), exact=False)[2:], {}),
        ("2x2 free float", *side_instance(rng, grid=(2, 2), orientations=free, exact=False)[2:], {}),
        ("coverage weight 0", *side_instance(rng, grid=(3, 2))[2:], {"coverage_weight": 0.0}),
        ("both weights 0", *side_instance(rng, grid=(2, 2))[2:], {"coverage_weight": 0.0, "cost_weight": 0.0}),
    ]
    cloud, configs, catalog, _ = side_instance(rng, grid=(2, 2))
    cases.append(("duplicated candidates", catalog, build_coverage(cloud, configs + configs, catalog), {}))
    cloud, configs, catalog, _ = side_instance(rng, TWO_TYPE_CATALOG, grid=(3, 2), orientations=free)
    zeroed = RoiCloud(cloud.points, np.where(rng.random(len(cloud)) < 0.5, 0.0, cloud.criticality))
    cases.append(("zero-criticality points", catalog, build_coverage(zeroed, configs, catalog), {}))
    # 1 down to 1e-300 and the smallest subnormal: far more than two limbs
    cloud, configs, catalog, _ = side_instance(rng, grid=(2, 2), orientations=free)
    spread = np.append(np.geomspace(1.0, 1e-300, len(cloud) - 1), math.ulp(0.0))[rng.permutation(len(cloud))]
    cases.append(("wide-span criticalities", catalog, build_coverage(RoiCloud(cloud.points, spread), configs, catalog), {}))
    catalog = tuple(dataclasses.replace(spec, cost=c) for spec, c in zip(DEFAULT_CATALOG, (0.1, 0.7, 0.3, 0.2)))
    cases.append(("non-integer costs", catalog, side_instance(rng, catalog, grid=(3, 2), exact=False)[3], {"cost_weight": 0.05}))
    # at k = 4, (0, 2, 3, 4) and (2, 3, 4, 5) both cost 1.7, but only in index order
    # do they sum to the same float; any other order picks the second
    _, _, catalog, data = disjoint_instance(6, costs=[0.7, 0.7, 0.1, 0.3, 0.6, 0.7])
    cases.append(("cost ties by summation order", catalog, data, {"coverage_weight": 0.0, "cost_weight": 1.0}))
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestMatchesEnumeratorOracle:
    @pytest.mark.parametrize("name, catalog, data, weights", oracle_instances())
    def test_every_sensor_count(self, name, catalog, data, weights):
        problem = make_problem(data, catalog, num_sensors=1, **weights)
        for k in range(1, len(problem.position_groups) + 1):
            p = make_problem(data, catalog, num_sensors=k, **weights)
            assert solve_exhaustive(p) == solve_enumerate(p), (name, k)

    def test_default_cloud_left_side_keeps_the_ulp_tie_winner(self):
        # (34, 38, 46) and (34, 42, 46) cover equal weight at equal cost; summed
        # in numpy's order they differed by 1.1e-16, and the exact sums tie
        vehicle = VehicleModel()
        cloud = partition_roi(generate_synthetic_roi(SyntheticRoiSpec(), vehicle), vehicle)
        configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(Side.LEFT, 4, 4, (0.0,)))
        data = build_coverage(cloud.side_cloud(Side.LEFT), configs, DEFAULT_CATALOG)
        problem = make_problem(data, DEFAULT_CATALOG, num_sensors=3)
        assert objective((34, 38, 46), problem) == objective((34, 42, 46), problem) == -0.6425888814585838
        expected = solve_enumerate(problem)
        assert expected.selected == (34, 38, 46)
        assert solve_exhaustive(problem) == expected

    def test_default_cloud_front_and_back_mirror_each_other(self):
        # the default cloud is symmetric under x -> -x, which maps each front
        # candidate onto the back candidate of its type at the mirrored position
        vehicle = VehicleModel()
        cloud = partition_roi(generate_synthetic_roi(SyntheticRoiSpec(), vehicle), vehicle)
        problems = {}
        for side in (Side.FRONT, Side.BACK):
            configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(side, 4, 4, (0.0,)))
            problems[side] = make_problem(build_coverage(cloud.side_cloud(side), configs, DEFAULT_CATALOG), DEFAULT_CATALOG, 1)
        front_configs = problems[Side.FRONT].data.configs
        mirror = [
            next(j for j, b in enumerate(problems[Side.BACK].data.configs)
                 if b.type_index == f.type_index and np.allclose(b.position, (-f.position[0], *f.position[1:])))
            for f in front_configs
        ]
        for k in range(1, 5):
            front, back = (solve_exhaustive(dataclasses.replace(problems[s], num_sensors=k)) for s in (Side.FRONT, Side.BACK))
            assert (front.coverage, front.objective) == (back.coverage, back.objective), k
            # each side's winner, mirrored, is an optimum of the other side
            back_problem = dataclasses.replace(problems[Side.BACK], num_sensors=k)
            assert objective([mirror[i] for i in front.selected], back_problem) == back.objective, k
            front_problem = dataclasses.replace(problems[Side.FRONT], num_sensors=k)
            assert objective([mirror.index(j) for j in back.selected], front_problem) == front.objective, k

    def test_budget_rule_matches(self):
        rng = np.random.default_rng(1401)
        _, _, catalog, data = random_instance(rng, num_configs=12)
        problem = make_problem(data, catalog, num_sensors=4)
        for solve in (solve_exhaustive, solve_enumerate):
            with pytest.raises(BudgetExceededError):
                solve(problem, budget=math.comb(12, 4) - 1)
        assert solve_exhaustive(problem, budget=math.comb(12, 4)) == solve_enumerate(problem)


def greedy_reference(problem) -> tuple[int, ...]:
    """Greedy picks with the blocked candidates recomputed from the used positions each step."""
    data = problem.data
    selected: list[int] = []
    used: set[int] = set()
    covered = np.zeros(data.num_points, dtype=bool)
    for _ in range(problem.num_sensors):
        gains = data.masks.astype(float) @ (limb_total(data.limbs.T) * ~covered) / data.normalizer
        delta = -problem.coverage_weight * gains + problem.cost_weight * problem.costs
        for i in range(data.num_configs):
            if int(problem.position_of[i]) in used:
                delta[i] = np.inf
        pick = int(np.argmin(delta))
        selected.append(pick)
        used.add(int(problem.position_of[pick]))
        covered |= data.masks[pick]
    return tuple(sorted(selected))


class TestSolveGreedy:
    def test_picks_match_the_per_candidate_reference(self):
        for seed in range(4):
            rng = np.random.default_rng(1200 + seed)
            _, _, catalog, data = side_instance(rng, grid=(3, 3), orientations=(0.0, 30.0))
            for k in range(1, 10):
                problem = make_problem(data, catalog, num_sensors=k)
                assert solve_greedy(problem).selected == greedy_reference(problem)

    def test_never_beats_exhaustive_and_stays_feasible(self):
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            _, _, catalog, data = random_instance(rng, num_configs=min(12, 10))
            problem = make_problem(data, catalog, num_sensors=3)
            greedy = solve_greedy(problem)
            exact = solve_exhaustive(problem)
            assert greedy.objective >= exact.objective - 1e-12
            assert evaluate_selection(greedy.selected, problem, "test").feasible
            assert evaluate_selection(exact.selected, problem, "test").feasible

    def test_single_sensor_matches_exhaustive(self):
        rng = np.random.default_rng(9)
        _, _, catalog, data = random_instance(rng, num_configs=10)
        problem = make_problem(data, catalog, num_sensors=1)
        assert solve_greedy(problem).selected == solve_exhaustive(problem).selected

    def test_greedy_on_submodular_instance_near_optimal(self):
        # disjoint FoVs make coverage additive; greedy is exactly optimal there
        _, _, catalog, data = disjoint_instance(6, costs=[10, 10, 10, 10, 10, 10])
        problem = make_problem(data, catalog, num_sensors=3)
        greedy = solve_greedy(problem)
        exact = solve_exhaustive(problem)
        assert greedy.coverage >= (1.0 - 1.0 / math.e) * exact.coverage
        assert greedy.objective == exact.objective

    def test_disjoint_equal_coverage_prefers_cheap(self):
        _, _, catalog, data = disjoint_instance(4, costs=[40, 10, 30, 20])
        problem = make_problem(data, catalog, num_sensors=2)
        result = solve_greedy(problem)
        assert set(result.selected) == {1, 3}

    def test_infeasible_when_positions_exhausted(self):
        _, _, catalog, data = disjoint_instance(3)
        with pytest.raises(SizeLimitError):
            # more sensors than positions is rejected at construction
            make_problem(data, catalog, num_sensors=4)

    @pytest.mark.parametrize("weights", [(-1.0, 1e-4), (float("nan"), 1e-4), (1.0, float("inf"))])
    @pytest.mark.parametrize("count", [2, None])
    def test_weights_must_be_finite_and_non_negative(self, weights, count):
        # a NaN or infinite weight gave nan or -inf objectives
        _, _, catalog, data = disjoint_instance(3)
        with pytest.raises(ValueError, match="weights"):
            make_problem(data, catalog, count, *weights)


def _vqe_fixed_count(problem):
    return vqe_fixed_count(problem, EncodingMap(2, 2, len(DEFAULT_CATALOG), 1), optimizer=OptimizerConfig(max_evals=5))


@pytest.mark.parametrize("solve", [solve_exhaustive, solve_greedy, _vqe_fixed_count], ids=["exhaustive", "greedy", "vqe"])
def test_fixed_count_solvers_reject_a_free_count(solve):
    # exhaustive and greedy died in math.comb/range, and the VQE spent its budget on penalties
    _, _, catalog, data = side_instance(np.random.default_rng(15), grid=(2, 2))
    with pytest.raises(ValueError, match="fixed sensor count"):
        solve(make_problem(data, catalog, None))


class TestSweep:
    def test_full_range_returns_one_entry_per_count(self):
        rng = np.random.default_rng(10)
        _, _, catalog, data = side_instance(rng, grid=(3, 3), num_points=400)
        problem = make_problem(data, catalog, num_sensors=1)
        outcome = sweep_num_sensors(problem, range(1, 9), solver=solve_greedy)
        assert len(outcome.entries) == 8
        assert [e.num_sensors for e in outcome.entries] == list(range(1, 9))
        objs = [e.result.objective for e in outcome.entries]
        assert outcome.best.objective == min(objs)

    def test_singleton_range(self):
        rng = np.random.default_rng(11)
        _, _, catalog, data = random_instance(rng, num_configs=8)
        problem = make_problem(data, catalog, num_sensors=1)
        outcome = sweep_num_sensors(problem, [2])
        assert len(outcome.entries) == 1
        assert outcome.best is outcome.entries[0].result

    def test_exhaustive_coverage_non_decreasing(self):
        for seed in range(3):
            rng = np.random.default_rng(400 + seed)
            _, _, catalog, data = random_instance(rng, num_points=150, num_configs=10)
            problem = make_problem(data, catalog, num_sensors=1)
            outcome = sweep_num_sensors(problem, range(1, 6))
            covs = [e.result.coverage for e in outcome.entries]
            assert all(b >= a - 1e-12 for a, b in zip(covs, covs[1:]))

    def test_errors_recorded_without_aborting(self):
        _, _, catalog, data = disjoint_instance(3)
        problem = make_problem(data, catalog, num_sensors=1)
        outcome = sweep_num_sensors(problem, [2, 9, 3])
        assert outcome.entries[0].result is not None
        assert outcome.entries[1].result is None
        assert outcome.entries[1].error == "SizeLimitError: num_sensors must be in [1, 3], got 9"
        assert outcome.entries[2].result is not None

    def test_a_solver_fault_ends_the_sweep(self):
        # only a SensorPlaceError is a count's row: a plain ValueError is a
        # fault in the solver, not a result
        _, _, catalog, data = disjoint_instance(3)

        def faulty(problem):
            raise ValueError("operands could not be broadcast together")

        with pytest.raises(ValueError, match="broadcast"):
            sweep_num_sensors(make_problem(data, catalog, num_sensors=1), [1, 2], solver=faulty)


class TestLpExport:
    def test_model_structure(self):
        rng = np.random.default_rng(12)
        _, _, catalog, data = side_instance(rng, grid=(2, 2), num_points=60)
        problem = make_problem(data, catalog, num_sensors=2)
        buf = io.StringIO()
        write_fixed_count_lp(buf, problem)
        text = buf.getvalue()
        assert text.startswith("\\ fixed sensor-count coverage model")
        assert "Minimize" in text and "Subject To" in text and text.rstrip().endswith("End")
        assert sum(1 for line in text.splitlines() if line.startswith(" pos")) == 4
        assert sum(1 for line in text.splitlines() if line.startswith(" cov")) == data.num_points
        count_rows = [line for line in text.splitlines() if line.startswith(" count:")]
        assert count_rows == [f" count: {' + '.join(f'x{i}' for i in range(data.num_configs))} = 2"]
        binaries = text.split("Binaries", 1)[1]
        assert f"x{data.num_configs - 1}" in binaries
        assert f"z{data.num_points - 1}" in binaries
