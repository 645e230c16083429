"""Aggregation, adherence diagnostics, run statistics, CSV emission."""

from __future__ import annotations

import numpy as np
import pytest

from sensorplace.coverage import build_coverage, limb_total
from sensorplace.errors import MissingSideError, NoCriticalPointsError
from sensorplace.fixed_count import SelectionResult
from sensorplace.geometry import (
    RoiCloud,
    SensorConfig,
    SensorSpec,
    Side,
    SIDE_ORDER,
    fov_contains,
    partition_roi,
)
from sensorplace.reporting import (
    SweepRow,
    adherence,
    aggregate,
    best_run,
    drop_worst_and_summarize,
    write_adherence_csv,
    write_aggregate_csv,
    write_sweep_csv,
)

from conftest import random_cloud, random_configs


def adherence_oracle(configs, cloud, catalog, threshold=0.7):
    """Point-by-point nested-loop recount."""
    configs = list(configs)
    num = den = num_types = 0
    for r in range(len(cloud)):
        if cloud.criticality[r] < threshold:
            continue
        den += 1
        covering = [
            cfg for cfg in configs if fov_contains(cfg, catalog[cfg.type_index], cloud.points[r])
        ]
        if len(covering) >= 2:
            num += 1
        if len({cfg.type_index for cfg in covering}) >= 2:
            num_types += 1
    return num / den, num_types / den


def make_result(configs, cost=0.0, coverage=0.0, objective=0.0) -> SelectionResult:
    return SelectionResult(
        selected=tuple(range(len(configs))),
        coverage=coverage,
        cost=cost,
        objective=objective,
        solver_tag="test",
        feasible=True,
        configs=tuple(configs),
    )


class TestAdherence:
    catalog = (
        SensorSpec("lidar", 80.0, 40.0, 120.0, 200.0),
        SensorSpec("camera", 90.0, 60.0, 20.0, 120.0),
    )

    def test_two_different_types_count_in_both_fractions(self):
        cloud = RoiCloud(np.array([[5.0, 0.0, 1.0]]), np.array([0.9]))
        configs = [
            SensorConfig(0, (0.0, 0.0, 1.0), 0.0, Side.FRONT),
            SensorConfig(1, (0.0, 0.5, 1.0), 0.0, Side.FRONT),
        ]
        two_sensors, two_types = adherence(configs, cloud, self.catalog)
        assert two_sensors == 1.0 and two_types == 1.0

    def test_two_same_type_counts_only_in_sensor_fraction(self):
        cloud = RoiCloud(np.array([[5.0, 0.0, 1.0]]), np.array([0.9]))
        configs = [
            SensorConfig(0, (0.0, 0.0, 1.0), 0.0, Side.FRONT),
            SensorConfig(0, (0.0, 0.5, 1.0), 0.0, Side.FRONT),
        ]
        two_sensors, two_types = adherence(configs, cloud, self.catalog)
        assert two_sensors == 1.0 and two_types == 0.0

    def test_matches_nested_loop_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            cloud = random_cloud(rng, 150, exact=False)
            configs = random_configs(rng, self.catalog, 6)
            got = adherence(configs, cloud, self.catalog)
            assert got == adherence_oracle(configs, cloud, self.catalog)

    def test_invariant_under_config_reordering(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 100, exact=False)
        configs = random_configs(rng, self.catalog, 5)
        assert adherence(configs, cloud, self.catalog) == adherence(configs[::-1], cloud, self.catalog)

    def test_no_critical_points_signalled(self):
        cloud = RoiCloud(np.array([[5.0, 0.0, 1.0]]), np.array([0.2]))
        with pytest.raises(NoCriticalPointsError):
            adherence([], cloud, self.catalog)


class TestAggregate:
    catalog = (SensorSpec("beam", 30.0, 30.0, 40.0, 50.0),)

    def _per_side_outward(self, vehicle):
        """One sensor per side, each facing straight out."""
        per_side = {}
        for side in SIDE_ORDER:
            cfg = SensorConfig(0, tuple(vehicle.face_centre(side)), 0.0, side)
            per_side[side] = make_result([cfg], cost=50.0)
        return per_side

    def test_disjoint_sides_give_weighted_mean(self, vehicle):
        rng = np.random.default_rng(6)
        cloud = partition_roi(random_cloud(rng, 400, exact=False), vehicle)
        per_side = self._per_side_outward(vehicle)
        report = aggregate(per_side, cloud, self.catalog)
        # narrow outward beams never cross into a neighbouring sector, so
        # the aggregate equals the criticality-weighted mean of the sides
        total = 0.0
        for side in SIDE_ORDER:
            side_cloud = cloud.side_cloud(side)
            data = build_coverage(side_cloud, per_side[side].configs, self.catalog)
            total += float(limb_total(data.limbs.T)[data.masks.any(axis=0)].sum())
        assert report.aggregate_coverage == pytest.approx(total / cloud.total_criticality, abs=1e-12)
        assert report.total_cost == 200.0

    def test_cross_side_overlap_beats_weighted_mean(self, vehicle):
        # a single wide front sensor also sweeps deep into the left sector;
        # per-side scoring cannot see that extra coverage
        wide = (SensorSpec("wide", 170.0, 60.0, 60.0, 10.0),)
        rng = np.random.default_rng(7)
        cloud = partition_roi(random_cloud(rng, 500, exact=False), vehicle)
        front_cfg = SensorConfig(0, tuple(vehicle.face_centre(Side.FRONT)), 0.0, Side.FRONT)
        per_side = {}
        for side in SIDE_ORDER:
            cfg = front_cfg if side is Side.FRONT else SensorConfig(
                0, tuple(vehicle.face_centre(side)), 0.0, side
            )
            per_side[side] = make_result([cfg] if side is Side.FRONT else [], cost=10.0)
        report = aggregate(per_side, cloud, wide)
        front_cloud = cloud.side_cloud(Side.FRONT)
        data = build_coverage(front_cloud, [front_cfg], wide)
        front_only = float(limb_total(data.limbs.T)[data.masks[0]].sum()) / cloud.total_criticality
        assert report.aggregate_coverage > front_only

    def test_empty_selections_score_zero(self, vehicle):
        rng = np.random.default_rng(8)
        cloud = partition_roi(random_cloud(rng, 200, exact=False), vehicle)
        per_side = {side: make_result([]) for side in SIDE_ORDER}
        report = aggregate(per_side, cloud, self.catalog)
        assert report.aggregate_coverage == 0.0
        assert report.total_cost == 0.0

    def test_missing_side_rejected(self, vehicle):
        rng = np.random.default_rng(9)
        cloud = partition_roi(random_cloud(rng, 100, exact=False), vehicle)
        per_side = {Side.FRONT: make_result([])}
        with pytest.raises(MissingSideError):
            aggregate(per_side, cloud, self.catalog)

    def test_adherence_none_when_no_critical_points(self, vehicle):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 100, exact=False)
        low = RoiCloud(cloud.points, cloud.criticality * 0.3)
        cloud = partition_roi(low, vehicle)
        per_side = self._per_side_outward(vehicle)
        report = aggregate(per_side, cloud, self.catalog)
        assert report.adherence_two_sensors is None
        assert report.adherence_two_types is None


class TestRunStats:
    def _runs(self, objectives):
        return [
            SelectionResult((i,), coverage=0.5, cost=10.0, objective=obj, solver_tag="t", feasible=True)
            for i, obj in enumerate(objectives)
        ]

    def test_drops_single_worst(self):
        runs = self._runs([-0.5, -0.9, -0.1, -0.7])
        retained, stats = drop_worst_and_summarize(runs)
        assert stats.dropped_run == 2
        assert len(retained) == 3
        assert stats.objective_min == -0.9
        assert stats.objective_max == -0.5
        assert stats.objective_mean == pytest.approx((-0.5 - 0.9 - 0.7) / 3.0)

    def test_single_run_keeps_everything(self):
        runs = self._runs([-0.4])
        retained, stats = drop_worst_and_summarize(runs)
        assert retained == runs
        assert stats.dropped_run == -1

    def test_best_run_breaks_ties_deterministically(self):
        runs = self._runs([-0.5, -0.9, -0.9])
        assert best_run(runs) is runs[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            drop_worst_and_summarize([])


class TestCsvWriters:
    def test_sweep_schema_and_rows(self, tmp_path):
        result = SelectionResult((1, 2), 0.8, 300.0, -0.77, "exhaustive", True)
        rows = [
            SweepRow(Side.FRONT, 2, "exhaustive", result),
            SweepRow(Side.LEFT, 3, "exhaustive", None, None, "InfeasibleError: nope"),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sensorplace sweep csv v1"
        assert lines[1].startswith("side,n_sensors,solver,")
        assert lines[2].split(",")[0:3] == ["front", "2", "exhaustive"]
        assert "InfeasibleError" in lines[3]

    def test_aggregate_and_adherence_schemas(self, tmp_path, vehicle):
        rng = np.random.default_rng(11)
        cloud = partition_roi(random_cloud(rng, 150, exact=False), vehicle)
        catalog = (SensorSpec("beam", 30.0, 30.0, 40.0, 50.0),)
        per_side = {
            side: make_result([SensorConfig(0, tuple(vehicle.face_centre(side)), 0.0, side)], cost=50.0)
            for side in SIDE_ORDER
        }
        reports = {"exhaustive": aggregate(per_side, cloud, catalog)}
        agg_path = tmp_path / "aggregate.csv"
        adh_path = tmp_path / "adherence.csv"
        write_aggregate_csv(agg_path, reports)
        write_adherence_csv(adh_path, reports)
        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == "# sensorplace aggregate csv v1"
        assert len(agg_lines) == 2 + 5  # header row + 4 sides + aggregate row
        adh_lines = adh_path.read_text().splitlines()
        assert adh_lines[0] == "# sensorplace adherence csv v1"
        assert len(adh_lines) == 3
