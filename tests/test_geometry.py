"""Geometry: field-of-view membership, grids, side partition, enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sensorplace.errors import EmptyCloudError
from sensorplace.geometry import (
    DEFAULT_CATALOG,
    PlacementGrid,
    RoiCloud,
    SensorConfig,
    SensorSpec,
    Side,
    SIDE_ORDER,
    VehicleModel,
    enumerate_configs,
    fov_contains,
    fov_mask,
    grid_positions,
    partition_roi,
    side_of_points,
)

from conftest import random_cloud, random_configs

_SIDE_YAW_DEG = {Side.FRONT: 0.0, Side.BACK: 180.0, Side.LEFT: 90.0, Side.RIGHT: -90.0}


def fov_oracle(cfg: SensorConfig, spec: SensorSpec, point) -> bool:
    """Independent scalar check: angles via atan2, then the cone inequality."""
    px, py, pz = float(point[0]), float(point[1]), float(point[2])
    ax, ay, az = cfg.position
    dx, dy, dz = px - ax, py - ay, pz - az
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist > spec.range:
        return False
    if dist == 0.0:
        return True
    yaw = math.radians(_SIDE_YAW_DEG[cfg.side] + cfg.orientation)
    fwd = dx * math.cos(yaw) + dy * math.sin(yaw)
    left = -dx * math.sin(yaw) + dy * math.cos(yaw)
    if fwd <= 0.0:
        return False
    theta_h = math.atan2(left, fwd)
    theta_v = math.atan2(dz, fwd)
    a = math.tan(theta_h) / math.tan(math.radians(spec.alpha_h) / 2.0)
    b = math.tan(theta_v) / math.tan(math.radians(spec.alpha_v) / 2.0)
    return a * a + b * b <= 1.0 + 1e-9


class TestFovContains:
    spec = SensorSpec("probe", alpha_h=90.0, alpha_v=90.0, range=10.0, cost=1.0)
    cfg = SensorConfig(0, (0.0, 0.0, 0.0), 0.0, Side.FRONT)

    def test_on_axis_within_range(self):
        assert fov_contains(self.cfg, self.spec, (5.0, 0.0, 0.0))

    def test_beyond_range(self):
        assert not fov_contains(self.cfg, self.spec, (11.0, 0.0, 0.0))

    def test_cone_edge_is_covered(self):
        # 45 degrees off-axis sits exactly on the 90-degree cone edge
        assert fov_contains(self.cfg, self.spec, (5.0, 5.0, 0.0))

    def test_behind_apex_plane(self):
        assert not fov_contains(self.cfg, self.spec, (-1.0, 0.0, 0.0))
        assert not fov_contains(self.cfg, self.spec, (0.0, 1.0, 0.0))

    def test_apex_itself(self):
        assert fov_contains(self.cfg, self.spec, (0.0, 0.0, 0.0))

    def test_range_boundary_inclusive(self):
        assert fov_contains(self.cfg, self.spec, (10.0, 0.0, 0.0))

    def test_narrow_vertical_sweep(self):
        radar = SensorSpec("radar", 60.0, 5.0, 120.0, 100.0)
        assert fov_contains(self.cfg, radar, (50.0, 0.0, 0.0))
        assert not fov_contains(self.cfg, radar, (50.0, 0.0, 10.0))

    def test_orientation_rotates_boresight(self):
        turned = SensorConfig(0, (0.0, 0.0, 0.0), 90.0, Side.FRONT)  # now faces +y
        assert fov_contains(turned, self.spec, (0.0, 5.0, 0.0))
        assert not fov_contains(turned, self.spec, (5.0, -1.0, 0.0))


class TestFovOracleAgreement:
    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        configs = random_configs(rng, DEFAULT_CATALOG, 40)
        points = rng.uniform(-30.0, 30.0, (50, 3))
        mismatches = 0
        for cfg in configs:
            spec = DEFAULT_CATALOG[cfg.type_index]
            mask = fov_mask(cfg, spec, points)
            for r, point in enumerate(points):
                mismatches += mask[r] != fov_oracle(cfg, spec, point)
        assert mismatches == 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        spec = DEFAULT_CATALOG[0]
        for _ in range(200):
            apex = rng.uniform(-5, 5, 3)
            cfg = SensorConfig(0, tuple(apex), float(rng.uniform(-180, 180)), Side.LEFT)
            point = rng.uniform(-40, 40, 3)
            shift = rng.uniform(-100, 100, 3)
            moved = SensorConfig(0, tuple(apex + shift), cfg.orientation, cfg.side)
            assert fov_contains(cfg, spec, point) == fov_contains(moved, spec, point + shift)

    def test_range_monotonicity(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(-30, 30, (400, 3))
        cfg = SensorConfig(0, (0.0, 0.0, 1.0), 25.0, Side.FRONT)
        small = SensorSpec("s", 70.0, 30.0, 15.0, 1.0)
        large = SensorSpec("l", 70.0, 30.0, 40.0, 1.0)
        inside_small = fov_mask(cfg, small, points)
        inside_large = fov_mask(cfg, large, points)
        assert not np.any(inside_small & ~inside_large)


class TestGridPositions:
    def test_2x2_cell_centres_in_face_coordinates(self):
        # left face of a 4 m long, 2 m tall vehicle: a 4 x 2 m rectangle
        veh = VehicleModel(length=4.0, width=1.8, height=2.0)
        pos = grid_positions(veh, PlacementGrid(Side.LEFT, 2, 2))
        assert pos.shape == (4, 3)
        assert np.allclose(sorted(np.unique(np.round(pos[:, 0], 9))), [-1.0, 1.0])
        assert np.allclose(sorted(np.unique(np.round(pos[:, 2], 9))), [0.5, 1.5])
        assert np.allclose(pos[:, 1], 0.9)

    def test_1x1_grid_is_face_centre(self, vehicle):
        pos = grid_positions(vehicle, PlacementGrid(Side.FRONT, 1, 1))
        assert np.allclose(pos, [[vehicle.length / 2.0, 0.0, vehicle.height / 2.0]])

    def test_4x4_grid_distinct_with_cell_pitch_spacing(self, vehicle):
        pos = grid_positions(vehicle, PlacementGrid(Side.BACK, 4, 4))
        assert pos.shape == (16, 3)
        assert len({tuple(np.round(p, 9)) for p in pos}) == 16
        dists = [
            float(np.linalg.norm(pos[i] - pos[j]))
            for i in range(16)
            for j in range(i + 1, 16)
        ]
        ext_h, ext_v = vehicle.face_extent(Side.BACK)
        assert min(dists) == pytest.approx(min(ext_h / 4.0, ext_v / 4.0))

    def test_row_major_ordering(self, vehicle):
        grid = PlacementGrid(Side.FRONT, 3, 2)
        pos = grid_positions(vehicle, grid)
        # index p = a * vertical + b: consecutive pairs share the horizontal cell
        for a in range(3):
            assert pos[a * 2, 1] == pos[a * 2 + 1, 1]
            assert pos[a * 2, 2] < pos[a * 2 + 1, 2]

    @pytest.mark.parametrize(
        "horizontal, vertical, orientations, message",
        [
            (0, 2, (0.0,), "at least one cell each way, got 0x2"),
            (2, 0, (0.0,), "at least one cell each way, got 2x0"),
            (2, 2, (), "orientations must be nonempty and finite, got \\(\\)"),
            (1, 2, (0.0, math.nan), "orientations must be nonempty and finite, got \\(0.0, nan\\)"),
            (1, 2, (math.inf,), "orientations must be nonempty and finite"),
            (1, 2, (0.0, -math.inf), "orientations must be nonempty and finite"),
            (1, 2, (30.0, 0.0, 30.0), "orientations lists 30.0 more than once"),
            # 0 and -0 are one yaw
            (1, 2, (0.0, -0.0), "orientations lists -0.0 more than once"),
            (1, 2, (-0.0, 15.0, 0.0), "orientations lists 0.0 more than once"),
        ],
    )
    def test_invalid_grid_rejected(self, horizontal, vertical, orientations, message):
        with pytest.raises(ValueError, match=message):
            PlacementGrid(Side.FRONT, horizontal, vertical, orientations)


class TestPartition:
    def test_axis_points(self, vehicle):
        assert SIDE_ORDER[side_of_points(np.array([[50.0, 0.0, 1.0]]), vehicle)[0]] is Side.FRONT
        assert SIDE_ORDER[side_of_points(np.array([[0.0, 50.0, 1.0]]), vehicle)[0]] is Side.LEFT
        assert SIDE_ORDER[side_of_points(np.array([[-50.0, 0.0, 1.0]]), vehicle)[0]] is Side.BACK
        assert SIDE_ORDER[side_of_points(np.array([[0.0, -50.0, 1.0]]), vehicle)[0]] is Side.RIGHT

    def test_ring_matches_angular_oracle(self, vehicle):
        # diagonal-boundary oracle evaluated independently per point
        angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
        radius = 30.0
        pts = np.column_stack(
            [radius * np.cos(angles), radius * np.sin(angles), np.ones_like(angles)]
        )
        labels = side_of_points(pts, vehicle)
        half_l, half_w = vehicle.length / 2.0, vehicle.width / 2.0
        for k, (x, y, _z) in enumerate(pts):
            u, v = x / half_l, y / half_w
            if u >= abs(v):
                expect = Side.FRONT
            elif -u >= abs(v):
                expect = Side.BACK
            elif v > 0:
                expect = Side.LEFT
            else:
                expect = Side.RIGHT
            assert SIDE_ORDER[labels[k]] is expect

    def test_partition_is_total(self, vehicle):
        rng = np.random.default_rng(3)
        cloud = partition_roi(random_cloud(rng, 500), vehicle)
        assert cloud.side_labels is not None
        assert cloud.side_labels.shape == (len(cloud),)
        counts = sum(len(cloud.side_cloud(s)) for s in SIDE_ORDER)
        assert counts == len(cloud)

    def test_interior_points_excluded(self, vehicle):
        pts = np.array([[0.0, 0.0, 0.5], [10.0, 0.0, 1.0], [0.1, 0.2, 1.0]])
        cloud = RoiCloud(pts, np.array([0.5, 0.5, 0.5]))
        out = partition_roi(cloud, vehicle)
        assert len(out) == 1
        assert np.allclose(out.points[0], [10.0, 0.0, 1.0])

    def test_empty_cloud_rejected(self, vehicle):
        with pytest.raises(EmptyCloudError):
            partition_roi(RoiCloud(np.zeros((0, 3)), np.zeros(0)), vehicle)
        inside = RoiCloud(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))
        with pytest.raises(EmptyCloudError):
            partition_roi(inside, vehicle)


class TestEnumerateConfigs:
    def test_counts(self, vehicle, catalog):
        assert len(enumerate_configs(catalog, vehicle, PlacementGrid(Side.FRONT, 4, 4))) == 64
        two = catalog[:2]
        assert len(enumerate_configs(two, vehicle, PlacementGrid(Side.FRONT, 2, 2))) == 8
        four_orients = PlacementGrid(Side.FRONT, 4, 4, (-30.0, 0.0, 30.0, 45.0))
        assert len(enumerate_configs(catalog, vehicle, four_orients)) == 256

    def test_ordering_type_major_then_position_then_orientation(self, vehicle, catalog):
        grid = PlacementGrid(Side.LEFT, 2, 2, (0.0, 45.0))
        configs = enumerate_configs(catalog, vehicle, grid)
        positions = grid_positions(vehicle, grid)
        num_pos, num_orient = 4, 2
        for i, cfg in enumerate(configs):
            t, rem = divmod(i, num_pos * num_orient)
            p, o = divmod(rem, num_orient)
            assert cfg.type_index == t
            assert cfg.position == tuple(positions[p])
            assert cfg.orientation == grid.orientations[o]
            assert cfg.side is Side.LEFT

    def test_empty_catalog_rejected(self, vehicle):
        with pytest.raises(ValueError):
            enumerate_configs((), vehicle, PlacementGrid(Side.FRONT, 2, 2))


class TestSensorSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha_h=0.0, alpha_v=40.0, range=10.0, cost=1.0),
            dict(alpha_h=181.0, alpha_v=40.0, range=10.0, cost=1.0),
            dict(alpha_h=80.0, alpha_v=-1.0, range=10.0, cost=1.0),
            dict(alpha_h=80.0, alpha_v=40.0, range=0.0, cost=1.0),
            dict(alpha_h=80.0, alpha_v=40.0, range=10.0, cost=-5.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SensorSpec("bad", **kwargs)

    def test_default_catalog_shape(self):
        assert [s.name for s in DEFAULT_CATALOG] == ["lidar", "radar", "camera", "ultrasonic"]
        lidar = DEFAULT_CATALOG[0]
        assert (lidar.alpha_h, lidar.alpha_v, lidar.range, lidar.cost) == (80.0, 40.0, 120.0, 200.0)
