"""Coverage precompute vs nested-loop brute force, and the bound chain."""

from __future__ import annotations

import numpy as np
import pytest

from sensorplace.coverage import build_coverage, exact_union_coverage, limb_total, split_limbs
from sensorplace.errors import EmptyCloudError
from sensorplace.geometry import RoiCloud, SensorConfig, SensorSpec, Side, fov_contains
from sensorplace.setcover import approx_coverage

from conftest import random_cloud, random_instance


def brute_force_coverage(cloud, configs, catalog):
    """Nested-loop singles/overlaps oracle; plain Python sums."""
    n = len(cloud)
    rows = [
        [fov_contains(cfg, catalog[cfg.type_index], cloud.points[r]) for r in range(n)]
        for cfg in configs
    ]
    norm = sum(float(c) for c in cloud.criticality)
    singles = [
        sum(float(cloud.criticality[r]) for r in range(n) if rows[i][r]) / norm
        for i in range(len(configs))
    ]
    overlaps = [
        [
            sum(float(cloud.criticality[r]) for r in range(n) if rows[i][r] and rows[j][r]) / norm
            for j in range(len(configs))
        ]
        for i in range(len(configs))
    ]
    return rows, singles, overlaps


def brute_force_union(selection, cloud, configs, catalog):
    n = len(cloud)
    norm = sum(float(c) for c in cloud.criticality)
    total = 0.0
    for r in range(n):
        if any(fov_contains(configs[i], catalog[configs[i].type_index], cloud.points[r]) for i in selection):
            total += float(cloud.criticality[r])
    return total / norm


class TestBuildCoverage:
    def test_matches_brute_force_exactly(self):
        # dyadic criticalities make every partial sum exact, so the matrix
        # path and the nested loop must agree bit for bit
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cloud, configs, catalog, data = random_instance(rng, num_points=150, num_configs=8)
            rows, singles, overlaps = brute_force_coverage(cloud, configs, catalog)
            assert np.array_equal(data.masks, np.array(rows))
            assert np.array_equal(data.singles, np.array(singles))
            assert np.array_equal(data.overlaps, np.array(overlaps))

    def test_miss_all_gives_zero_row(self):
        cloud = RoiCloud(np.array([[100.0, 0.0, 1.0]]), np.array([1.0]))
        catalog = (SensorSpec("s", 60.0, 30.0, 5.0, 10.0),)
        cfg = SensorConfig(0, (0.0, 0.0, 1.0), 0.0, Side.FRONT)
        data = build_coverage(cloud, [cfg], catalog)
        assert data.singles[0] == 0.0
        assert not data.masks.any()

    def test_identical_configs_share_overlap(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 100)
        catalog = (SensorSpec("s", 80.0, 40.0, 30.0, 10.0),)
        cfg = SensorConfig(0, (0.0, 0.0, 1.0), 10.0, Side.FRONT)
        data = build_coverage(cloud, [cfg, cfg], catalog)
        assert data.overlaps[0, 1] == data.singles[0] == data.singles[1]

    def test_diagonal_equals_singles_and_symmetry(self):
        rng = np.random.default_rng(8)
        _, _, _, data = random_instance(rng, exact=False)
        assert np.array_equal(data.overlaps.diagonal(), data.singles)
        assert np.array_equal(data.overlaps, data.overlaps.T)
        assert data.overlaps.min() >= 0.0
        # pairwise overlap can never exceed either single
        n = data.num_configs
        for i in range(n):
            for j in range(n):
                assert data.overlaps[i, j] <= min(data.singles[i], data.singles[j]) + 1e-15

    def test_point_order_independence(self):
        rng = np.random.default_rng(13)
        cloud, configs, catalog, data = random_instance(rng, num_points=120, num_configs=6)
        perm = rng.permutation(len(cloud))
        shuffled = RoiCloud(cloud.points[perm], cloud.criticality[perm])
        data2 = build_coverage(shuffled, configs, catalog)
        assert np.array_equal(data.singles, data2.singles)
        assert np.array_equal(data.overlaps, data2.overlaps)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(21)
        _, _, _, data = random_instance(rng, exact=False)
        for _ in range(100):
            v = rng.normal(size=data.num_configs)
            assert v @ data.overlaps @ v >= -1e-9

    def test_empty_cloud_rejected(self, catalog):
        with pytest.raises(EmptyCloudError):
            build_coverage(RoiCloud(np.zeros((0, 3)), np.zeros(0)), [], catalog)
        zero_crit = RoiCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(EmptyCloudError):
            build_coverage(zero_crit, [], catalog)

    def test_nan_criticality_rejected(self):
        # NaN passed the [0, 1] range check, and no limb split of it ends
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RoiCloud(np.zeros((2, 3)), np.array([0.5, np.nan]))


class TestExactUnionCoverage:
    def test_empty_selection(self):
        rng = np.random.default_rng(6)
        _, _, _, data = random_instance(rng)
        assert exact_union_coverage([], data) == 0.0

    def test_singleton_equals_singles(self):
        rng = np.random.default_rng(9)
        for exact in (True, False):
            _, _, _, data = random_instance(rng, exact=exact)
            for i in range(data.num_configs):
                assert exact_union_coverage([i], data) == data.singles[i]
                for j in range(data.num_configs):
                    both = data.masks[i] & data.masks[j]
                    pair = float(limb_total(data.limbs[:, both].sum(axis=1)) / data.normalizer)
                    assert data.overlaps[i, j] == pair

    def test_three_config_union_matches_brute_force(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            cloud, configs, catalog, data = random_instance(rng, num_points=120, num_configs=8)
            sel = sorted(rng.choice(8, size=3, replace=False).tolist())
            assert exact_union_coverage(sel, data) == brute_force_union(sel, cloud, configs, catalog)

    def test_point_order_leaves_every_sum_bit_identical(self):
        # numpy's pairwise sum of float weights depends on the point order
        rng = np.random.default_rng(15)
        cloud, configs, catalog, data = random_instance(rng, num_points=500, num_configs=10, exact=False)
        perm = rng.permutation(len(cloud))
        shuffled = build_coverage(RoiCloud(cloud.points[perm], cloud.criticality[perm]), configs, catalog)
        assert shuffled.normalizer == data.normalizer
        for _ in range(200):
            sel = rng.choice(10, size=int(rng.integers(1, 6)), replace=False).tolist()
            assert exact_union_coverage(sel, shuffled) == exact_union_coverage(sel, data)
        assert np.array_equal(shuffled.singles, data.singles)
        assert np.array_equal(shuffled.overlaps, data.overlaps)

    def test_limbs_rebuild_the_weights_exactly(self):
        weights = np.append(np.geomspace(1.0, 1e-300, 99), [0.0, 5e-324])
        limbs = split_limbs(weights)
        assert len(limbs) > 2
        assert np.array_equal(limb_total(limbs.T), weights)
        assert len(split_limbs(np.random.default_rng(16).uniform(0.2, 0.95, 1000))) == 2

    def test_monotone_under_growth(self):
        rng = np.random.default_rng(14)
        _, _, _, data = random_instance(rng, num_configs=9)
        sel: list[int] = []
        prev = 0.0
        for i in rng.permutation(9):
            sel.append(int(i))
            cur = exact_union_coverage(sel, data)
            assert cur >= prev
            prev = cur


class TestBoundChain:
    def test_union_at_least_quadratic_approximation(self):
        # singles-minus-overlaps never exceeds the true union coverage,
        # with equality for selections of at most two sensors
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            _, _, _, data = random_instance(rng, num_points=150, num_configs=10, exact=False)
            for _ in range(50):
                x = rng.integers(0, 2, data.num_configs)
                sel = [int(i) for i in np.flatnonzero(x)]
                exact = exact_union_coverage(sel, data)
                approx = approx_coverage(x, data)
                assert exact >= approx - 1e-9
                if len(sel) <= 2:
                    assert abs(exact - approx) <= 1e-9

