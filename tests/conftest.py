"""Shared instance factories.

Exact-match tests use dyadic criticalities (multiples of 1/1024): every
product and partial sum is then exactly representable, so matrix and
nested-loop computations agree bit for bit regardless of summation
order.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from sensorplace.coverage import build_coverage
from sensorplace.setcover import IsingModel


def dyadic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Criticalities k/1024 with k in [1, 1024]."""
    return rng.integers(1, 1025, n) / 1024.0


def random_cloud(rng: np.random.Generator, n: int, extent: float = 25.0, exact: bool = True) -> RoiCloud:
    pts = rng.uniform(-extent, extent, (n, 3))
    pts[:, 2] = rng.uniform(0.0, 4.0, n)
    crit = dyadic(rng, n) if exact else rng.uniform(0.0, 1.0, n)
    return RoiCloud(pts, crit)


def random_configs(rng: np.random.Generator, catalog, count: int, extent: float = 10.0) -> list[SensorConfig]:
    """Free-floating candidates (not tied to a vehicle face)."""
    sides = list(Side)
    configs = []
    for _ in range(count):
        pos = (
            float(rng.uniform(-extent, extent)),
            float(rng.uniform(-extent, extent)),
            float(rng.uniform(0.0, 2.0)),
        )
        configs.append(
            SensorConfig(
                type_index=int(rng.integers(0, len(catalog))),
                position=pos,
                orientation=float(rng.uniform(-180.0, 180.0)),
                side=sides[int(rng.integers(0, 4))],
            )
        )
    return configs


def random_instance(
    rng: np.random.Generator,
    num_points: int = 200,
    num_configs: int = 10,
    catalog=DEFAULT_CATALOG,
    exact: bool = True,
):
    """(cloud, configs, catalog, data) with free-floating candidates."""
    cloud = random_cloud(rng, num_points, exact=exact)
    configs = random_configs(rng, catalog, num_configs)
    data = build_coverage(cloud, configs, catalog)
    return cloud, configs, catalog, data


def side_instance(
    rng: np.random.Generator,
    catalog=DEFAULT_CATALOG,
    grid: tuple[int, int] = (2, 2),
    side: Side = Side.FRONT,
    num_points: int = 300,
    orientations: tuple[float, ...] = (0.0,),
    exact: bool = True,
):
    """(side cloud, configs, catalog, data) for one vehicle face."""
    vehicle = VehicleModel()
    cloud = partition_roi(random_cloud(rng, num_points, exact=exact), vehicle)
    side_cloud = cloud.side_cloud(side)
    configs = enumerate_configs(catalog, vehicle, PlacementGrid(side, grid[0], grid[1], orientations))
    data = build_coverage(side_cloud, configs, catalog)
    return side_cloud, configs, catalog, data


def ising_model(h, pairs: dict[tuple[int, int], float], offset: float = 0.0) -> IsingModel:
    """Spin model with the given fields and per-pair coupling values ``{(i, j): J_ij}``."""
    h = np.asarray(h, dtype=float)
    J = np.zeros((h.shape[0], h.shape[0]))
    for (i, j), value in pairs.items():
        J[i, j] = J[j, i] = value
    return IsingModel(h=h, J=J, offset=offset)


@pytest.fixture
def vehicle() -> VehicleModel:
    return VehicleModel()


@pytest.fixture
def catalog():
    return DEFAULT_CATALOG


TWO_TYPE_CATALOG = (
    SensorSpec("camera", alpha_h=90.0, alpha_v=60.0, range=20.0, cost=120.0),
    SensorSpec("lidar", alpha_h=80.0, alpha_v=40.0, range=120.0, cost=200.0),
)
