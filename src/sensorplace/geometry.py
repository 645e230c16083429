"""Vehicle, sensor field-of-view, and region-of-interest geometry.

Conventions used throughout the package:

* The vehicle is an axis-aligned box whose footprint centre sits at the
  coordinate origin, with the front face toward +x, the left side toward
  +y and z pointing up.  The box occupies z = 0 to z = ``height``.
* Sensor orientations are yaw angles in degrees about the z axis,
  measured from the outward normal of the face the sensor sits on.
  Angles that appear clockwise when looking down at the vehicle are
  negative.
* A sensor's field of view is an elliptical cone truncated at ``range``:
  with the apex at the mount point and local axes (boresight, left,
  up), a point at local coordinates ``(x, y, z)`` is seen when ``x > 0``
  and ``(y/x / tan(fov_h/2))**2 + (z/x / tan(fov_v/2))**2 <= 1``.

All types here are immutable after construction and all operations are
pure functions, so instances can be shared freely across workers.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyCloudError

log = logging.getLogger(__name__)

# Slack applied to the (dimensionless) elliptical-cone inequality so that
# geometry sitting exactly on the cone edge is deterministically inside.
CONE_EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class SensorSpec:
    """One sensor type: angular sweeps in degrees, range in metres, unit cost."""

    name: str
    alpha_h: float
    alpha_v: float
    range: float
    cost: float

    def __post_init__(self):
        if not 0.0 < self.alpha_h <= 180.0:
            raise ValueError(f"alpha_h must be in (0, 180], got {self.alpha_h}")
        if not 0.0 < self.alpha_v <= 180.0:
            raise ValueError(f"alpha_v must be in (0, 180], got {self.alpha_v}")
        if not 0.0 < self.range < math.inf:
            raise ValueError(f"range must be positive and finite, got {self.range}")
        if not 0.0 <= self.cost < math.inf:
            raise ValueError(f"cost must be non-negative and finite, got {self.cost}")


#: Default catalog: LiDAR, Radar, Camera and Ultrasonic with angular sweeps,
#: ranges and unit costs chosen so that no type fully dominates another.
DEFAULT_CATALOG: tuple[SensorSpec, ...] = (
    SensorSpec("lidar", alpha_h=80.0, alpha_v=40.0, range=120.0, cost=200.0),
    SensorSpec("radar", alpha_h=60.0, alpha_v=5.0, range=120.0, cost=100.0),
    SensorSpec("camera", alpha_h=90.0, alpha_v=60.0, range=20.0, cost=120.0),
    SensorSpec("ultrasonic", alpha_h=90.0, alpha_v=5.0, range=10.0, cost=20.0),
)


class Side(enum.Enum):
    """The four vertical faces of the vehicle box."""

    FRONT = "front"
    BACK = "back"
    LEFT = "left"
    RIGHT = "right"


#: Fixed side ordering used for integer side labels and per-side loops.
SIDE_ORDER: tuple[Side, ...] = (Side.FRONT, Side.BACK, Side.LEFT, Side.RIGHT)

_NORMALS = {
    Side.FRONT: np.array([1.0, 0.0, 0.0]),
    Side.BACK: np.array([-1.0, 0.0, 0.0]),
    Side.LEFT: np.array([0.0, 1.0, 0.0]),
    Side.RIGHT: np.array([0.0, -1.0, 0.0]),
}


@dataclass(frozen=True)
class VehicleModel:
    """Axis-aligned box vehicle with its footprint centre at the coordinate origin."""

    length: float = 4.5
    width: float = 1.8
    height: float = 1.5

    def __post_init__(self):
        if not all(0.0 < d < math.inf for d in (self.length, self.width, self.height)):
            raise ValueError("vehicle dimensions must be positive and finite")

    def face_normal(self, side: Side) -> NDArray[np.float64]:
        return _NORMALS[side].copy()

    def face_centre(self, side: Side) -> NDArray[np.float64]:
        half = {Side.FRONT: self.length, Side.BACK: self.length,
                Side.LEFT: self.width, Side.RIGHT: self.width}[side] / 2.0
        return np.array([0.0, 0.0, self.height / 2.0]) + half * _NORMALS[side]

    def face_extent(self, side: Side) -> tuple[float, float]:
        """(horizontal, vertical) extent of a face in metres."""
        if side in (Side.FRONT, Side.BACK):
            return self.width, self.height
        return self.length, self.height

    def contains(self, points: NDArray[np.float64]) -> NDArray[np.bool_]:
        """Strict-interior test for an (n, 3) array of points."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (np.abs(p[:, 0]) < self.length / 2.0)
            & (np.abs(p[:, 1]) < self.width / 2.0)
            & (p[:, 2] > 0.0)
            & (p[:, 2] < self.height)
        )


@dataclass(frozen=True)
class PlacementGrid:
    """Candidate mount grid on one face.

    ``horizontal`` and ``vertical`` count the grid cells along the face's
    horizontal and vertical axes; candidate positions are the cell
    centres.  ``orientations`` lists the allowed yaw angles in degrees.
    """

    side: Side
    horizontal: int
    vertical: int
    orientations: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.horizontal < 1 or self.vertical < 1:
            raise ValueError("grid dimensions must be >= 1")
        if len(self.orientations) == 0:
            raise ValueError("orientation set must be nonempty")

    @property
    def num_positions(self) -> int:
        return self.horizontal * self.vertical


@dataclass(frozen=True)
class SensorConfig:
    """One placement candidate: a sensor type at a position with a yaw."""

    type_index: int
    position: tuple[float, float, float]
    orientation: float
    side: Side


@dataclass(frozen=True)
class RoiCloud:
    """Criticality-weighted point set around the vehicle.

    Stored column-wise: ``points`` is (n, 3) float64, ``criticality`` is
    (n,) float64 in [0, 1].  ``side_labels`` (when present) holds indices
    into :data:`SIDE_ORDER`.
    """

    points: NDArray[np.float64]
    criticality: NDArray[np.float64]
    side_labels: NDArray[np.int8] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        crit = np.asarray(self.criticality, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        if crit.shape != (pts.shape[0],):
            raise ValueError("criticality must be an (n,) array")
        if not ((crit >= 0.0) & (crit <= 1.0)).all():
            raise ValueError("criticality values must lie in [0, 1]")
        pts.flags.writeable = False
        crit.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "criticality", crit)
        if self.side_labels is not None:
            lab = np.asarray(self.side_labels, dtype=np.int8)
            if lab.shape != (pts.shape[0],):
                raise ValueError("side_labels must be an (n,) array")
            lab.flags.writeable = False
            object.__setattr__(self, "side_labels", lab)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total_criticality(self) -> float:
        return float(self.criticality.sum())

    def subset(self, mask: NDArray[np.bool_]) -> "RoiCloud":
        labels = self.side_labels[mask] if self.side_labels is not None else None
        return RoiCloud(self.points[mask], self.criticality[mask], labels)

    def side_cloud(self, side: Side) -> "RoiCloud":
        """Sub-cloud of the points labelled with ``side`` (requires partitioning)."""
        if self.side_labels is None:
            raise ValueError("cloud has no side labels; call partition_roi first")
        return self.subset(self.side_labels == SIDE_ORDER.index(side))


def boresight_angle(cfg: SensorConfig) -> float:
    """Yaw of the boresight in radians: face normal turned by the orientation."""
    n = _NORMALS[cfg.side]
    return math.atan2(n[1], n[0]) + math.radians(cfg.orientation)


def fov_mask(
    cfg: SensorConfig,
    spec: SensorSpec,
    points: NDArray[np.float64],
) -> NDArray[np.bool_]:
    """Vectorized membership of an (n, 3) array of points in the sensor's elliptical cone.

    Boundary geometry counts as covered; the mount point itself is
    covered; points strictly behind the apex plane are not.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    apex = np.asarray(cfg.position, dtype=float)
    phi = boresight_angle(cfg)
    bx, by = math.cos(phi), math.sin(phi)

    d = pts - apex
    x_l = d[:, 0] * bx + d[:, 1] * by          # along boresight
    y_l = -d[:, 0] * by + d[:, 1] * bx         # toward local left (z cross boresight)
    z_l = d[:, 2]

    dist_sq = (d * d).sum(axis=1)
    at_apex = dist_sq == 0.0
    in_range = dist_sq <= spec.range * spec.range

    tan_h = math.tan(math.radians(spec.alpha_h) / 2.0)
    tan_v = math.tan(math.radians(spec.alpha_v) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rh = y_l / (x_l * tan_h)
        rv = z_l / (x_l * tan_v)
        # NaN from 0/0 compares False, which is the wanted answer off-axis.
        in_cone = rh * rh + rv * rv <= 1.0 + CONE_EDGE_SLACK

    return in_range & ((x_l > 0.0) & in_cone | at_apex)


def fov_contains(
    cfg: SensorConfig,
    spec: SensorSpec,
    point,
) -> bool:
    """Scalar wrapper around :func:`fov_mask` for a single point."""
    return bool(fov_mask(cfg, spec, np.asarray(point, dtype=float).reshape(1, 3))[0])


def grid_positions(vehicle: VehicleModel, grid: PlacementGrid) -> NDArray[np.float64]:
    """Cell-centre mount points of a grid, as an (horizontal*vertical, 3) array.

    Ordering is row-major with the horizontal index varying slowest:
    position ``p = a * vertical + b`` for horizontal cell ``a`` and
    vertical cell ``b``.  The horizontal axis of a face is ``z cross
    normal`` so the layout is deterministic for every side.
    """
    ext_h, ext_v = vehicle.face_extent(grid.side)
    centre = vehicle.face_centre(grid.side)
    normal = vehicle.face_normal(grid.side)
    h_axis = np.cross([0.0, 0.0, 1.0], normal)

    u = (np.arange(grid.horizontal) + 0.5) / grid.horizontal * ext_h - ext_h / 2.0
    v = (np.arange(grid.vertical) + 0.5) / grid.vertical * ext_v - ext_v / 2.0
    uu, vv = np.meshgrid(u, v, indexing="ij")
    flat_u = uu.reshape(-1)
    flat_v = vv.reshape(-1)
    return centre + flat_u[:, None] * h_axis + flat_v[:, None] * np.array([0.0, 0.0, 1.0])


def side_of_points(points: NDArray[np.float64], vehicle: VehicleModel) -> NDArray[np.int8]:
    """Assign each point the side whose diagonal-bounded sector contains it.

    Sector boundaries are the footprint diagonals extended outward.  In
    footprint-normalized coordinates ``u = dx / (length/2)``,
    ``v = dy / (width/2)`` the rules are: front when ``u >= |v|``, back
    when ``-u >= |v|``, otherwise left for ``v > 0`` and right for
    ``v < 0``; ties on the diagonals go to front/back so that the four
    sectors partition the plane.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    u = p[:, 0] / (vehicle.length / 2.0)
    v = p[:, 1] / (vehicle.width / 2.0)
    labels = np.full(p.shape[0], SIDE_ORDER.index(Side.RIGHT), dtype=np.int8)
    labels[v > 0.0] = SIDE_ORDER.index(Side.LEFT)
    labels[-u >= np.abs(v)] = SIDE_ORDER.index(Side.BACK)
    labels[u >= np.abs(v)] = SIDE_ORDER.index(Side.FRONT)
    return labels


def partition_roi(cloud: RoiCloud, vehicle: VehicleModel) -> RoiCloud:
    """Label every point with its side; drop points inside the vehicle box.

    Returns a new cloud with ``side_labels`` filled.  The number of
    excluded interior points is logged.  Raises :class:`EmptyCloudError`
    when the input is empty or no points remain.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("cannot partition an empty cloud")
    keep = ~vehicle.contains(cloud.points)
    excluded = int((~keep).sum())
    if excluded:
        log.info("partition_roi: excluded %d points inside the vehicle box", excluded)
    if not keep.any():
        raise EmptyCloudError("all points lie inside the vehicle box")
    pts = cloud.points[keep]
    crit = cloud.criticality[keep]
    return RoiCloud(pts, crit, side_of_points(pts, vehicle))


def enumerate_configs(
    catalog: tuple[SensorSpec, ...],
    vehicle: VehicleModel,
    grid: PlacementGrid,
) -> list[SensorConfig]:
    """All candidate placements of one grid.

    The ordering is type-major, then row-major position, then
    orientation, so a candidate's index is
    ``(t * num_positions + p) * num_orientations + o``.
    """
    if not catalog:
        raise ValueError("sensor catalog must be nonempty")
    positions = grid_positions(vehicle, grid)
    configs: list[SensorConfig] = []
    for t in range(len(catalog)):
        for pos in positions:
            for o in grid.orientations:
                configs.append(SensorConfig(t, tuple(pos), float(o), grid.side))
    return configs


def config_costs(
    configs: list[SensorConfig] | tuple[SensorConfig, ...],
    catalog: tuple[SensorSpec, ...],
) -> NDArray[np.float64]:
    """Per-candidate cost vector looked up from the catalog."""
    return np.array([catalog[c.type_index].cost for c in configs], dtype=float)
