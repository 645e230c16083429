"""Region-of-interest ingestion, persistence, and synthetic generation.

The on-disk cloud format is CSV with the exact header
``x,y,z,criticality``.  Non-finite coordinates and criticalities outside
[0, 1] are rejected with their 1-based line number.  The sensor catalog
is a small YAML file::

    sensors:
      - {name: lidar, alpha_h: 80, alpha_v: 40, range: 120, cost: 200}

Each entry is the plain form of a :class:`SensorSpec` and is read by
:func:`sensorplace.plain._from_plain`: an integer is read as a float,
and nothing else is converted.  A missing or unreadable input file,
invalid YAML, and a catalog entry with a missing, unknown or mistyped
field raise :class:`ConfigError` naming the file and the entry.

The synthetic generator lays a regular grid around the vehicle at a
fixed spacing and assigns criticalities from a named profile, so every
acceptance check can run without any external dataset.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyFileError, RoiParseError
from .geometry import RoiCloud, SensorSpec, VehicleModel
from .plain import _from_plain, _plain, open_output, write_csv

ROI_HEADER = ["x", "y", "z", "criticality"]


def read_input(path) -> str:
    """Text of an input file; a missing or unreadable one raises ConfigError naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read file: not text ({exc.reason})") from None


def load_yaml(path):
    """Parsed YAML document of an input file; unreadable or invalid YAML raises ConfigError."""
    import yaml  # deferred: only config and catalog files need it

    text = read_input(path)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None


def load_roi(path) -> RoiCloud:
    """Parse a cloud CSV; rejects malformed rows with their line number."""
    rows: list[tuple[float, float, float, float]] = []
    reader = csv.reader(read_input(path).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFileError(f"{path}: empty file") from None
    if [h.strip() for h in header] != ROI_HEADER:
        raise RoiParseError(1, f"expected header {','.join(ROI_HEADER)!r}, got {','.join(header)!r}")
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise RoiParseError(line, f"expected 4 fields, got {len(row)}")
        try:
            x, y, z, c = (float(v) for v in row)
        except ValueError:
            raise RoiParseError(line, f"non-numeric field in {row!r}") from None
        if not np.isfinite((x, y, z)).all():
            raise RoiParseError(line, f"non-finite coordinate in {row!r}")
        if not 0.0 <= c <= 1.0:
            raise RoiParseError(line, f"criticality {c} outside [0, 1]")
        rows.append((x, y, z, c))
    if not rows:
        raise EmptyFileError(f"{path}: no data rows")
    arr = np.array(rows)
    return RoiCloud(arr[:, :3], arr[:, 3])


def save_roi(cloud: RoiCloud, path) -> None:
    """Write a cloud CSV that loads back to bit-identical values."""
    write_csv(path, ROI_HEADER, ([*p, c] for p, c in zip(cloud.points, cloud.criticality)))


def load_catalog(path) -> tuple[SensorSpec, ...]:
    """Sensor types of a catalog YAML; any malformed entry raises ConfigError naming it."""
    doc = load_yaml(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("sensors"), list) or not doc["sensors"]:
        raise ConfigError(f"{path}: expected a mapping with a nonempty 'sensors' list")
    specs = []
    for i, entry in enumerate(doc["sensors"]):
        try:
            specs.append(_from_plain(entry, SensorSpec))
        except ValueError as exc:
            raise ConfigError(f"{path}: sensors[{i}]: {exc}") from None
    return tuple(specs)


def save_catalog(catalog, path) -> None:
    """Write a catalog YAML that :func:`load_catalog` reads back to ``catalog``."""
    import yaml

    with open_output(path) as fh:
        yaml.safe_dump({"sensors": [_plain(s) for s in catalog]}, fh, sort_keys=False)


# ---------------------------------------------------------------------------
# Synthetic clouds

_PROFILE_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^)]*)\)\s*$")

#: Most points a synthetic grid may hold (x cells * y cells * z levels,
#: the vehicle interior included); the default spec makes 2156.
MAX_SYNTHETIC_POINTS = 1_000_000


@dataclass(frozen=True)
class SyntheticRoiSpec:
    """Deterministic synthetic cloud: a grid ring around the vehicle.

    ``extent`` is how far the grid reaches beyond each face, ``spacing``
    the grid pitch, ``z_levels`` the sampled heights.  ``profile`` names
    the criticality function:

    * ``uniform(v)`` - constant criticality ``v``;
    * ``inverse_distance(d0)`` - ``1 / (1 + d / d0)`` of the horizontal
      distance ``d`` to the vehicle footprint;
    * ``inverse_distance(d0, jitter)`` - the same with multiplicative
      jitter of up to the given fraction, drawn from ``seed``.
    """

    extent: float = 10.0
    spacing: float = 0.5
    profile: str = "inverse_distance(4.0)"
    seed: int = 0
    z_levels: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if not 0.0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent!r}")
        if not self.z_levels:
            raise ValueError("at least one z level required")
        if not all(map(math.isfinite, self.z_levels)):
            raise ValueError(f"z levels must be finite, got {self.z_levels!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        parse_profile(self.profile)  # fail fast on typos


def parse_profile(profile: str):
    m = _PROFILE_RE.match(profile)
    if not m:
        raise ValueError(f"malformed criticality profile {profile!r}")
    name, argstr = m.group(1), m.group(2)
    args = [float(a) for a in argstr.split(",") if a.strip()] if argstr.strip() else []
    if name == "uniform":
        if len(args) != 1 or not 0.0 <= args[0] <= 1.0:
            raise ValueError("uniform profile takes one value in [0, 1]")
    elif name == "inverse_distance":
        if len(args) not in (1, 2) or not 0.0 < args[0] < math.inf:
            raise ValueError(
                "inverse_distance takes a positive finite scale and an optional jitter fraction"
            )
        if len(args) == 2 and not 0.0 <= args[1] <= 1.0:
            raise ValueError("jitter fraction must lie in [0, 1]")
    else:
        raise ValueError(f"unknown criticality profile {name!r}")
    return name, args


def synthetic_grid_shape(spec: SyntheticRoiSpec, vehicle: VehicleModel) -> tuple[int, int]:
    """Cells ``(nx, ny)`` of the synthetic grid around ``vehicle``.

    Raises :class:`ConfigError` when the grid's point count ``nx * ny *
    len(z_levels)`` exceeds :data:`MAX_SYNTHETIC_POINTS`, before anything
    is allocated.
    """
    half_x = vehicle.length / 2.0 + spec.extent
    half_y = vehicle.width / 2.0 + spec.extent
    # rounded as floats, so a grid too large for an int is still compared
    nx = round(2.0 * half_x / spec.spacing, 0)
    ny = round(2.0 * half_y / spec.spacing, 0)
    points = nx * ny * len(spec.z_levels)
    if not points <= MAX_SYNTHETIC_POINTS:
        raise ConfigError(
            f"synthetic grid of extent {spec.extent!r} and spacing {spec.spacing!r} would hold "
            f"{points:.3g} points (at most {MAX_SYNTHETIC_POINTS})"
        )
    return int(nx), int(ny)


def generate_synthetic_roi(spec: SyntheticRoiSpec, vehicle: VehicleModel = VehicleModel()) -> RoiCloud:
    """Grid the region around the vehicle and weight it with the profile.

    Deterministic for a fixed spec; the vehicle box interior is
    excluded.  A grid above :data:`MAX_SYNTHETIC_POINTS` raises
    :class:`ConfigError`.
    """
    half_x = vehicle.length / 2.0 + spec.extent
    half_y = vehicle.width / 2.0 + spec.extent
    nx, ny = synthetic_grid_shape(spec, vehicle)
    xs = -half_x + (np.arange(nx) + 0.5) * spec.spacing
    ys = -half_y + (np.arange(ny) + 0.5) * spec.spacing

    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    level_pts = np.column_stack([xx.reshape(-1), yy.reshape(-1)])
    pts = np.concatenate(
        [np.column_stack([level_pts, np.full(len(level_pts), z)]) for z in spec.z_levels]
    )
    pts = pts[~vehicle.contains(pts)]

    name, args = parse_profile(spec.profile)
    if name == "uniform":
        crit = np.full(len(pts), args[0])
    else:
        dx = np.maximum(np.abs(pts[:, 0]) - vehicle.length / 2.0, 0.0)
        dy = np.maximum(np.abs(pts[:, 1]) - vehicle.width / 2.0, 0.0)
        dist = np.hypot(dx, dy)
        crit = 1.0 / (1.0 + dist / args[0])
        if len(args) == 2 and args[1] > 0.0:
            rng = np.random.default_rng(spec.seed)
            crit = crit * (1.0 - args[1] * rng.random(len(pts)))
    return RoiCloud(pts, np.clip(crit, 0.0, 1.0))
