"""One set-up, in a fresh interpreter: import, build the cloud and the coverage.

Usage: ``python3 perfbench/setup_probe.py <src dir> <config json>``.
Imports ``sensorplace`` from the given ``src`` directory, generates and
partitions the workload's synthetic cloud, and builds coverage for all
four sides through the public ``roi``, ``geometry`` and ``coverage``
functions.  The caller times the whole process, interpreter start
included.
"""

from __future__ import annotations

import json
import sys

sys.path.insert(0, sys.argv[1])

from sensorplace.coverage import build_coverage  # noqa: E402
from sensorplace.geometry import (  # noqa: E402
    DEFAULT_CATALOG,
    SIDE_ORDER,
    PlacementGrid,
    VehicleModel,
    enumerate_configs,
    partition_roi,
)
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi  # noqa: E402

config = json.loads(sys.argv[2])
vehicle = VehicleModel()
cloud = partition_roi(generate_synthetic_roi(SyntheticRoiSpec(**config["synthetic"]), vehicle), vehicle)
horizontal, vertical = config["grid"]
cells = 0
for side in SIDE_ORDER:
    configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(side, horizontal, vertical))
    data = build_coverage(cloud.side_cloud(side), configs, DEFAULT_CATALOG)
    cells += data.masks.size
print(cells)
