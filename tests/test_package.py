"""The package namespace resolves on first use.

Building coverage must not load the solver stack, PyYAML or scipy; every
public name must still be its defining module's object, reachable as an
attribute, by ``from sensorplace import *`` and in ``dir()``; and the
YAML readers and writers must work with ``yaml`` imported on first use.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensorplace
from sensorplace.errors import ConfigError
from sensorplace.roi import load_yaml

ROOT = Path(__file__).resolve().parents[1]

#: The public names ``sensorplace`` has always exported.
PUBLIC_NAMES = {
    "AggregateReport", "AnnealSchedule", "AnsatzSpec", "BudgetExceededError", "ConfigError",
    "CoverageData", "DEFAULT_CATALOG", "EmptyCloudError", "EmptyFileError", "EncodingMap",
    "FixedCountProblem", "InfeasibleError", "InsufficientSupportError", "IsingModel",
    "MissingSideError", "NoCriticalPointsError", "OptimizerConfig", "PlacementGrid",
    "QuadraticModel", "RoiCloud", "RoiParseError", "RunConfig", "SIDE_ORDER", "SampleSet",
    "SelectionResult", "SensorConfig", "SensorPlaceError", "SensorSpec", "Side",
    "SyntheticRoiSpec", "VehicleModel", "adherence", "aggregate", "anneal", "apply_ansatz",
    "approx_coverage", "best_selection", "build_coverage", "build_iqp", "entangler_pairs",
    "enumerate_configs", "evaluate_selection", "exact_union_coverage", "fix_persistent",
    "fov_contains", "fov_mask", "generate_synthetic_roi", "grid_positions", "load_catalog",
    "load_roi", "make_problem", "objective", "partition_roi", "run", "sample_histogram",
    "save_roi", "scaled_schedule", "select_feasible_topk", "solve_exhaustive",
    "solve_exhaustive_qubo", "solve_greedy", "suggest_beta_range", "sweep_num_sensors",
    "to_ising", "to_qubo", "uniform_state", "validate_inputs", "vqe_fixed_count", "vqe_ising",
}


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_coverage_build_loads_no_solver_module():
    code = """
import json, sys
from sensorplace.coverage import build_coverage
from sensorplace.geometry import DEFAULT_CATALOG, PlacementGrid, Side, VehicleModel, enumerate_configs, partition_roi
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi

vehicle = VehicleModel()
cloud = partition_roi(generate_synthetic_roi(SyntheticRoiSpec(), vehicle), vehicle)
configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(Side.FRONT, 2, 2))
data = build_coverage(cloud.side_cloud(Side.FRONT), configs, DEFAULT_CATALOG)
print(json.dumps([data.masks.size, sorted(sys.modules)]))
"""
    cells, modules = json.loads(_fresh(code))
    assert cells > 0
    heavy = [f"sensorplace.{m}" for m in
             ("pipeline", "annealer", "fixed_count", "setcover", "vqe", "reporting", "exports", "cli")]
    assert [m for m in modules if m in heavy or m.split(".")[0] in ("yaml", "scipy")] == []


def test_public_names_are_their_defining_modules_objects():
    assert set(sensorplace.__all__) == PUBLIC_NAMES
    for name in sensorplace.__all__:
        module = importlib.import_module(f"sensorplace.{sensorplace._MODULE_OF[name]}")
        value = getattr(sensorplace, name)
        assert value is getattr(module, name), name
        # classes and functions name their module; constants have none
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_list_every_name():
    code = """
import json
import sensorplace
listed = dir(sensorplace)
namespace = {}
exec("from sensorplace import *", namespace)
print(json.dumps([listed, sorted(namespace), sensorplace.__all__]))
"""
    listed, bound, exported = json.loads(_fresh(code))
    assert set(exported) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(listed) and PUBLIC_NAMES <= set(bound)
    assert {"pipeline", "coverage", "cli"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sensorplace.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from sensorplace import no_such_name  # noqa: F401


def test_submodule_is_an_attribute_in_a_fresh_interpreter():
    code = """
import sys
import sensorplace
assert "sensorplace.pipeline" not in sys.modules
print(sensorplace.pipeline.__name__, sensorplace.run is sensorplace.pipeline.run)
"""
    assert _fresh(code).split() == ["sensorplace.pipeline", "True"]


def test_invalid_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("sensors: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_yaml(path)


def test_catalog_round_trip_imports_yaml_on_first_use(tmp_path):
    code = f"""
import sys
from sensorplace.geometry import DEFAULT_CATALOG
from sensorplace.roi import load_catalog, save_catalog
assert "yaml" not in sys.modules
save_catalog(DEFAULT_CATALOG, {str(tmp_path / "catalog.yaml")!r})
print(load_catalog({str(tmp_path / "catalog.yaml")!r}) == DEFAULT_CATALOG)
"""
    assert _fresh(code).strip() == "True"
