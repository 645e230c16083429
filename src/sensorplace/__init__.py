"""Criticality-weighted sensor placement on a vehicle surface.

The library models elliptical-cone sensor fields of view over a 3D
region of interest, precomputes coverage, and selects sensor
configurations (type, position, orientation) two ways: a fixed
sensor-count search and a free-count quadratic set-coverage model.
Solvers span exact enumeration, greedy, simulated annealing over the
QUBO/Ising form, and small statevector variational loops.

Every name below, and every submodule, resolves on first use (PEP 562):
``import sensorplace`` loads no submodule, ``sensorplace.run`` loads the
pipeline and the solvers it calls, and a program that only builds
coverage through ``sensorplace.coverage`` never loads the solver stack.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it lends the package namespace.
_EXPORTS = {
    "annealer": (
        "AnnealSchedule", "SampleSet", "anneal", "best_selection", "scaled_schedule",
        "suggest_beta_range",
    ),
    "cli": (),
    "coverage": ("CoverageData", "build_coverage", "exact_union_coverage"),
    "errors": (
        "BudgetExceededError", "ConfigError", "EmptyCloudError", "EmptyFileError",
        "InfeasibleError", "InsufficientSupportError", "MissingSideError",
        "NoCriticalPointsError", "RoiParseError", "SensorPlaceError", "SizeLimitError",
    ),
    "exports": (),
    "fixed_count": (
        "FixedCountProblem", "SelectionResult", "evaluate_selection", "make_problem",
        "objective", "solve_exhaustive", "solve_greedy", "sweep_num_sensors",
    ),
    "geometry": (
        "DEFAULT_CATALOG", "PlacementGrid", "RoiCloud", "SensorConfig", "SensorSpec", "Side",
        "SIDE_ORDER", "VehicleModel", "enumerate_configs", "fov_contains", "fov_mask",
        "grid_positions", "partition_roi",
    ),
    "pipeline": ("RunConfig", "run", "validate_inputs"),
    "plain": (),
    "reporting": ("AggregateReport", "adherence", "aggregate"),
    "roi": ("SyntheticRoiSpec", "generate_synthetic_roi", "load_catalog", "load_roi", "save_roi"),
    "setcover": (
        "IsingModel", "QuadraticModel", "approx_coverage", "build_iqp", "fix_persistent",
        "solve_exhaustive_qubo", "to_ising", "to_qubo",
    ),
    "vqe": (
        "AnsatzSpec", "EncodingMap", "OptimizerConfig", "apply_ansatz", "entangler_pairs",
        "sample_histogram", "select_feasible_topk", "uniform_state", "vqe_fixed_count",
        "vqe_ising",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule that ``name`` is, or that defines it, and keep
    the value in this namespace so later lookups skip this hook."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
