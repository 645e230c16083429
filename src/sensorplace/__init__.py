"""Criticality-weighted sensor placement on a vehicle surface.

The library models elliptical-cone sensor fields of view over a 3D
region of interest, precomputes coverage, and selects sensor
configurations (type, position, orientation) two ways: a fixed
sensor-count search and a free-count quadratic set-coverage model.
Solvers span exact enumeration, greedy, simulated annealing over the
QUBO/Ising form, and small statevector variational loops.
"""

__version__ = "0.1.0"

from .annealer import (
    AnnealSchedule,
    SampleSet,
    anneal,
    best_selection,
    scaled_schedule,
    suggest_beta_range,
)
from .coverage import CoverageData, build_coverage, exact_union_coverage
from .errors import (
    BudgetExceededError,
    ConfigError,
    EmptyCloudError,
    EmptyFileError,
    InfeasibleError,
    InsufficientSupportError,
    MissingSideError,
    NoCriticalPointsError,
    RoiParseError,
    SensorPlaceError,
)
from .fixed_count import (
    FixedCountProblem,
    SelectionResult,
    evaluate_selection,
    make_problem,
    objective,
    solve_exhaustive,
    solve_greedy,
    sweep_num_sensors,
)
from .geometry import (
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
)
from .pipeline import RunConfig, run, validate_inputs
from .reporting import AggregateReport, adherence, aggregate
from .roi import SyntheticRoiSpec, generate_synthetic_roi, load_catalog, load_roi, save_roi
from .setcover import (
    IsingModel,
    QuadraticModel,
    approx_coverage,
    build_iqp,
    fix_persistent,
    solve_exhaustive_qubo,
    to_ising,
    to_qubo,
)
from .vqe import (
    AnsatzSpec,
    EncodingMap,
    OptimizerConfig,
    apply_ansatz,
    entangler_pairs,
    sample_histogram,
    select_feasible_topk,
    uniform_state,
    vqe_fixed_count,
    vqe_ising,
)
