"""End-to-end orchestration: configuration, per-side solving, reporting.

A run resolves its cloud (file or synthetic), partitions it into the
four side sub-problems, precomputes coverage per side, applies the
selected approach and solvers, and aggregates per-side winners into
whole-vehicle reports.  Everything is seeded: per-task seeds derive
from the base seed and the task coordinates by hashing, so repeated
runs with the same configuration produce byte-identical CSV output.

Sides are independent sub-problems; they are solved sequentially here
but share nothing except immutable inputs.

A :class:`RunConfig` and the per-side selections are written in their
plain form (``manifest.json``, ``selections.json``) and read back
through the typed reader of :mod:`sensorplace.plain`, which also
decodes the nested specs and orientation map of a ``--config`` file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .annealer import AnnealSchedule, anneal, best_selection, scaled_schedule
from .coverage import CoverageData, build_coverage
from .errors import ConfigError, EmptyCloudError, InfeasibleError
from .fixed_count import (
    DEFAULT_COST_WEIGHT,
    DEFAULT_COVERAGE_WEIGHT,
    SelectionResult,
    evaluate_bits,
    make_problem,
    solve_exhaustive,
    solve_greedy,
    sweep_num_sensors,
)
from .geometry import (
    DEFAULT_CATALOG,
    PlacementGrid,
    RoiCloud,
    Side,
    SIDE_ORDER,
    VehicleModel,
    enumerate_configs,
    partition_roi,
)
from .plain import _from_plain, _has_type, _plain
from .reporting import (
    AggregateReport,
    RunStats,
    SweepRow,
    aggregate,
    best_run,
    drop_worst_and_summarize,
    write_adherence_csv,
    write_aggregate_csv,
    write_sweep_csv,
)
from .roi import SyntheticRoiSpec, generate_synthetic_roi, load_catalog, load_roi, read_input, synthetic_grid_shape
from .setcover import DEFAULT_QUBO_ENUMERATION_BITS, build_iqp, solve_exhaustive_qubo, to_ising
from .vqe import (
    MAX_QUBITS,
    AnsatzSpec,
    EncodingMap,
    OptimizerConfig,
    basis_energies,
    vqe_fixed_count,
    vqe_ising,
)

#: Orientation sets tilted toward the region each side actually faces
#: (negative = clockwise from above).
DEFAULT_FREE_ORIENTATIONS: dict[Side, tuple[float, ...]] = {
    Side.FRONT: (-30.0, 0.0, 30.0, 45.0),
    Side.BACK: (30.0, 0.0, -30.0, -45.0),
    Side.LEFT: (-60.0, -40.0, -20.0, 0.0),
    Side.RIGHT: (0.0, 20.0, 40.0, 60.0),
}

APPROACH_SOLVERS = {
    "fixed_count": ("exhaustive", "greedy", "vqe"),
    "setcover": ("exhaustive", "anneal", "vqe"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; file-based configs map 1:1 onto these fields."""

    approach: str = "fixed_count"
    solvers: tuple[str, ...] = ("exhaustive",)
    catalog_path: str | None = None
    roi_path: str | None = None
    synthetic: SyntheticRoiSpec | None = SyntheticRoiSpec()
    vehicle: VehicleModel = VehicleModel()
    grid: tuple[int, int] = (4, 4)
    orientation_mode: str = "fixed"          # "fixed", "free", or explicit below
    orientations: dict[Side, tuple[float, ...]] | None = None
    sensor_counts: tuple[int, ...] = tuple(range(1, 9))
    coverage_weight: float = DEFAULT_COVERAGE_WEIGHT
    cost_weight: float = DEFAULT_COST_WEIGHT
    seed: int = 0
    num_stochastic_runs: int = 10
    shots: int = 1000
    anneal_reads: int = 1000
    anneal_sweeps: int = 1000
    vqe_layers: int = 3
    vqe_max_evals: int = 500
    output_dir: str = "runs/out"
    dump_samples: bool = False
    dump_traces: bool = False

    def side_orientations(self, side: Side) -> tuple[float, ...]:
        if self.orientations is not None:
            return self.orientations.get(side, ())
        if self.orientation_mode == "fixed":
            return (0.0,)
        if self.orientation_mode == "free":
            return DEFAULT_FREE_ORIENTATIONS[side]
        raise ConfigError(f"unknown orientation mode {self.orientation_mode!r}")


def validate_inputs(config: RunConfig) -> None:
    """Reject mistyped values, invalid pairings, oversized synthetic grids,
    placement grids, orientation sets and solver settings before any compute."""
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        value, hint = getattr(config, f.name), hints[f.name]
        if not _has_type(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
    if config.approach not in APPROACH_SOLVERS:
        raise ConfigError(f"unknown approach {config.approach!r}")
    if not config.solvers:
        raise ConfigError("at least one solver must be selected")
    allowed = APPROACH_SOLVERS[config.approach]
    for solver in config.solvers:
        if solver not in allowed:
            raise ConfigError(
                f"solver {solver!r} is not valid for approach {config.approach!r} "
                f"(choose from {', '.join(allowed)})"
            )
    if (config.roi_path is None) == (config.synthetic is None):
        raise ConfigError("exactly one of roi_path and synthetic must be given")
    if config.synthetic is not None:
        synthetic_grid_shape(config.synthetic, config.vehicle)
    if config.approach == "fixed_count" and not config.sensor_counts:
        raise ConfigError("fixed_count needs a nonempty sensor_counts sweep")
    if any(k < 1 for k in config.sensor_counts):
        raise ConfigError(f"every sensor count must be >= 1, got {config.sensor_counts!r}")
    if config.coverage_weight < 0.0 or config.cost_weight < 0.0:
        raise ConfigError("coverage_weight and cost_weight must be non-negative")
    # each solver setting is checked by the settings object that uses it,
    # whichever solvers are selected
    for name, build in (
        ("anneal_reads", lambda v: AnnealSchedule(num_reads=v)),
        ("anneal_sweeps", lambda v: AnnealSchedule(sweeps_per_read=v)),
        ("vqe_max_evals", lambda v: OptimizerConfig(max_evals=v)),
        ("vqe_layers", lambda v: AnsatzSpec(1, v)),
    ):
        try:
            build(getattr(config, name))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}={getattr(config, name)!r}: {exc}") from None
    for name in ("shots", "num_stochastic_runs"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(config, name)!r}")
    if min(config.grid) < 1:
        raise ConfigError(f"grid must be two positive cell counts, got {config.grid!r}")
    for side in SIDE_ORDER:
        angles = config.side_orientations(side)  # validates the orientation mode
        if not angles or not np.isfinite(angles).all():
            raise ConfigError(f"side {side.value} needs nonempty finite orientations, got {angles!r}")


def validate_config(config: RunConfig) -> None:
    """The input checks of :func:`validate_inputs`, then each selected
    solver's size cap per side, all before any compute."""
    validate_inputs(config)
    h, v = config.grid
    num_types = len(_resolve_catalog(config))
    for side in SIDE_ORDER:
        angles = config.side_orientations(side)
        candidates = h * v * num_types * len(angles)
        if "vqe" in config.solvers:
            if config.approach == "setcover":
                qubits = candidates
            else:
                qubits = EncodingMap(h, v, num_types, len(angles)).num_qubits
            if qubits > MAX_QUBITS:
                raise ConfigError(
                    f"vqe on side {side.value} needs {qubits} qubits; the simulator is "
                    f"capped at {MAX_QUBITS}"
                )
        if config.approach == "setcover" and "exhaustive" in config.solvers \
                and candidates > DEFAULT_QUBO_ENUMERATION_BITS:
            raise ConfigError(
                f"exhaustive QUBO search on side {side.value} needs {candidates} bits; "
                f"it is capped at {DEFAULT_QUBO_ENUMERATION_BITS}"
            )


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from the base seed and task coordinates."""
    h = hashlib.sha256(repr((base,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def config_to_dict(config: RunConfig) -> dict:
    """JSON-ready form of a run config, as written to ``manifest.json``."""
    return _plain(config)


def config_from_dict(d: dict) -> RunConfig:
    """Inverse of :func:`config_to_dict`; absent keys keep the dataclass defaults.

    A nested ``synthetic`` or ``vehicle`` map overrides its default's
    fields, and it and an ``orientations`` map decode through
    :func:`_from_plain`, naming the field of a value that does not fit.
    Other values are kept as given (a list becomes a tuple);
    :func:`validate_inputs` checks their types.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    hints = get_type_hints(RunConfig)
    kwargs = {}
    for name, value in d.items():
        default = defaults[name]
        try:
            if isinstance(value, dict) and is_dataclass(default):
                value = _from_plain({**_plain(default), **value}, type(default))
            elif name == "orientations" and isinstance(value, dict):
                value = _from_plain(value, hints[name])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**kwargs)


@dataclass
class RunOutputs:
    reports: dict[str, AggregateReport]
    sweep_rows: list[SweepRow]
    output_dir: Path
    manifest_path: Path


def _resolve_cloud(config: RunConfig) -> RoiCloud:
    if config.roi_path is not None:
        cloud = load_roi(config.roi_path)
    else:
        cloud = generate_synthetic_roi(config.synthetic, config.vehicle)
    return partition_roi(cloud, config.vehicle)


def _resolve_catalog(config: RunConfig):
    return load_catalog(config.catalog_path) if config.catalog_path else DEFAULT_CATALOG


def _prepare_side(config: RunConfig, cloud: RoiCloud, catalog, side: Side) -> CoverageData:
    """Candidates and coverage of one side."""
    grid = PlacementGrid(side, config.grid[0], config.grid[1], config.side_orientations(side))
    configs = enumerate_configs(catalog, config.vehicle, grid)
    return build_coverage(cloud.side_cloud(side), configs, catalog)


def _stochastic_runs(
    config: RunConfig, run_once, seed_parts: tuple, trace_stem: str, out: Path
) -> tuple[SelectionResult, RunStats]:
    """Best of ``num_stochastic_runs`` seeded runs, and the statistics of the rest.

    ``run_once(seed)`` returns a :class:`~sensorplace.vqe.VqeRun`.  Run ``i``
    is seeded from ``seed_parts + (i,)`` and, with ``dump_traces``, writes
    its trace to ``<trace_stem>_r<i>.csv``.
    """
    runs = []
    for run_index in range(config.num_stochastic_runs):
        vqe_run = run_once(derive_seed(config.seed, *seed_parts, run_index))
        runs.append(vqe_run.result)
        if config.dump_traces:
            vqe_run.write_trace_csv(out / f"{trace_stem}_r{run_index}.csv")
    _, stats = drop_worst_and_summarize(runs)
    return best_run(runs), stats


def _solve_fixed_count(
    config: RunConfig, solver: str, side: Side, data: CoverageData, catalog, out: Path
) -> tuple[SelectionResult | None, list[SweepRow]]:
    """One side's best result over the sensor-count sweep (None when every
    count fails), and one sweep row per count."""
    problem = make_problem(
        data, catalog, num_sensors=1,
        coverage_weight=config.coverage_weight, cost_weight=config.cost_weight,
    )
    stats: dict[int, RunStats] = {}
    if solver == "exhaustive":
        fn = solve_exhaustive
    elif solver == "greedy":
        fn = solve_greedy
    else:  # vqe: the best of the seeded runs is the count's result
        encoding = EncodingMap(
            config.grid[0], config.grid[1], len(catalog), len(config.side_orientations(side)),
        )
        optimizer = OptimizerConfig(max_evals=config.vqe_max_evals)

        def fn(prob_k):
            k = prob_k.num_sensors
            best, stats[k] = _stochastic_runs(
                config,
                lambda seed: vqe_fixed_count(
                    prob_k, encoding, num_layers=config.vqe_layers, optimizer=optimizer,
                    shots=config.shots, seed=seed,
                ),
                ("vqe_fc", side.value, k),
                f"trace_{solver}_{side.value}_k{k}",
                out,
            )
            return best

    outcome = sweep_num_sensors(problem, config.sensor_counts, solver=fn)
    rows = [
        SweepRow(side, e.num_sensors, solver, e.result, stats.get(e.num_sensors), e.error)
        for e in outcome.entries
    ]
    return outcome.best, rows


def _solve_setcover(
    config: RunConfig, solver: str, side: Side, data: CoverageData, catalog, out: Path
) -> tuple[SelectionResult, list[SweepRow]]:
    """One side's free-count result, and its single sweep row."""
    model = build_iqp(
        data, catalog,
        coverage_weight=config.coverage_weight, cost_weight=config.cost_weight,
    )
    stats = None
    if solver == "exhaustive":
        bits, _energy = solve_exhaustive_qubo(model)
        problem = make_problem(data, catalog, 1, config.coverage_weight, config.cost_weight)
        result = evaluate_bits(bits, problem, "exhaustive_qubo")
    elif solver == "anneal":
        ising = to_ising(model)
        schedule = scaled_schedule(
            ising,
            num_reads=config.anneal_reads,
            sweeps_per_read=config.anneal_sweeps,
            seed=derive_seed(config.seed, "anneal", side.value),
        )
        samples = anneal(ising, schedule)
        if config.dump_samples:
            samples.to_csv(out / f"samples_{side.value}.csv")
        result = best_selection(
            samples, data, catalog,
            config.coverage_weight, config.cost_weight, seed=schedule.seed,
        )
    else:  # vqe
        ising = to_ising(model)
        optimizer = OptimizerConfig(max_evals=config.vqe_max_evals)
        energies = basis_energies(ising)  # shared by every run on this side
        result, stats = _stochastic_runs(
            config,
            lambda seed: vqe_ising(
                ising, data, catalog,
                coverage_weight=config.coverage_weight, cost_weight=config.cost_weight,
                num_layers=config.vqe_layers, optimizer=optimizer, seed=seed,
                energies=energies,
            ),
            ("vqe_ising", side.value),
            f"trace_{solver}_{side.value}",
            out,
        )
    return result, [SweepRow(side, len(result.selected), solver, result, stats)]


def load_selections(path) -> dict[str, dict[Side, SelectionResult | None]]:
    """Per-solver, per-side selections of ``selections.json``; an unsolved side
    is None.  A file that is not JSON of that shape raises ConfigError naming it."""
    try:
        return _from_plain(json.loads(read_input(path)), dict[str, dict[Side, SelectionResult | None]])
    except ValueError as exc:  # invalid JSON included
        raise ConfigError(f"{path}: {exc}") from None


def write_reports(selections, cloud: RoiCloud, catalog, out: Path) -> dict[str, AggregateReport]:
    """Aggregate each solver's per-side selections over the full cloud and
    write ``aggregate.csv`` and ``adherence.csv`` into ``out``."""
    reports = {solver: aggregate(per_side, cloud, catalog) for solver, per_side in selections.items()}
    out.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out / "aggregate.csv", reports)
    write_adherence_csv(out / "adherence.csv", reports)
    return reports


def run(config: RunConfig) -> RunOutputs:
    """Execute the full pipeline and write the report files.

    Emits ``sweep.csv``, ``aggregate.csv``, ``adherence.csv``,
    ``selections.json`` and ``manifest.json`` into ``output_dir``.
    A side without coverable points gets one ``n/a`` sweep row per solver,
    and a side whose every sensor count fails keeps its per-count error
    rows; either gets a null selection.  The run fails, after writing
    ``sweep.csv``, only when no solver produced a selection on any side.
    Deterministic: identical configurations yield byte-identical CSVs.
    """
    validate_config(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    catalog = _resolve_catalog(config)
    cloud = _resolve_cloud(config)
    sides: dict[Side, CoverageData] = {}
    empty: dict[Side, str] = {}
    for side in SIDE_ORDER:
        try:
            sides[side] = _prepare_side(config, cloud, catalog, side)
        except EmptyCloudError as exc:
            empty[side] = f"{type(exc).__name__}: {exc}"

    solve_side = _solve_fixed_count if config.approach == "fixed_count" else _solve_setcover
    selections: dict[str, dict[Side, SelectionResult | None]] = {}
    sweep_rows: list[SweepRow] = []
    for solver in config.solvers:
        per_side = selections[solver] = {}
        for side in SIDE_ORDER:
            if side in empty:
                per_side[side] = None
                sweep_rows.append(SweepRow(side, None, solver, None, error=empty[side]))
            else:
                per_side[side], rows = solve_side(config, solver, side, sides[side], catalog, out)
                sweep_rows.extend(rows)

    write_sweep_csv(out / "sweep.csv", sweep_rows)
    if all(r is None for per_side in selections.values() for r in per_side.values()):
        raise InfeasibleError(f"no solver produced a selection on any side; see {out / 'sweep.csv'}")
    reports = write_reports(selections, cloud, catalog, out)
    doc = {solver: _plain(report.per_side) for solver, report in reports.items()}
    (out / "selections.json").write_text(json.dumps(doc, indent=2, sort_keys=True))

    resolved = config_to_dict(config)
    resolved.pop("output_dir")  # not semantic: it is where this manifest lives
    manifest = {
        "config": resolved,
        "config_hash": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode()
        ).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    return RunOutputs(reports=reports, sweep_rows=sweep_rows, output_dir=out, manifest_path=manifest_path)
