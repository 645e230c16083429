"""End-to-end orchestration: configuration, per-side solving, reporting.

A run resolves its cloud (file or synthetic), partitions it into the
four side sub-problems, precomputes coverage per side, applies the
selected approach and solvers, and aggregates per-side winners into
whole-vehicle reports.  Everything is seeded: per-task seeds derive
from the base seed and the task coordinates by hashing, so repeated
runs with the same configuration produce byte-identical CSV output.

Sides are independent sub-problems; they are solved sequentially here
but share nothing except immutable inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .annealer import AnnealSchedule, anneal, best_selection, scaled_schedule
from .coverage import CoverageData, build_coverage, cached_coverage
from .errors import ConfigError, EmptyCloudError, InfeasibleError
from .fixed_count import (
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
    SensorConfig,
    Side,
    SIDE_ORDER,
    VehicleModel,
    enumerate_configs,
    partition_roi,
)
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
from .roi import SyntheticRoiSpec, generate_synthetic_roi, load_catalog, load_roi
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
    coverage_weight: float = 1.0
    cost_weight: float = 1e-4
    seed: int = 0
    num_stochastic_runs: int = 10
    shots: int = 1000
    anneal_reads: int = 1000
    anneal_sweeps: int = 1000
    vqe_layers: int = 3
    vqe_max_evals: int = 500
    output_dir: str = "runs/out"
    cache_dir: str | None = None
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


def validate_config(config: RunConfig) -> None:
    """Reject invalid pairings, grids, solver settings and size overruns before any compute."""
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
    if len(config.grid) != 2 or min(config.grid) < 1:
        raise ConfigError(f"grid must be two positive cell counts, got {config.grid!r}")
    # solver size caps, checked per side before any coverage is built
    h, v = config.grid
    num_types = len(_resolve_catalog(config))
    for side in SIDE_ORDER:
        angles = config.side_orientations(side)  # validates the orientation mode
        if not angles or not np.isfinite(angles).all():
            raise ConfigError(f"side {side.value} needs nonempty finite orientations, got {angles!r}")
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


def _plain(value):
    """JSON-ready form of a config value: dataclasses become dicts, tuples lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {getattr(k, "value", k): _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _has_type(value, hint) -> bool:
    """Whether ``value`` is of the annotated type ``hint`` as it stands: an
    int passes for a float and a list for a tuple, a bool for no number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_has_type(value, a) for a in args)
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_has_type, value, items))
    if hint is float:
        hint = int | float
    return isinstance(value, origin or hint) and (hint is bool or not isinstance(value, bool))


def _spec_from_dict(cls, d: dict):
    """A nested spec (cloud, vehicle) with each value coerced to its default's type."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kind = type(f.default)
            if kind is tuple:
                kwargs[f.name] = tuple(type(f.default[0])(x) for x in d[f.name])
            else:
                kwargs[f.name] = kind(d[f.name])
    return cls(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    """JSON-ready form of a run config, as written to ``manifest.json``."""
    return _plain(config)


def config_from_dict(d: dict) -> RunConfig:
    """Inverse of :func:`config_to_dict`; absent keys keep the dataclass defaults.

    Values other than nested specs and orientation angles are not coerced.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    hints = get_type_hints(RunConfig)
    kwargs = {}
    try:
        for name, value in d.items():
            if isinstance(value, dict) and is_dataclass(defaults[name]):
                value = _spec_from_dict(type(defaults[name]), value)
            elif name == "orientations" and value is not None:
                value = {Side(k): tuple(float(a) for a in v) for k, v in value.items()}
            elif not _has_type(value, hints[name]):
                hint = hints[name]
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None
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
    """Candidates and coverage of one side (cached when ``cache_dir`` is set)."""
    grid = PlacementGrid(side, config.grid[0], config.grid[1], config.side_orientations(side))
    configs = enumerate_configs(catalog, config.vehicle, grid)
    side_cloud = cloud.side_cloud(side)
    if config.cache_dir:
        data = cached_coverage(side_cloud, configs, catalog, config.cache_dir)
    else:
        data = build_coverage(side_cloud, configs, catalog)
    return data


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


def _write_selections(path: Path, reports: dict[str, AggregateReport]) -> None:
    doc = {}
    for solver, report in sorted(reports.items()):
        doc[solver] = {
            side.value: None if r is None else {
                "selected": list(r.selected),
                "coverage": r.coverage,
                "cost": r.cost,
                "objective": r.objective,
                "solver_tag": r.solver_tag,
                "feasible": r.feasible,
                "seed": r.seed,
                "configs": [c.to_dict() for c in r.configs],
            }
            for side, r in report.per_side.items()
        }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_selections(path) -> dict[str, dict[Side, SelectionResult | None]]:
    """Per-solver, per-side selections of ``selections.json``; an unsolved side is None."""
    doc = json.loads(Path(path).read_text())
    out: dict[str, dict[Side, SelectionResult | None]] = {}
    for solver, sides in doc.items():
        out[solver] = {}
        for side_name, r in sides.items():
            out[solver][Side(side_name)] = None if r is None else SelectionResult(
                selected=tuple(int(i) for i in r["selected"]),
                coverage=float(r["coverage"]),
                cost=float(r["cost"]),
                objective=float(r["objective"]),
                solver_tag=str(r["solver_tag"]),
                feasible=bool(r["feasible"]),
                configs=tuple(SensorConfig.from_dict(c) for c in r["configs"]),
                seed=r.get("seed"),
            )
    return out


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
    reports = {solver: aggregate(per_side, cloud, catalog) for solver, per_side in selections.items()}
    write_aggregate_csv(out / "aggregate.csv", reports)
    write_adherence_csv(out / "adherence.csv", reports)
    _write_selections(out / "selections.json", reports)

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
