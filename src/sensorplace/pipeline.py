"""End-to-end orchestration: configuration, per-side solving, reporting.

A run resolves its cloud (file or synthetic), partitions it into the
four side sub-problems, precomputes coverage per side, applies the
selected approach and solvers, and aggregates per-side winners into
whole-vehicle reports.  Everything is seeded: per-task seeds derive
from the base seed and the task coordinates by hashing, so repeated
runs with the same configuration produce byte-identical CSV output.

Sides are independent sub-problems that share nothing except immutable
inputs, so each (solver, side) sweep is one task, done whole by one
function, :func:`_solve_side`, and :func:`run` solves the tasks in forked
worker processes, one per CPU it may run on.  The tasks write nothing:
they hand back their selections, sweep rows, annealer samples and VQE
traces, and the parent writes every file in task order, so the outputs
do not depend on the number of workers.

A :class:`RunConfig` and the per-side selections are written in their
plain form (``manifest.json``, ``selections.json``) and read back
through the typed reader of :mod:`sensorplace.plain`, which also
decodes the nested specs and orientation map of a ``--config`` file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .annealer import AnnealSchedule, SampleSet, anneal, best_selection, scaled_schedule
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
from .plain import _from_plain, _has_type, _plain, make_output_dir, open_output
from .reporting import (
    AggregateReport,
    RunStats,
    SweepRow,
    aggregate,
    best_run,
    drop_worst_and_summarize,
    write_adherence_csv,
    write_aggregate_csv,
    write_samples_csv,
    write_sweep_csv,
    write_trace_csv,
)
from .roi import SyntheticRoiSpec, generate_synthetic_roi, load_catalog, load_roi, read_input, synthetic_grid_shape
from .setcover import build_iqp, fix_persistent, solve_exhaustive_qubo, to_ising
from .vqe import AnsatzSpec, EncodingMap, OptimizerConfig, basis_energies, vqe_fixed_count, vqe_ising

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

#: Most candidates one side may have: 16 times the 256 of a 4x4 grid with
#: free orientations.  Each of its overlap products holds 4096^2 doubles
#: (128 MiB).
MAX_CANDIDATES = 4096


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
        """Candidate angles of one side; :func:`validate_inputs` checks the mode."""
        if self.orientations is not None:
            return self.orientations.get(side, ())
        return DEFAULT_FREE_ORIENTATIONS[side] if self.orientation_mode == "free" else (0.0,)


def validate_inputs(config: RunConfig) -> None:
    """Reject, before any compute, mistyped values, invalid pairings,
    repeated solvers or counts, oversized synthetic grids, invalid solver
    settings, a side whose :class:`PlacementGrid` rejects the grid or its
    angles, sides of more than :data:`MAX_CANDIDATES` candidates, and
    weights that could overflow a side's model.  A solver's own size limit
    is left to its module: a side beyond it gets an error row."""
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
    # a repeated solver or count would solve again and write its rows twice
    for name, values in (("solvers", config.solvers), ("sensor_counts", config.sensor_counts)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ConfigError(f"{name} lists {repeated!r} more than once")
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
    if not all(0.0 <= w < np.inf for w in (config.coverage_weight, config.cost_weight)):
        raise ConfigError("coverage_weight and cost_weight must be finite and non-negative")
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
    if config.orientation_mode not in ("fixed", "free"):
        raise ConfigError(f"orientation_mode must be 'fixed' or 'free', got {config.orientation_mode!r}")
    for side in SIDE_ORDER:
        try:
            PlacementGrid(side, *config.grid, config.side_orientations(side))
        except ValueError as exc:
            raise ConfigError(f"side {side.value} {exc}") from None
    catalog = _resolve_catalog(config)
    h, v = config.grid
    candidates = h * v * len(catalog) * max(len(config.side_orientations(s)) for s in SIDE_ORDER)
    if candidates > MAX_CANDIDATES:
        raise ConfigError(
            f"a side of {candidates} candidates exceeds the limit of {MAX_CANDIDATES}; "
            "shrink the grid, catalog or orientation sets"
        )
    # every coefficient, energy and partial sum of a side's model over N
    # candidates is at most 2 N (N coverage_weight + max_cost cost_weight);
    # a quarter of the float range leaves room for the annealer's factor 2
    max_cost = max(spec.cost for spec in catalog)
    if not candidates * (candidates * config.coverage_weight + max_cost * config.cost_weight) \
            <= np.finfo(float).max / 4:
        raise ConfigError(
            f"coverage_weight={config.coverage_weight!r} and cost_weight={config.cost_weight!r} "
            f"would overflow a model of {candidates} candidates costing up to {max_cost:g}"
        )


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from the base seed and task coordinates."""
    h = hashlib.sha256(repr((base,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def config_to_dict(config: RunConfig) -> dict:
    """JSON-ready form of a run config, as written to ``manifest.json``."""
    return _plain(config)


def config_from_dict(d: dict, base: RunConfig = RunConfig()) -> RunConfig:
    """Inverse of :func:`config_to_dict`; absent keys keep the values of ``base``.

    A nested ``synthetic`` or ``vehicle`` map overrides the fields it
    names of ``base``'s spec, or of the dataclass default where that spec
    is None, and it and an ``orientations`` map decode through
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
                spec = default if getattr(base, name) is None else getattr(base, name)
                value = _from_plain({**_plain(spec), **value}, type(default))
            elif name == "orientations" and isinstance(value, dict):
                value = _from_plain(value, hints[name])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return replace(base, **kwargs)


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


def _solve_side(config: RunConfig, solver: str, side: Side, data: CoverageData, catalog):
    """One task of :func:`run`: a solver's sweep of one side.

    ``fixed_count`` sweeps ``sensor_counts``; ``setcover`` sweeps the single
    free count None, where every solver sees only the variables that
    :func:`fix_persistent` leaves free and its answer is mapped back to
    the side's candidates (a side with none left gets the fixed bits).
    Returns the side's best selection (None when every count failed), its
    sweep rows and the annealer samples and VQE traces it recorded (file
    name -> content).  It writes nothing, so it runs alike in a worker
    process and in-process.
    """
    problem = make_problem(data, catalog, None, config.coverage_weight, config.cost_weight)
    stats: dict[int | None, RunStats] = {}
    files: dict[str, SampleSet | list] = {}

    def vqe_runs(k, vqe, *args, **kwargs) -> SelectionResult:
        """Best of the seeded runs ``vqe(*args, **kwargs)`` of count ``k``;
        records their statistics as ``stats[k]`` and, with ``dump_traces``,
        their traces."""
        if k is None:
            tag, coords, stem = "vqe_ising", (side.value,), f"trace_vqe_{side.value}"
        else:
            tag, coords, stem = "vqe_fc", (side.value, k), f"trace_vqe_{side.value}_k{k}"
        optimizer = OptimizerConfig(max_evals=config.vqe_max_evals)
        runs = []
        for i in range(config.num_stochastic_runs):
            vqe_run = vqe(*args, num_layers=config.vqe_layers, optimizer=optimizer,
                          seed=derive_seed(config.seed, tag, *coords, i), **kwargs)
            runs.append(vqe_run.result)
            if config.dump_traces:
                files[f"{stem}_r{i}.csv"] = vqe_run.trace
        _, stats[k] = drop_worst_and_summarize(runs)
        return best_run(runs)

    if config.approach == "fixed_count":
        counts = config.sensor_counts
        if solver == "exhaustive":
            fn = solve_exhaustive
        elif solver == "greedy":
            fn = solve_greedy
        else:  # vqe: the best of the seeded runs is the count's result
            encoding = EncodingMap(
                config.grid[0], config.grid[1], len(catalog), len(config.side_orientations(side)),
            )

            def fn(prob_k):
                return vqe_runs(prob_k.num_sensors, vqe_fixed_count, prob_k, encoding, shots=config.shots)
    else:
        counts = (None,)
        reduced, kept, fixed = fix_persistent(
            build_iqp(data, catalog, config.coverage_weight, config.cost_weight)
        )

        def fn(free):
            tag = {"exhaustive": "exhaustive_qubo", "anneal": "anneal", "vqe": "vqe_ising"}[solver]
            if not kept.size:
                return evaluate_bits(fixed, free, tag)
            if solver == "exhaustive":
                bits = fixed.copy()
                bits[kept], _energy = solve_exhaustive_qubo(reduced)
                return evaluate_bits(bits, free, tag)
            ising = to_ising(reduced)
            if solver == "anneal":
                schedule = scaled_schedule(
                    ising, num_reads=config.anneal_reads, sweeps_per_read=config.anneal_sweeps,
                    seed=derive_seed(config.seed, "anneal", side.value),
                )
                samples = anneal(ising, schedule)
                # the settled bits are the same in every sample, so the order stays
                bits = np.tile(fixed, (len(samples), 1))
                bits[:, kept] = samples.assignments
                samples = SampleSet(bits, samples.energies, samples.multiplicities)
                if config.dump_samples:
                    files[f"samples_{side.value}.csv"] = samples
                return best_selection(samples, free, seed=schedule.seed)
            energies = basis_energies(ising)  # shared by every run on this side
            return vqe_runs(None, vqe_ising, ising, free, energies=energies, kept=kept, fixed=fixed)

    # a SensorPlaceError, a size limit included, becomes its count's row
    outcome = sweep_num_sensors(problem, counts, solver=fn)
    rows = [
        SweepRow(side, e.num_sensors if e.result is None else len(e.result.selected), solver,
                 e.result, stats.get(e.num_sensors), e.error)
        for e in outcome.entries
    ]
    return outcome.best, rows, files


def _worker_count() -> int:
    """Worker processes a run may use: one per CPU in this process's
    affinity mask, so ``taskset -c 0`` solves in-process; 1 where the
    platform has no affinity mask or no ``fork``."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_warns() -> bool:
    """Whether a fork now would warn: Python 3.12 and later do when the
    process runs more than one OS thread, and OpenBLAS starts a pool of
    threads when it is loaded (one per CPU unless ``OPENBLAS_NUM_THREADS``
    says otherwise)."""
    if sys.version_info < (3, 12):
        return False
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:  # no per-thread listing: assume threads
        return True


def _openblas_libraries() -> list:
    """A ctypes handle on every OpenBLAS library mapped into this process:
    numpy's, and scipy's once scipy.linalg is imported."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            # a line's sixth field, when present, is the mapped file's path
            mappings = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({
        m[5].strip() for m in mappings if len(m) == 6 and "openblas" in m[5].rpartition("/")[2]
    })
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:  # a file replaced since it was mapped
            pass
    return libraries


def _openblas_entry(library, name: str):
    """``openblas_<name>`` of one OpenBLAS library under whichever symbol
    its build exports (numpy's wheels prefix ``scipy_`` and, for 64-bit
    integers, suffix ``64_``), or None."""
    for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                   f"scipy_openblas_{name}", f"scipy_openblas_{name}64_"):
        if hasattr(library, symbol):
            return getattr(library, symbol)
    return None


def _openblas_thread_setters() -> list:
    """``openblas_set_num_threads`` of every OpenBLAS library in this process."""
    entries = (_openblas_entry(library, "set_num_threads") for library in _openblas_libraries())
    return [entry for entry in entries if entry is not None]


def _one_blas_thread(setters) -> None:
    """Worker initializer: one OpenBLAS thread per worker.  The workers
    already keep every CPU busy, and an OpenBLAS that splits each small
    product across threads then waits for a CPU another worker holds."""
    for set_num_threads in setters:
        set_num_threads(1)


def _solve_sides(config: RunConfig, tasks, sides: dict[Side, CoverageData], catalog) -> list:
    """:func:`_solve_side`, the one task function, of every (solver, side) task, in order.

    The tasks run in a pool of forked worker processes, at most one per
    task and per CPU (:func:`_worker_count`), each with one OpenBLAS
    thread.  With one worker, where no OpenBLAS library is found, or where
    a fork would warn (:func:`_fork_warns`), they run in-process, in
    order.  A forked worker sees this module's globals as they were at
    fork time, and a task looks each solver up among them when it calls
    it, so a wrapper installed before the run applies in the workers too;
    what such a wrapper keeps in memory stays in the worker, so a tracer
    that must see every call runs the process on one CPU.
    """
    workers = min(_worker_count(), len(tasks))
    args = [(config, solver, side, sides[side], catalog) for solver, side in tasks]
    if workers > 1 and "vqe" in config.solvers:
        # imported once before forking, not once per worker and run
        import scipy.optimize  # noqa: F401
    setters = _openblas_thread_setters() if workers > 1 and not _fork_warns() else []
    if not setters:
        return [_solve_side(*a) for a in args]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread, initargs=(setters,),
    )
    try:
        futures = [pool.submit(_solve_side, *a) for a in args]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def load_selections(path) -> dict[str, dict[Side, SelectionResult | None]]:
    """Per-solver, per-side selections of ``selections.json``; an unsolved side
    is None.  A file that is not JSON of that shape raises ConfigError naming it."""
    try:
        return _from_plain(json.loads(read_input(path)), dict[str, dict[Side, SelectionResult | None]])
    except ValueError as exc:  # invalid JSON included
        raise ConfigError(f"{path}: {exc}") from None


def write_reports(selections, cloud: RoiCloud, catalog, out: Path) -> dict[str, AggregateReport]:
    """Make ``out``, then aggregate each solver's per-side selections over
    the full cloud and write ``aggregate.csv`` and ``adherence.csv`` into it."""
    make_output_dir(out)
    reports = {solver: aggregate(per_side, cloud, catalog) for solver, per_side in selections.items()}
    write_aggregate_csv(out / "aggregate.csv", reports)
    write_adherence_csv(out / "adherence.csv", reports)
    return reports


@functools.cache
def _scipy_version() -> str:
    """The installed scipy release, on which COBYLA's answers depend, read
    from its metadata: without importing scipy, and once per process, since
    a lookup scans the import path and importing ``importlib.metadata``
    takes longer still (about 5 ms and 30 ms on a 2-vCPU Xeon)."""
    from importlib import metadata

    return metadata.version("scipy")


def run(config: RunConfig) -> RunOutputs:
    """Execute the full pipeline and write the report files.

    Emits ``sweep.csv``, ``aggregate.csv``, ``adherence.csv``,
    ``selections.json`` and ``manifest.json`` into ``output_dir``.
    A side without coverable points gets one ``n/a`` sweep row per solver,
    and a side whose every sensor count fails, a solver's size limit
    included, keeps its per-count error rows; either gets a null
    selection.  The run fails, after writing ``sweep.csv``, only when no
    solver produced a selection on any side, quoting the first error row.
    Deterministic: identical configurations yield byte-identical CSVs.
    """
    validate_inputs(config)
    out = Path(config.output_dir)
    make_output_dir(out)

    catalog = _resolve_catalog(config)
    cloud = _resolve_cloud(config)
    sides: dict[Side, CoverageData] = {}
    empty: dict[Side, str] = {}
    for side in SIDE_ORDER:
        try:
            sides[side] = _prepare_side(config, cloud, catalog, side)
        except EmptyCloudError as exc:
            empty[side] = f"{type(exc).__name__}: {exc}"

    tasks = [(solver, side) for solver in config.solvers for side in SIDE_ORDER if side not in empty]
    solved = dict(zip(tasks, _solve_sides(config, tasks, sides, catalog)))
    selections: dict[str, dict[Side, SelectionResult | None]] = {}
    sweep_rows: list[SweepRow] = []
    for solver in config.solvers:
        per_side = selections[solver] = {}
        for side in SIDE_ORDER:
            if side in empty:
                per_side[side] = None
                sweep_rows.append(SweepRow(side, None, solver, None, error=empty[side]))
                continue
            per_side[side], rows, files = solved[solver, side]
            sweep_rows.extend(rows)
            for name, content in files.items():
                write = write_samples_csv if isinstance(content, SampleSet) else write_trace_csv
                write(out / name, content)

    write_sweep_csv(out / "sweep.csv", sweep_rows)
    if all(r is None for per_side in selections.values() for r in per_side.values()):
        first = next(row for row in sweep_rows if row.error)
        raise InfeasibleError(
            f"no solver produced a selection on any side ({out / 'sweep.csv'}); "
            f"{first.side.value} {first.solver}: {first.error}"
        )
    reports = write_reports(selections, cloud, catalog, out)
    doc = {solver: _plain(report.per_side) for solver, report in reports.items()}
    with open_output(out / "selections.json") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))

    resolved = config_to_dict(config)
    resolved.pop("output_dir")  # not semantic: it is where this manifest lives
    manifest = {
        "config": resolved,
        "config_hash": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode()
        ).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": _scipy_version(),
    }
    manifest_path = out / "manifest.json"
    with open_output(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))

    return RunOutputs(reports=reports, sweep_rows=sweep_rows, output_dir=out, manifest_path=manifest_path)
