"""Command-line entry point.

Subcommands: ``gen-roi`` (synthetic cloud to CSV), ``solve`` (full
pipeline), ``report`` (re-aggregate stored selections), ``export-lp``
and ``export-qubo`` (one side's model file for external solvers).
Every subcommand turns its flags into a :class:`RunConfig` the same way
and resolves its instance through the pipeline; ``solve`` and the
exports apply the same input checks before any compute.  Flags take
their defaults from the dataclasses, and comma-separated angle and
height lists become floats where the flags are read; when ``--config``
names a YAML file its values override the flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .errors import ConfigError, SensorPlaceError
from .exports import write_fixed_count_lp, write_iqp_lp, write_qubo_coo
from .fixed_count import make_problem
from .geometry import Side, SIDE_ORDER, VehicleModel
from .pipeline import (
    APPROACH_SOLVERS,
    RunConfig,
    _prepare_side,
    _resolve_catalog,
    _resolve_cloud,
    config_from_dict,
    load_selections,
    run,
    validate_inputs,
    write_reports,
)
from .plain import open_output
from .roi import SyntheticRoiSpec, generate_synthetic_roi, load_yaml, save_roi
from .setcover import build_iqp

#: Every flag default is read from here, so none is written twice.
_DEFAULTS = RunConfig()


def _add_spec_args(p: argparse.ArgumentParser, spec: str, names, flag_prefix: str) -> None:
    """One flag per named field of the nested ``RunConfig`` spec, typed by its default."""
    for name in names:
        default = getattr(getattr(_DEFAULTS, spec), name)
        p.add_argument(
            f"--{flag_prefix}{name}", dest=f"{spec}_{name}", metavar=name.upper(),
            type=type(default), default=default,
        )


def _add_vehicle_args(p: argparse.ArgumentParser) -> None:
    _add_spec_args(p, "vehicle", ("length", "width", "height"), "vehicle-")


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    _add_vehicle_args(p)
    p.add_argument("--roi", dest="roi_path", help="cloud CSV (x,y,z,criticality)")
    _add_spec_args(p, "synthetic", ("extent", "spacing", "profile", "seed"), "synthetic-")
    p.add_argument("--catalog", dest="catalog_path", help="sensor catalog YAML (default: built-in four types)")
    p.add_argument("--grid", default="x".join(map(str, _DEFAULTS.grid)), help="per-side grid as HxV, e.g. 4x4")
    p.add_argument(
        "--orientations",
        dest="orientation_mode",
        metavar="MODE",
        default=_DEFAULTS.orientation_mode,
        help="'fixed' (perpendicular only), 'free' (per-side angle sets), or comma-separated "
        "degrees for every side",
    )
    p.add_argument("--coverage-weight", type=float, default=_DEFAULTS.coverage_weight)
    p.add_argument("--cost-weight", type=float, default=_DEFAULTS.cost_weight)


def _parse_grid(text: str) -> tuple[int, int]:
    h, sep, v = text.lower().partition("x")
    if not (sep and h.isdecimal() and v.isdecimal()):
        raise ConfigError(f"--grid expects two counts as HxV, e.g. 4x4; got {text!r}")
    return int(h), int(v)


def _parse_floats(flag: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers; got {text!r}") from None


def _flag_values(args, cls, prefix: str = "") -> dict:
    """Parsed flags whose destination is ``prefix`` plus a field name of ``cls``."""
    values = {f.name: getattr(args, prefix + f.name, None) for f in fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _run_config(args) -> RunConfig:
    """The ``RunConfig`` of the flags; absent flags keep the dataclass defaults.

    Values of a ``--config`` YAML file override the flags, a nested spec
    map only the fields it names (:func:`config_from_dict`).  An angle
    list given to ``--orientations`` applies to every side.  A file that
    names ``orientation_mode`` replaces a flag-given angle list, and one
    that names ``roi_path`` or ``synthetic`` decides the cloud source: the
    key it leaves out is None.
    """
    values = _flag_values(args, RunConfig)
    values["vehicle"] = _flag_values(args, VehicleModel, "vehicle_")
    values["synthetic"] = (
        None if "roi_path" in values else _flag_values(args, SyntheticRoiSpec, "synthetic_")
    )
    if "grid" in values:
        values["grid"] = _parse_grid(values["grid"])
    if "z_levels" in (values["synthetic"] or {}):
        values["synthetic"]["z_levels"] = _parse_floats("--z-levels", values["synthetic"]["z_levels"])
    if values.get("orientation_mode") not in (None, "fixed", "free"):
        angles = _parse_floats("--orientations", values.pop("orientation_mode"))
        values["orientations"] = {side.value: angles for side in SIDE_ORDER}
    if hasattr(args, "min_sensors"):
        values["sensor_counts"] = list(range(args.min_sensors, args.max_sensors + 1))
    config = config_from_dict(values)
    if not getattr(args, "config", None):
        return config
    doc = load_yaml(args.config) or {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: expected a mapping of run-config fields")
    cleared = {"orientations": None} if "orientation_mode" in doc else {}
    if "roi_path" in doc or "synthetic" in doc:
        cleared.update(roi_path=None, synthetic=None)
    return config_from_dict({**cleared, **doc}, base=config)


def _side_instance(args):
    """(config, catalog, coverage data) of the ``--side`` face, built by the pipeline."""
    config = _run_config(args)
    validate_inputs(config)
    catalog = _resolve_catalog(config)
    data = _prepare_side(config, _resolve_cloud(config), catalog, Side(args.side))
    return config, catalog, data


def _cmd_gen_roi(args) -> int:
    config = _run_config(args)
    cloud = generate_synthetic_roi(config.synthetic, config.vehicle)
    save_roi(cloud, args.out)
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    outputs = run(_run_config(args))
    for solver, report in sorted(outputs.reports.items()):
        print(
            f"{solver}: aggregate coverage {report.aggregate_coverage:.4f}, "
            f"total cost {report.total_cost:g}"
        )
    print(f"reports written to {outputs.output_dir}")
    return 0


def _cmd_report(args) -> int:
    config = _run_config(args)
    selections = load_selections(args.selections)
    out = Path(config.output_dir)
    reports = write_reports(selections, _resolve_cloud(config), _resolve_catalog(config), out)
    print(f"re-aggregated {len(reports)} solver reports into {out}")
    return 0


def _cmd_export_lp(args) -> int:
    config, catalog, data = _side_instance(args)
    weights = dict(coverage_weight=config.coverage_weight, cost_weight=config.cost_weight)
    if config.approach == "fixed_count":
        try:
            problem = make_problem(data, catalog, num_sensors=args.num_sensors, **weights)
        except ValueError as exc:
            raise ConfigError(f"--num-sensors: {exc}") from None
        write = partial(write_fixed_count_lp, problem=problem)
    else:
        problem = make_problem(data, catalog, None, **weights)
        write = partial(write_iqp_lp, model=build_iqp(data, catalog, **weights), problem=problem)
    with open_output(args.out) as fh:
        write(fh)
    print(f"wrote {config.approach} LP model to {args.out}")
    return 0


def _cmd_export_qubo(args) -> int:
    config, catalog, data = _side_instance(args)
    model = build_iqp(
        data, catalog, coverage_weight=config.coverage_weight, cost_weight=config.cost_weight
    )
    with open_output(args.out) as fh:
        write_qubo_coo(fh, model)
    print(f"wrote QUBO ({model.num_variables} variables) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorplace",
        description="Optimize sensor placement on a vehicle surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-roi", help="generate a synthetic region-of-interest CSV")
    _add_vehicle_args(p)
    p.add_argument("--out", required=True)
    _add_spec_args(p, "synthetic", ("extent", "spacing", "profile", "seed"), "")
    p.add_argument(
        "--z-levels", dest="synthetic_z_levels",
        default=",".join(map(str, _DEFAULTS.synthetic.z_levels)), help="comma-separated heights",
    )
    p.set_defaults(fn=_cmd_gen_roi)

    p = sub.add_parser("solve", help="run the full pipeline over all sides")
    _add_instance_args(p)
    p.add_argument("--config", help="YAML run config; file values override flags")
    p.add_argument("--approach", default=_DEFAULTS.approach, choices=list(APPROACH_SOLVERS))
    p.add_argument(
        "--solver", dest="solvers", metavar="SOLVER", action="append",
        help="repeatable; " + ", ".join(f"{a}: {'/'.join(s)}" for a, s in APPROACH_SOLVERS.items()),
    )
    p.add_argument("--min-sensors", type=int, default=min(_DEFAULTS.sensor_counts))
    p.add_argument("--max-sensors", type=int, default=max(_DEFAULTS.sensor_counts))
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument(
        "--runs", dest="num_stochastic_runs", type=int,
        default=_DEFAULTS.num_stochastic_runs, help="stochastic-solver repetitions",
    )
    for name in ("shots", "anneal_reads", "anneal_sweeps", "vqe_layers", "vqe_max_evals"):
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(_DEFAULTS, name))
    p.add_argument("--outdir", dest="output_dir", default=_DEFAULTS.output_dir)
    p.add_argument("--dump-samples", action="store_true")
    p.add_argument("--dump-traces", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("report", help="recompute aggregate and adherence from stored selections")
    _add_vehicle_args(p)
    p.add_argument("--selections", required=True, help="selections.json written by solve")
    p.add_argument("--roi", dest="roi_path", required=True)
    p.add_argument("--catalog", dest="catalog_path")
    p.add_argument("--outdir", dest="output_dir", default="runs/report")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("export-lp", help="write an LP model file")
    _add_instance_args(p)
    p.add_argument("--side", default="front", choices=[s.value for s in SIDE_ORDER])
    p.add_argument("--approach", default=_DEFAULTS.approach, choices=list(APPROACH_SOLVERS))
    p.add_argument("--num-sensors", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_lp)

    p = sub.add_parser("export-qubo", help="write the QUBO in coordinate text format")
    _add_instance_args(p)
    p.add_argument("--side", default="front", choices=[s.value for s in SIDE_ORDER])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_qubo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SensorPlaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
