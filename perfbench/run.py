"""Benchmark entry point for sensorplace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fixed-count --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) through ``sensorplace.run`` in a
worker process, checks every round's answers with ``check.py`` and
prints the metrics named in ``BENCHMARK.json``: the end-to-end ones
with ``--trace 0``, the per-layer ones with ``--trace 1``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Child processes run one at a time with one BLAS thread each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 7
DEADLINE_S = 170.0      # the whole benchmark process must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)   # the children put the checkout's src first themselves
    return env


def measure_setup(src: Path, config: dict, env: dict) -> list[float]:
    """Wall times of fresh interpreters that import and build the coverage."""
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), json.dumps(config)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        times.append(perf_counter() - start)
    return times


def run_worker(job: dict, run_dir: Path, env: dict, timeout: float) -> dict:
    job_path, result_path = run_dir / "job.json", run_dir / "result.json"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=env, check=True, timeout=timeout, cwd=HERE,
    )
    return json.loads(result_path.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_rounds(config: dict, rounds: list[dict]) -> tuple[int, int, list[str], list[float]]:
    """Check every round; returns attempted, failed, errors, vehicle coverages."""
    instance = check.Instance(config)
    attempted = failed = 0
    errors: list[str] = []
    coverage: list[float] = []
    first_sweep = None
    for r in rounds:
        out = Path(r["output_dir"])
        verdict = check.check_round(instance, check.load_outputs(out))
        attempted += len(verdict.operations)
        failed += verdict.failed
        for reason in verdict.reasons():
            print(f"check {out.name}: {reason}")
        errors += verdict.errors
        sweep = (out / "sweep.csv").read_bytes()
        if first_sweep is None:
            first_sweep = sweep
            coverage = [verdict.vehicle_coverage.get(s, 0.0) for s in config["solvers"]]
        elif sweep != first_sweep:
            errors.append(f"{out.name}: sweep.csv differs from the first round of the same config")
    return attempted, failed, errors, coverage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "sensorplace" / "__init__.py").is_file():
        print(f"no sensorplace sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    config = workloads.workload_config(args.workload, args.seed)
    run_dir = HERE / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = _child_env()

    values: dict[str, float] = {}
    if not args.trace:
        setup = measure_setup(src, config, env)
        values["setup_s"] = statistics.median(setup)
        print(f"setup_s samples ({len(setup)} fresh interpreters): "
              + " ".join(f"{t:.3f}" for t in setup))

    job = {
        "src": str(src),
        "run_dir": str(run_dir),
        "config": config,
        "warmup": workloads.warmup_config(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    result = run_worker(job, run_dir, env, DEADLINE_S - (perf_counter() - started))
    rounds = result["rounds"]
    attempted, failed, errors, coverage = check_rounds(config, rounds)

    plain = [r["solve_s"] for r in rounds if not r["traced"]]
    q1, q2, q3 = quartiles(plain)
    print(f"solve_s over {len(plain)} untraced rounds: median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f}")
    if args.trace:
        ks = workloads.WORKLOADS["fixed-count"]["sensor_counts"]
        traced = [r for r in rounds if r["traced"]]
        per_round = [tracing.layer_metrics(r["layers"], ks, r["solve_s"], q2) for r in traced]
        for name in per_round[0]:
            values[name] = statistics.median(m[name] for m in per_round)
        last = traced[-1]["layers"]
        print(f"spans of the last traced round ({traced[-1]['solve_s']:.4f} s):")
        print(f"  {'span':34s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name in sorted(last["span_total_s"]):
            print(f"  {name:34s} {last['span_calls'][name]:7d} "
                  f"{last['span_total_s'][name]:10.4f} {last['span_self_s'][name]:10.4f}")
        for name, c in sorted(last["counters"].items()):
            print(f"  {name:34s} {c['calls']:7d} {c['total_s']:10.4f}   (counted)")
    else:
        values["solve_s"] = q2
        values["peak_rss_mb"] = result["peak_rss_mb"]
        values["vehicle_coverage.min"] = min(coverage)
        values["vehicle_coverage.mean"] = statistics.fmean(coverage)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"operations attempted {attempted}, failed {failed}, whole-run errors {len(errors)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
