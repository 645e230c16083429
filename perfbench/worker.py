"""Runs one workload in a fresh process: warm up, then time rounds of ``run``.

Usage: ``python3 perfbench/worker.py <job.json> <result.json>``.  The
job names the checkout's ``src`` directory, the round configuration,
the warm-up configuration, the run length and whether to trace.  The
process imports ``sensorplace`` from that ``src`` only, runs one small
warm-up round, then runs full rounds until the next one would end past
the run length.  In a traced run, untraced and traced rounds alternate,
so the tracing overhead is the difference of their medians.  The result
file lists every round's wall time and output directory, the process's
peak resident memory and, when traced, each traced round's layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer


def run_config(sensorplace, fields: dict, output_dir: Path):
    """A ``RunConfig`` from a workload dict (lists become tuples)."""
    fields = dict(fields)
    fields["synthetic"] = sensorplace.SyntheticRoiSpec(**fields["synthetic"])
    for key in ("solvers", "grid", "sensor_counts"):
        if key in fields:
            fields[key] = tuple(fields[key])
    return sensorplace.RunConfig(output_dir=str(output_dir), **fields)


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import sensorplace

    if Path(sensorplace.__file__).resolve().parent != src / "sensorplace":
        raise SystemExit(f"imported sensorplace from {sensorplace.__file__}, not from {src}")

    run_dir = Path(job["run_dir"])
    sensorplace.run(run_config(sensorplace, job["warmup"], run_dir / "warmup"))

    rounds = []
    spans = []
    seconds = job["seconds"]
    trace = job["trace"]
    min_rounds = 2 if trace else 1
    t0 = perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        out = run_dir / f"round_{index:03d}"
        config = run_config(sensorplace, job["config"], out)
        tracer = Tracer()
        with tracer.installed(sensorplace) if traced else nullcontext():
            start = perf_counter()
            sensorplace.run(config)
            solve_s = perf_counter() - start
        entry = {"output_dir": str(out), "solve_s": solve_s, "traced": traced}
        if traced:
            entry["layers"] = tracer.summary()
            base = len(spans)   # a span's id is its index in the file
            spans.extend(
                {"round": index, "name": name, "start": start_t, "end": end_t,
                 "parent": None if parent is None else base + parent, "self_s": own}
                for (name, start_t, end_t, parent), own in zip(tracer.spans, tracer.self_times())
            )
        rounds.append(entry)
        elapsed = perf_counter() - t0
        mean = elapsed / len(rounds)
        if len(rounds) >= min_rounds and elapsed + mean > seconds:
            break

    if trace:
        (run_dir / "trace_spans.json").write_text(json.dumps(spans))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    Path(result_path).write_text(json.dumps({
        "rounds": rounds,
        "peak_rss_mb": peak_kb / 1024.0,
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
