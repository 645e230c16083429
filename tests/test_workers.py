"""The (solver, side) sweeps of a run in forked worker processes.

Every output must be byte-identical whether the tasks run in-process or
in a pool, a worker's error must reach the caller with its type, no
worker may outlive its run, each worker must use one OpenBLAS thread, a
run must not fork where the fork would warn, and importing the package
must not import the process machinery.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from sensorplace import pipeline
from sensorplace.geometry import Side, VehicleModel, partition_roi
from sensorplace.pipeline import RunConfig, config_from_dict, run
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi, save_roi

ROOT = Path(__file__).resolve().parents[1]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()


def _log_sweep_pids(monkeypatch, log: Path) -> None:
    """Append the pid of the process that runs each side's sweep to ``log``."""
    sweep = pipeline.sweep_num_sensors

    def logged(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_num_sensors", logged)


def _run_with_workers(config: RunConfig, count: int, monkeypatch, log: Path) -> dict[str, bytes]:
    """Run ``config`` with ``count`` workers; every output file by name."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_worker_count", lambda: count)
        _log_sweep_pids(patch, log)
        run(config)
    assert multiprocessing.active_children() == []
    out = Path(config.output_dir)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _sweep_pids(log: Path) -> set[int]:
    return {int(line) for line in log.read_text().split()}


def _pooled() -> bool:
    """Whether a run may pool here: forking works without a warning and an
    OpenBLAS is found."""
    return hasattr(os, "fork") and not pipeline._fork_warns() and bool(pipeline._openblas_thread_setters())


def _assert_same_outputs(config: RunConfig, tmp_path: Path, monkeypatch) -> dict[str, bytes]:
    outputs = {}
    for count in (1, 2):
        log = tmp_path / f"pids_{count}.txt"
        outputs[count] = _run_with_workers(
            replace(config, output_dir=str(tmp_path / f"w{count}")), count, monkeypatch, log,
        )
        pids = _sweep_pids(log)
        if count == 1 or not _pooled():
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
    assert outputs[1].keys() == outputs[2].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[2][name], name
    return outputs[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_bench_outputs_do_not_depend_on_worker_count(tmp_path, monkeypatch, workload):
    fields = WORKLOADS.workload_config(workload, 1)
    fields.update(dump_samples=True, dump_traces=True)
    config = config_from_dict(fields)
    outputs = _assert_same_outputs(config, tmp_path, monkeypatch)
    assert any(name.startswith(("samples_", "trace_")) for name in outputs)


def _front_only_roi(tmp_path: Path) -> Path:
    """The front points of the default synthetic cloud: three sides are empty."""
    vehicle = VehicleModel()
    cloud = partition_roi(generate_synthetic_roi(SyntheticRoiSpec(), vehicle), vehicle)
    path = tmp_path / "front.csv"
    save_roi(cloud.side_cloud(Side.FRONT), path)
    return path


def test_empty_sides_and_size_limit_rows_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    # the front side leaves 48 variables free: the annealer solves it, the
    # 20-qubit simulator gives its error row; every other side gets n/a rows
    config = RunConfig(
        approach="setcover", solvers=("anneal", "vqe"), roi_path=str(_front_only_roi(tmp_path)),
        synthetic=None, anneal_reads=50, anneal_sweeps=50, dump_samples=True, dump_traces=True,
    )
    outputs = _assert_same_outputs(config, tmp_path, monkeypatch)
    sweep = outputs["sweep.csv"].decode()
    assert sweep.count("EmptyCloudError") == 6 and sweep.count("capped at 20") == 1
    assert [name for name in outputs if name.startswith("samples_")] == ["samples_front.csv"]


def _greedy_config(out: Path) -> RunConfig:
    """Greedy on a 2x2 grid at counts 1 and 2: four tasks of two counts each."""
    return RunConfig(
        solvers=("greedy",), grid=(2, 2), sensor_counts=(1, 2), output_dir=str(out),
        synthetic=SyntheticRoiSpec(extent=6.0, spacing=1.0, profile="inverse_distance(4.0)"),
    )


class _WorkerFailure(Exception):
    """Not a SensorPlaceError: the sweep does not turn it into a row."""


def test_worker_error_reaches_the_caller_with_its_type(tmp_path, monkeypatch):
    def failing(problem):
        raise _WorkerFailure(f"raised in {os.getpid()}")

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    monkeypatch.setattr(pipeline, "solve_greedy", failing)
    with pytest.raises(_WorkerFailure) as info:
        run(_greedy_config(tmp_path / "out"))
    if _pooled():
        assert str(info.value) != f"raised in {os.getpid()}"
    assert multiprocessing.active_children() == []


def _openblas_thread_counts() -> list[int]:
    """The thread count of each OpenBLAS library mapped into this process."""
    getters = (pipeline._openblas_entry(lib, "get_num_threads") for lib in pipeline._openblas_libraries())
    return [getter() for getter in getters if getter is not None]


def test_pooled_task_uses_one_openblas_thread(tmp_path, monkeypatch):
    if not _pooled():
        pytest.skip("runs in-process here: no fork or no OpenBLAS library found")
    setters = pipeline._openblas_thread_setters()
    before = _openblas_thread_counts()
    log = tmp_path / "threads.txt"
    greedy = pipeline.solve_greedy

    def reporting(problem):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {' '.join(map(str, _openblas_thread_counts()))}\n")
        return greedy(problem)

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    monkeypatch.setattr(pipeline, "solve_greedy", reporting)
    for set_num_threads in setters:  # so that the workers' one thread is their own setting
        set_num_threads(2)
    try:
        if pipeline._fork_warns():
            pytest.skip("runs in-process here: a fork with two OpenBLAS threads would warn")
        run(_greedy_config(tmp_path / "out"))
        parent = _openblas_thread_counts()
    finally:
        for set_num_threads, count in zip(setters, before):
            set_num_threads(count)
    lines = [line.split() for line in log.read_text().splitlines()]
    assert len(lines) == 4 * 2  # 4 sides x 2 counts
    assert all(int(pid) != os.getpid() and counts == ["1"] * len(setters) for pid, *counts in lines)
    assert parent == [2] * len(setters)
    assert multiprocessing.active_children() == []


def test_fork_warns_from_python_3_12_with_a_second_thread(monkeypatch):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        warns = {}
        for version in ((3, 11), (3, 12)):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "version_info", version)
                warns[version] = pipeline._fork_warns()
    finally:
        release.set()
        thread.join()
    assert warns == {(3, 11): False, (3, 12): True}


def test_tasks_run_in_process_where_a_fork_would_warn(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    monkeypatch.setattr(pipeline, "_fork_warns", lambda: True)
    log = tmp_path / "pids.txt"
    _log_sweep_pids(monkeypatch, log)
    run(_greedy_config(tmp_path / "out"))
    assert _sweep_pids(log) == {os.getpid()}
    assert multiprocessing.active_children() == []


def test_import_leaves_out_the_process_machinery():
    code = (
        "import sys, sensorplace; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
