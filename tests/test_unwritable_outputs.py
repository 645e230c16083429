"""An output path that cannot be written is an input error.

Each subcommand must exit with status 2 and one ``error: ...`` line
naming the path, with no traceback, and ``solve`` must fail before it
builds any coverage.
"""

from __future__ import annotations

import re

import pytest

from sensorplace import pipeline
from sensorplace.cli import main as cli_main
from sensorplace.errors import ConfigError
from sensorplace.pipeline import RunConfig, run
from sensorplace.plain import make_output_dir, open_output

SMALL = ["--grid", "1x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0"]


def _unwritable(tmp_path, kind: str):
    """A path under a regular file, in a missing directory, or that is a directory."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir(exist_ok=True)
    return {
        "under-file": tmp_path / "file" / "x",
        "missing-dir": tmp_path / "no" / "such" / "x",
        "directory": tmp_path / "dir",
    }[kind]


def _assert_exit_2(argv, path, capsys) -> None:
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot write: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["under-file", "missing-dir", "directory"])
@pytest.mark.parametrize("command", ["gen-roi", "export-lp", "export-qubo"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, kind):
    path = _unwritable(tmp_path, kind)
    options = ["--extent", "6", "--spacing", "1.0"] if command == "gen-roi" else SMALL
    _assert_exit_2([command, *options, "--out", str(path)], path, capsys)


def test_unwritable_solve_outdir_exits_2_before_coverage(tmp_path, capsys, monkeypatch):
    def no_coverage(*args, **kwargs):
        raise AssertionError("coverage built before the output directory was made")

    monkeypatch.setattr(pipeline, "build_coverage", no_coverage)
    path = _unwritable(tmp_path, "under-file") / "sub"
    _assert_exit_2(["solve", *SMALL, "--solver", "greedy", "--outdir", str(path)], path, capsys)


def test_unwritable_report_outdir_exits_2(tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    assert cli_main(["gen-roi", "--extent", "6", "--spacing", "1.0", "--out", str(roi)]) == 0
    solved = tmp_path / "solved"
    argv = ["solve", "--roi", str(roi), "--grid", "1x2", "--solver", "greedy", "--max-sensors", "1"]
    assert cli_main([*argv, "--outdir", str(solved)]) == 0
    capsys.readouterr()
    path = _unwritable(tmp_path, "under-file")
    _assert_exit_2(
        ["report", "--selections", str(solved / "selections.json"), "--roi", str(roi), "--outdir", str(path)],
        path, capsys,
    )


def test_run_raises_config_error_for_an_unwritable_output_dir(tmp_path):
    path = _unwritable(tmp_path, "under-file")
    with pytest.raises(ConfigError, match="cannot write"):
        run(RunConfig(grid=(1, 1), solvers=["greedy"], sensor_counts=[1], output_dir=str(path)))


def test_output_helpers_name_the_path(tmp_path):
    path = _unwritable(tmp_path, "under-file")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot write: "):
        open_output(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot write: "):
        make_output_dir(path)
    make_output_dir(tmp_path / "a" / "b")
    make_output_dir(tmp_path / "a" / "b")  # an existing directory is fine
    with open_output(tmp_path / "a" / "b" / "x.txt") as fh:
        fh.write("ok\n")
    assert (tmp_path / "a" / "b" / "x.txt").read_text() == "ok\n"
