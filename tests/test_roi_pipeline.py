"""Cloud file IO, synthetic generation, run configuration, full pipeline."""

from __future__ import annotations

import csv
import json
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from sensorplace import pipeline, roi
from sensorplace.cli import _run_config, build_parser, main as cli_main
from sensorplace.errors import ConfigError, EmptyFileError, RoiParseError
from sensorplace.geometry import DEFAULT_CATALOG, Side, VehicleModel
from sensorplace.pipeline import (
    DEFAULT_FREE_ORIENTATIONS,
    RunConfig,
    config_from_dict,
    config_to_dict,
    derive_seed,
    load_selections,
    run,
    validate_config,
)
from sensorplace.roi import (
    SyntheticRoiSpec,
    generate_synthetic_roi,
    load_catalog,
    load_roi,
    parse_profile,
    save_catalog,
    save_roi,
)

from conftest import random_cloud


class TestRoiFileIo:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 80, exact=False)
        path = tmp_path / "roi.csv"
        save_roi(cloud, path)
        loaded = load_roi(path)
        assert np.array_equal(loaded.points, cloud.points)
        assert np.array_equal(loaded.criticality, cloud.criticality)

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("x,y,z,criticality\n1,2,3,0.5\n4,5,6,0.25\n7,8,9,1.0\n")
        cloud = load_roi(path)
        assert len(cloud) == 3

    def test_criticality_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "roi.csv"
        rows = ["x,y,z,criticality"] + ["1,2,3,0.5"] * 5 + ["1,2,3,1.5"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RoiParseError) as err:
            load_roi(path)
        assert err.value.line == 7

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("x,y,z,criticality\n1,2,3,0.5\n1,2,oops,0.5\n")
        with pytest.raises(RoiParseError) as err:
            load_roi(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, value):
        path = tmp_path / "roi.csv"
        path.write_text(f"x,y,z,criticality\n1,2,3,0.5\n1,{value},3,0.5\n")
        with pytest.raises(RoiParseError) as err:
            load_roi(path)
        assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("a,b,c,d\n1,2,3,0.5\n")
        with pytest.raises(RoiParseError):
            load_roi(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("x,y,z,criticality\n")
        with pytest.raises(EmptyFileError):
            load_roi(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(ConfigError, match="missing.csv"):
            load_roi(path)


class TestCatalogIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.yaml"
        save_catalog(DEFAULT_CATALOG, path)
        loaded = load_catalog(path)
        assert loaded == DEFAULT_CATALOG

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "catalog.yaml"
        path.write_text("nothing: here\n")
        with pytest.raises(ConfigError):
            load_catalog(path)

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "sensors: [\n",
            "sensors: [{name: a}]\n",
            "sensors: [{name: a, alpha_h: wide, alpha_v: 40, range: 120, cost: 200}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: [1], cost: 200}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: -1, cost: 200}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: .nan, cost: 200}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: 120, cost: .nan}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: 120, cost: .inf}]\n",
            "sensors: [lidar]\n",
            "sensors: [{name: 5, alpha_h: 80, alpha_v: 40, range: 120, cost: 200}]\n",
            "sensors: [{name: a, alpha_h: \"80\", alpha_v: 40, range: 120, cost: 200}]\n",
            "sensors: [{name: a, alpha_h: 80, alpha_v: 40, range: 120, cost: 200, colour: red}]\n",
        ],
        ids=["missing-file", "bad-yaml", "missing-fields", "non-numeric", "list-value",
             "out-of-range", "nan-range", "nan-cost", "inf-cost", "not-a-mapping",
             "numeric-name", "string-number", "unknown-key"],
    )
    def test_file_and_entry_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "catalog.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match="catalog.yaml"):
            load_catalog(path)


class TestSyntheticRoi:
    def test_count_by_construction(self):
        # ring of grid cells minus the vehicle footprint at one z level
        veh = VehicleModel(length=4.0, width=2.0, height=1.5)
        spec = SyntheticRoiSpec(extent=3.0, spacing=1.0, profile="uniform(1.0)", z_levels=(2.0,))
        cloud = generate_synthetic_roi(spec, veh)
        nx = round((4.0 + 6.0) / 1.0)
        ny = round((2.0 + 6.0) / 1.0)
        assert len(cloud) == nx * ny  # z=2 sits above the box: nothing excluded
        low = SyntheticRoiSpec(extent=3.0, spacing=1.0, profile="uniform(1.0)", z_levels=(0.5,))
        cloud_low = generate_synthetic_roi(low, veh)
        inside = veh.contains(
            np.column_stack(
                [
                    np.repeat((np.arange(nx) + 0.5) * 1.0 - 5.0, ny),
                    np.tile((np.arange(ny) + 0.5) * 1.0 - 4.0, nx),
                    np.full(nx * ny, 0.5),
                ]
            )
        )
        assert len(cloud_low) == nx * ny - int(inside.sum())

    def test_uniform_profile(self):
        spec = SyntheticRoiSpec(extent=4.0, spacing=1.0, profile="uniform(0.75)")
        cloud = generate_synthetic_roi(spec)
        assert np.all(cloud.criticality == 0.75)

    def test_inverse_distance_decays(self):
        spec = SyntheticRoiSpec(extent=10.0, spacing=0.5, profile="inverse_distance(2.0)")
        cloud = generate_synthetic_roi(spec)
        d_near = np.abs(cloud.points[:, 0]).min()
        near = cloud.criticality[np.abs(cloud.points[:, 0]).argmin()]
        far = cloud.criticality[np.abs(cloud.points[:, 0]).argmax()]
        assert near > far
        assert cloud.criticality.max() <= 1.0 and cloud.criticality.min() >= 0.0

    def test_same_seed_identical_cloud(self):
        spec = SyntheticRoiSpec(profile="inverse_distance(3.0, 0.2)", seed=5)
        a = generate_synthetic_roi(spec)
        b = generate_synthetic_roi(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.criticality, b.criticality)

    def test_grid_above_the_point_limit_is_rejected(self, monkeypatch):
        # the default spec grids 49 x 44 cells at one z level: 2156 points
        monkeypatch.setattr(roi, "MAX_SYNTHETIC_POINTS", 2156)
        generate_synthetic_roi(SyntheticRoiSpec())
        with pytest.raises(ConfigError, match="4.31e\\+03 points"):
            generate_synthetic_roi(SyntheticRoiSpec(z_levels=(1.0, 2.0)))
        monkeypatch.setattr(roi, "MAX_SYNTHETIC_POINTS", 2155)
        with pytest.raises(ConfigError, match="2.16e\\+03 points"):
            generate_synthetic_roi(SyntheticRoiSpec())

    @pytest.mark.parametrize("spec", [SyntheticRoiSpec(extent=1e300), SyntheticRoiSpec(spacing=1e-9)])
    def test_huge_grid_raises_before_allocating(self, spec):
        with pytest.raises(ConfigError, match="at most 1000000"):
            generate_synthetic_roi(spec)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            parse_profile("nonsense(1)")
        with pytest.raises(ValueError):
            parse_profile("uniform(2.0)")
        with pytest.raises(ValueError):
            SyntheticRoiSpec(profile="uniform(oops)")


class TestRunConfig:
    def test_invalid_pairing_rejected_before_compute(self):
        config = RunConfig(approach="setcover", solvers=("greedy",))
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_unknown_approach_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(approach="quantum_teleport"))

    def test_roi_source_must_be_unique(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(roi_path="x.csv", synthetic=SyntheticRoiSpec()))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(roi_path=None, synthetic=None))

    def test_orientation_modes(self):
        fixed = RunConfig()
        assert fixed.side_orientations(Side.LEFT) == (0.0,)
        free = RunConfig(orientation_mode="free")
        assert free.side_orientations(Side.LEFT) == DEFAULT_FREE_ORIENTATIONS[Side.LEFT]
        assert free.side_orientations(Side.RIGHT) == (0.0, 20.0, 40.0, 60.0)

    def test_dict_round_trip(self):
        config = RunConfig(
            approach="setcover",
            solvers=("exhaustive", "anneal"),
            grid=(2, 2),
            orientations={s: (0.0, 15.0) for s in Side},
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bogus_knob": 1})

    def test_dict_form_lists_every_field(self):
        d = config_to_dict(RunConfig())
        assert list(d) == [f.name for f in fields(RunConfig)]
        assert list(d["synthetic"]) == [f.name for f in fields(SyntheticRoiSpec)]
        assert list(d["vehicle"]) == [f.name for f in fields(VehicleModel)]

    def test_nested_numbers_coerced_to_field_types(self):
        config = config_from_dict({"synthetic": {"extent": 6, "spacing": 1, "z_levels": [1, 2]}})
        d = config_to_dict(config)["synthetic"]
        assert d["extent"] == 6.0 and isinstance(d["extent"], float)
        assert d["z_levels"] == [1.0, 2.0] and all(isinstance(z, float) for z in d["z_levels"])
        assert config == config_from_dict({"synthetic": {"extent": 6.0, "spacing": 1.0, "z_levels": [1.0, 2.0]}})

    @pytest.mark.parametrize("key", ["synthetic", "vehicle"])
    def test_unknown_nested_keys_rejected(self, key):
        with pytest.raises(ConfigError):
            config_from_dict({key: {"bogus_knob": 1}})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(approach="setcover", solvers=("vqe",)),                       # 64 qubits
            dict(approach="setcover", solvers=("exhaustive",)),                # 2^64 assignments
            dict(solvers=("vqe",), grid=(512, 512), orientation_mode="free"),  # 22-qubit encoding
        ],
    )
    def test_solver_size_overruns_rejected_before_coverage(self, tmp_path, monkeypatch, overrides):
        def unreachable(*args, **kwargs):
            raise AssertionError("coverage was built")

        monkeypatch.setattr(pipeline, "build_coverage", unreachable)
        with pytest.raises(ConfigError):
            run(RunConfig(output_dir=str(tmp_path / "out"), **overrides))

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(shots="5"), "shots must be"),
            (dict(solvers=("greedy", 1)), "solvers must be"),
            (dict(orientations={s.value: (0.0,) for s in Side}), "orientations must be"),
            (dict(orientations={s: "30" for s in Side}), "orientations must be"),
        ],
    )
    def test_mistyped_python_config_rejected_before_coverage(self, tmp_path, monkeypatch, overrides, named):
        def unreachable(*args, **kwargs):
            raise AssertionError("coverage was built")

        monkeypatch.setattr(pipeline, "build_coverage", unreachable)
        with pytest.raises(ConfigError, match=named):
            run(RunConfig(output_dir=str(tmp_path / "out"), **overrides))

    @pytest.mark.parametrize("weight", ["coverage_weight", "cost_weight"])
    def test_negative_weights_rejected(self, weight):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(approach="setcover", solvers=("anneal",), **{weight: -1.0}))

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)


def small_config(outdir, **overrides) -> RunConfig:
    base = dict(
        approach="fixed_count",
        solvers=("exhaustive",),
        synthetic=SyntheticRoiSpec(extent=6.0, spacing=1.0, profile="inverse_distance(4.0)"),
        grid=(2, 2),
        sensor_counts=(1, 2),
        output_dir=str(outdir),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunPipeline:
    def test_fixed_count_outputs(self, tmp_path):
        outputs = run(small_config(tmp_path / "a"))
        assert set(outputs.reports) == {"exhaustive"}
        report = outputs.reports["exhaustive"]
        assert 0.0 < report.aggregate_coverage <= 1.0
        for name in ("sweep.csv", "aggregate.csv", "adherence.csv", "selections.json", "manifest.json"):
            assert (tmp_path / "a" / name).exists()
        sweep = (tmp_path / "a" / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 2 + 4 * 2  # schema + header + 4 sides x 2 counts

    def test_setcover_outputs_with_annealer(self, tmp_path):
        config = small_config(
            tmp_path / "b",
            approach="setcover",
            solvers=("exhaustive", "anneal"),
            anneal_reads=200,
            anneal_sweeps=150,
        )
        outputs = run(config)
        ex = outputs.reports["exhaustive"]
        an = outputs.reports["anneal"]
        # the annealer optimizes the same model; with these sizes it finds the optimum
        assert an.total_cost == ex.total_cost
        assert an.aggregate_coverage == pytest.approx(ex.aggregate_coverage, abs=1e-12)

    def test_variational_solvers_through_pipeline(self, tmp_path):
        from sensorplace.roi import save_catalog
        from conftest import TWO_TYPE_CATALOG

        catalog_path = tmp_path / "two_types.yaml"
        save_catalog(TWO_TYPE_CATALOG, catalog_path)
        common = dict(
            catalog_path=str(catalog_path),
            num_stochastic_runs=3,
            vqe_max_evals=200,
        )
        sc = run(small_config(tmp_path / "sc", approach="setcover", solvers=("exhaustive", "vqe"), **common))
        ex, vq = sc.reports["exhaustive"], sc.reports["vqe"]
        for side in Side:
            assert vq.per_side[side].objective <= ex.per_side[side].objective + 0.05
        fc = run(small_config(tmp_path / "fc", approach="fixed_count", solvers=("vqe",), **common))
        assert set(fc.reports) == {"vqe"}
        sweep = (tmp_path / "fc" / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 2 + 4 * 2  # stats columns filled for stochastic runs
        assert "n/a" not in sweep[2].split(",")[7]  # runs column populated

    def test_basis_energies_computed_once_per_side(self, tmp_path, monkeypatch):
        from sensorplace import vqe

        calls = []

        def counted(model):
            calls.append(model.num_spins)
            return original(model)

        original = vqe.basis_energies
        monkeypatch.setattr(vqe, "basis_energies", counted)
        monkeypatch.setattr(pipeline, "basis_energies", counted)
        config = small_config(
            tmp_path / "v", approach="setcover", solvers=("vqe",), grid=(1, 2),
            num_stochastic_runs=3, vqe_max_evals=5,
        )
        run(config)
        assert calls == [8, 8, 8, 8]  # one per side, not one per run

    def test_byte_identical_reruns(self, tmp_path):
        config_a = small_config(
            tmp_path / "r1",
            approach="setcover",
            solvers=("anneal",),
            anneal_reads=150,
            anneal_sweeps=100,
        )
        config_b = small_config(
            tmp_path / "r2",
            approach="setcover",
            solvers=("anneal",),
            anneal_reads=150,
            anneal_sweeps=100,
        )
        run(config_a)
        run(config_b)
        for name in ("sweep.csv", "aggregate.csv", "adherence.csv", "selections.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_selections_round_trip(self, tmp_path):
        outputs = run(small_config(tmp_path / "c"))
        loaded = load_selections(tmp_path / "c" / "selections.json")
        report = outputs.reports["exhaustive"]
        for side in Side:
            assert loaded["exhaustive"][side].selected == report.per_side[side].selected
            assert loaded["exhaustive"][side].configs == report.per_side[side].configs

    def test_manifest_contents(self, tmp_path):
        outputs = run(small_config(tmp_path / "d"))
        manifest = json.loads(outputs.manifest_path.read_text())
        assert manifest["config"]["approach"] == "fixed_count"
        assert manifest["config"]["seed"] == 0
        assert "config_hash" in manifest and "package_version" in manifest
        # the manifest alone reproduces the run
        rebuilt = config_from_dict(dict(manifest["config"], output_dir=str(tmp_path / "d2")))
        rerun = run(rebuilt)
        assert (tmp_path / "d" / "sweep.csv").read_bytes() == (tmp_path / "d2" / "sweep.csv").read_bytes()


class TestCli:
    def test_gen_roi_and_solve_and_report(self, tmp_path):
        roi = tmp_path / "roi.csv"
        assert cli_main(["gen-roi", "--out", str(roi), "--extent", "6", "--spacing", "1.0"]) == 0
        out = tmp_path / "run"
        assert (
            cli_main(
                [
                    "solve",
                    "--roi", str(roi),
                    "--grid", "2x2",
                    "--approach", "fixed_count",
                    "--solver", "greedy",
                    "--min-sensors", "1",
                    "--max-sensors", "2",
                    "--outdir", str(out),
                ]
            )
            == 0
        )
        assert (out / "aggregate.csv").exists()
        rep = tmp_path / "rep"
        assert (
            cli_main(
                [
                    "report",
                    "--selections", str(out / "selections.json"),
                    "--roi", str(roi),
                    "--outdir", str(rep),
                ]
            )
            == 0
        )
        assert (rep / "aggregate.csv").read_bytes() == (out / "aggregate.csv").read_bytes()
        assert (rep / "adherence.csv").read_bytes() == (out / "adherence.csv").read_bytes()

    @pytest.mark.parametrize(
        "selections, criticality, catalog",
        [
            (None, 0.5, False),                                      # missing file
            ("{not json", 0.5, False),
            ("[]", 0.5, False),
            ('{"greedy": {"front": {"selected": [1]}}}', 0.5, False),  # six fields missing
            ('{"greedy": {"top": null}}', 0.5, False),
            ("valid", 0.5, True),                                    # type 3 not in a one-type catalog
            ("valid", 0.0, False),                                   # zero-criticality cloud
        ],
    )
    def test_bad_report_inputs_exit_2(self, tmp_path, capsys, selections, criticality, catalog):
        # each crashed with a traceback, or (zero criticality) wrote nan coverage and exited 0
        front = {
            "selected": [0], "coverage": 0.5, "cost": 20.0, "objective": -0.498, "solver_tag": "greedy",
            "feasible": True, "seed": None,
            "configs": [{"type_index": 3, "position": [2.25, 0.0, 0.75], "orientation": 0.0, "side": "front"}],
        }
        if selections == "valid":
            selections = json.dumps({"greedy": {"front": front, "back": None, "left": None, "right": None}})
        path = tmp_path / "selections.json"
        if selections is not None:
            path.write_text(selections)
        roi = tmp_path / "roi.csv"
        roi.write_text(f"x,y,z,criticality\n5.0,0.0,1.0,{criticality}\n-5.0,0.0,1.0,{criticality}\n")
        out = tmp_path / "rep"
        argv = ["report", "--selections", str(path), "--roi", str(roi), "--outdir", str(out)]
        if catalog:
            save_catalog(DEFAULT_CATALOG[:1], tmp_path / "one.yaml")
            argv += ["--catalog", str(tmp_path / "one.yaml")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_exports(self, tmp_path):
        lp = tmp_path / "model.lp"
        qubo = tmp_path / "model.qubo"
        common = ["--grid", "2x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0"]
        assert cli_main(["export-lp", *common, "--approach", "fixed_count", "--num-sensors", "2", "--out", str(lp)]) == 0
        assert lp.read_text().startswith("\\ fixed sensor-count coverage model")
        assert cli_main(["export-qubo", *common, "--out", str(qubo)]) == 0
        assert qubo.read_text().startswith("# sensorplace qubo coo v1")
        # the solver size caps of solve do not apply: 64 variables on the default 4x4 grid
        assert cli_main(["export-lp", *common[2:], "--approach", "setcover", "--out", str(lp)]) == 0

    @pytest.mark.parametrize("count", ["0", "9"])
    def test_export_lp_sensor_count_out_of_range_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "model.lp"
        argv = ["export-lp", "--grid", "1x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0",
                "--num-sensors", count, "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "num_sensors" in err and "Traceback" not in err
        assert not out.exists()

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines() if line.strip()]
        assert commands
        for argv in commands:
            assert argv[0] == "sensorplace"
            build_parser().parse_args(argv[1:])

    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            yaml.safe_dump(
                {
                    "approach": "fixed_count",
                    "solvers": ["greedy"],
                    "sensor_counts": [1],
                    "grid": [2, 2],
                    "synthetic": {"extent": 6.0, "spacing": 1.0},
                    "output_dir": str(out),
                }
            )
        )
        # flags say exhaustive and 4x4; the file wins
        assert cli_main(["solve", "--config", str(cfg), "--grid", "4x4", "--solver", "exhaustive"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["solvers"] == ["greedy"]
        assert manifest["config"]["grid"] == [2, 2]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["solve"], RunConfig()),
            (["export-lp", "--out", "o"], RunConfig()),
            (["export-qubo", "--out", "o"], RunConfig()),
        ],
    )
    def test_flag_defaults_are_the_dataclass_defaults(self, argv, expected):
        assert _run_config(build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize(
        "bad",
        [["--grid", "4"], ["--grid", "4xa"], ["--grid", "0x2"], ["--orientations", "0,abc"],
         ["--orientations", "0,nan"], ["--cost-weight", "-1"]],
    )
    @pytest.mark.parametrize("command", ["solve", "export-lp", "export-qubo"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, command, bad):
        small = ["--grid", "1x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0"]
        target = ["--outdir", str(tmp_path / "x"), "--solver", "greedy", "--max-sensors", "1"]
        if command != "solve":
            target = ["--out", str(tmp_path / "x.model")]
        assert cli_main([command, *small, *target, *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "bad",
        [["--synthetic-extent", "nan"], ["--synthetic-spacing", "nan"], ["--synthetic-extent", "inf"],
         ["--synthetic-spacing", "inf"], ["--synthetic-profile", "inverse_distance(nan)"],
         ["--synthetic-profile", "inverse_distance(inf)"], ["--config", "z_levels.yaml"],
         ["--vehicle-length", "nan"], ["--vehicle-width", "inf"], ["--vehicle-height", "nan"]],
    )
    def test_non_finite_synthetic_cloud_exits_2(self, tmp_path, capsys, bad):
        # NaN passed the positivity checks and crashed the grid generator
        # (or, as a profile scale, wrote NaN coverage); inf overflowed it.
        # A NaN vehicle dimension gave n/a rows and zero coverage.
        (tmp_path / "z_levels.yaml").write_text("synthetic: {z_levels: [1.0, .nan]}\n")
        if bad[0] == "--config":
            bad = ["--config", str(tmp_path / bad[1])]
        argv = ["solve", "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1",
                "--outdir", str(tmp_path / "out"), *bad]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [["extent", "1e300"], ["spacing", "1e-9"]])
    @pytest.mark.parametrize("command", ["solve", "export-lp", "export-qubo", "gen-roi"])
    def test_oversized_synthetic_grid_exits_2(self, tmp_path, capsys, command, bad):
        # the grid generator allocated the whole grid (or died in np.arange)
        out = tmp_path / "out"
        flag = f"--{bad[0]}" if command == "gen-roi" else f"--synthetic-{bad[0]}"
        target = ["--outdir", str(out), "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1"]
        if command != "solve":
            target = ["--out", str(out)]
        assert cli_main([command, *target, flag, bad[1]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic grid") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["1,nan", "1,abc"])
    def test_non_finite_z_level_exits_2_in_gen_roi(self, tmp_path, capsys, levels):
        out = tmp_path / "roi.csv"
        assert cli_main(["gen-roi", "--out", str(out), "--z-levels", levels]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_solve_has_no_side_flag(self, tmp_path, capsys):
        # solve accepted --side, ignored it and solved all four sides
        argv = ["solve", "--side", "left", "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1",
                "--outdir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "--side" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_orientation_list_applies_to_every_side(self, tmp_path):
        out = tmp_path / "out"
        args = ["--grid", "1x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0"]
        rc = cli_main(
            ["solve", *args, "--solver", "greedy", "--max-sensors", "1",
             "--orientations", "0,30", "--outdir", str(out)]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["orientations"] == {s.value: [0.0, 30.0] for s in Side}
        selections = json.loads((out / "selections.json").read_text())["greedy"]
        assert {c["orientation"] for side in selections.values() for c in side["configs"]} == {0.0, 30.0}
        # the same angle list gives the per-side model export the same candidates
        qubo = tmp_path / "left.qubo"
        assert cli_main(["export-qubo", *args, "--orientations", "0,30", "--side", "left", "--out", str(qubo)]) == 0
        assert qubo.read_text().count("\n") > 0

    @pytest.mark.parametrize("bad", ["config", "roi", "catalog", "catalog-entry"])
    def test_file_errors_exit_2_naming_the_file(self, tmp_path, capsys, bad):
        argv = ["solve", "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1",
                "--synthetic-extent", "6", "--synthetic-spacing", "1.0",
                "--outdir", str(tmp_path / "out")]
        path = tmp_path / ("missing.yaml" if bad != "roi" else "missing.csv")
        if bad == "catalog-entry":
            path.write_text("sensors: [{name: a}]\n")
        flag = {"config": "--config", "roi": "--roi"}.get(bad, "--catalog")
        assert cli_main([*argv, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_side_without_points_gets_na_rows(self, tmp_path):
        # both points lie in front of the vehicle: back, left and right are empty
        roi = tmp_path / "one.csv"
        roi.write_text("x,y,z,criticality\n5.0,0.0,1.0,0.9\n6.0,0.5,1.0,0.5\n")
        argv = ["solve", "--roi", str(roi), "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli_main([*argv, "--outdir", str(first)]) == 0
        assert cli_main([*argv, "--outdir", str(second)]) == 0
        for name in ("sweep.csv", "aggregate.csv", "adherence.csv", "selections.json", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

        sweep = {r["side"]: r for r in csv.DictReader((first / "sweep.csv").read_text().splitlines()[1:])}
        assert sweep["front"]["error"] == "" and sweep["front"]["coverage"] == "1.0"
        aggregate_rows = (first / "aggregate.csv").read_text().splitlines()
        for side in ("back", "left", "right"):
            assert sweep[side]["error"].startswith("EmptyCloudError: ")
            assert {sweep[side][c] for c in ("n_sensors", "coverage", "cost", "objective", "selected")} == {"n/a"}
            assert f"greedy,{side},n/a,n/a,n/a,n/a" in aggregate_rows
        selections = json.loads((first / "selections.json").read_text())["greedy"]
        assert [side for side, r in selections.items() if r is None] == ["back", "left", "right"]
        assert load_selections(first / "selections.json")["greedy"][Side.BACK] is None

        report = tmp_path / "report"
        assert cli_main(
            ["report", "--selections", str(first / "selections.json"), "--roi", str(roi), "--outdir", str(report)]
        ) == 0
        assert (report / "aggregate.csv").read_bytes() == (first / "aggregate.csv").read_bytes()
        assert (report / "adherence.csv").read_bytes() == (first / "adherence.csv").read_bytes()

    def test_no_solvable_side_exits_2(self, tmp_path, capsys):
        roi = tmp_path / "zero.csv"
        roi.write_text("x,y,z,criticality\n5.0,0.0,1.0,0.0\n6.0,0.5,1.0,0.0\n")
        argv = ["solve", "--roi", str(roi), "--grid", "1x1", "--solver", "greedy", "--max-sensors", "1"]
        assert cli_main([*argv, "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--anneal-reads", "0", "anneal_reads"),
            ("--anneal-sweeps", "0", "anneal_sweeps"),
            ("--vqe-layers", "0", "vqe_layers"),
            ("--shots", "0", "shots"),
            ("--vqe-max-evals", "-1", "vqe_max_evals"),
            ("--runs", "0", "num_stochastic_runs"),
        ],
    )
    def test_out_of_range_solver_settings_exit_2_before_coverage(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("coverage was built")

        monkeypatch.setattr(pipeline, "build_coverage", unreachable)
        argv = ["solve", "--grid", "1x2", "--synthetic-extent", "6", "--synthetic-spacing", "1.0",
                "--solver", "greedy", "--max-sensors", "1", "--outdir", str(tmp_path / "out")]
        assert cli_main([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize(
        "doc, flags, named",
        [
            ({"shots": "abc"}, [], "shots"),
            ({"coverage_weight": "abc"}, [], "coverage_weight"),
            ({"anneal_reads": 2.5}, [], "anneal_reads"),
            ({"sensor_counts": 3}, [], "sensor_counts"),
            ({"seed": "abc"}, [], "seed"),
            ({"seed": True}, [], "seed"),
            ({"sensor_counts": [1.5]}, [], "sensor_counts"),
            ({"sensor_counts": [0, 1]}, [], "sensor count"),
            ({"orientations": {"front": [0], "left": [0], "right": [0]}}, [], "side back"),
            ({"orientations": {"front": [], "back": [0], "left": [0], "right": [0]}}, [], "side front"),
            ({"orientations": {"front": "30", "back": [0], "left": [0], "right": [0]}}, [], "orientations"),
            ({"fov_model": "elliptical"}, [], "fov_model"),
            ({"vehicle": {"origin": [0.0, 0.0, 0.0]}}, [], "origin"),
            ({"synthetic": {"z_levels": "12"}}, [], "z_levels"),
            ({"synthetic": {"seed": 2.7}}, [], "seed"),
            ({"vehicle": {"length": True}}, [], "length"),
            ({"orientations": {"front": ["30"], "back": [0], "left": [0], "right": [0]}}, [], "orientations"),
            ({}, ["--orientations", "0,nan"], "side front"),
        ],
    )
    def test_mistyped_config_values_exit_2_before_coverage(
        self, tmp_path, capsys, monkeypatch, doc, flags, named
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("coverage was built")

        monkeypatch.setattr(pipeline, "build_coverage", unreachable)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"solvers": ["greedy"], "grid": [1, 2], **doc}))
        assert cli_main(["solve", "--config", str(cfg), "--outdir", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_integer_weight_is_kept_as_given(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump({
            "solvers": ["greedy"], "grid": [1, 2], "sensor_counts": [1], "coverage_weight": 1,
            "synthetic": {"extent": 6.0, "spacing": 1.0}, "output_dir": str(out),
        }))
        assert cli_main(["solve", "--config", str(cfg)]) == 0
        weight = json.loads((out / "manifest.json").read_text())["config"]["coverage_weight"]
        assert weight == 1 and type(weight) is int

    def test_failing_vqe_count_keeps_the_other_counts(self, tmp_path):
        # one shot per evaluation never shows two distinct positions, so k=2 fails
        argv = ["solve", "--grid", "2x2", "--solver", "vqe", "--min-sensors", "1", "--max-sensors", "2",
                "--shots", "1", "--runs", "1", "--vqe-max-evals", "10"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli_main([*argv, "--outdir", str(first)]) == 0
        assert cli_main([*argv, "--outdir", str(second)]) == 0
        for name in ("sweep.csv", "aggregate.csv", "adherence.csv", "selections.json", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        rows = list(csv.DictReader((first / "sweep.csv").read_text().splitlines()[1:]))
        assert len(rows) == 8
        for row in rows:
            if row["n_sensors"] == "1":
                assert row["error"] == "" and row["runs"] == "1" and row["coverage"] != "n/a"
            else:
                assert row["error"].startswith("InsufficientSupportError: ")
                assert row["coverage"] == "n/a"

    def test_side_whose_every_count_fails_gets_a_null_selection(self, tmp_path):
        # C(64, 6) exceeds the exhaustive budget on every side; greedy still solves them
        argv = ["solve", "--grid", "4x4", "--synthetic-extent", "6", "--synthetic-spacing", "1.0",
                "--min-sensors", "6", "--max-sensors", "6", "--outdir", str(tmp_path / "out")]
        assert cli_main([*argv, "--solver", "greedy", "--solver", "exhaustive"]) == 0
        selections = json.loads((tmp_path / "out" / "selections.json").read_text())
        assert all(r is None for r in selections["exhaustive"].values())
        assert all(r is not None for r in selections["greedy"].values())
        aggregate_rows = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert "exhaustive,front,n/a,n/a,n/a,n/a" in aggregate_rows
        sweep = list(csv.DictReader((tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]))
        assert {r["error"].split(":")[0] for r in sweep if r["solver"] == "exhaustive"} == {"BudgetExceededError"}

    def test_no_selection_anywhere_exits_2_after_writing_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["solve", "--grid", "4x4", "--synthetic-extent", "6", "--synthetic-spacing", "1.0",
                "--min-sensors", "6", "--max-sensors", "6", "--solver", "exhaustive", "--outdir", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
        assert [r["side"] for r in rows] == [s.value for s in Side]
        assert all(r["error"].startswith("BudgetExceededError: ") for r in rows)
        assert not (out / "selections.json").exists()

    def test_invalid_pairing_fails_cleanly(self, tmp_path):
        rc = cli_main(
            [
                "solve",
                "--approach", "setcover",
                "--solver", "greedy",
                "--grid", "2x2",
                "--outdir", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
