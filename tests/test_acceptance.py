"""Acceptance gate: one test per release criterion, each with its stated
tolerance and time budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion.

Exact-match criteria use dyadic criticalities/coefficients (multiples of
1/1024) so that float arithmetic is order-independent and bit-exact; see
conftest.
"""

from __future__ import annotations

import time

import numpy as np

from sensorplace.annealer import AnnealSchedule, anneal
from sensorplace.coverage import build_coverage, exact_union_coverage
from sensorplace.fixed_count import make_problem, solve_exhaustive, sweep_num_sensors
from sensorplace.geometry import (
    DEFAULT_CATALOG,
    PlacementGrid,
    RoiCloud,
    Side,
    VehicleModel,
    enumerate_configs,
    fov_mask,
    partition_roi,
)
from sensorplace.pipeline import RunConfig, run
from sensorplace.reporting import SweepRow, adherence, drop_worst_and_summarize, write_sweep_csv
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi
from sensorplace.setcover import (
    approx_coverage,
    build_iqp,
    solve_exhaustive_qubo,
    to_ising,
    to_qubo,
)
from sensorplace.vqe import (
    AnsatzSpec,
    EncodingMap,
    apply_ansatz,
    entangler_pairs,
    uniform_state,
    vqe_fixed_count,
    vqe_ising,
)

from conftest import TWO_TYPE_CATALOG, random_configs, random_instance
from test_coverage import brute_force_coverage, brute_force_union
from test_geometry import fov_oracle
from test_reporting import adherence_oracle
from test_setcover import all_assignments, random_qubo


def _announce(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_01_fov_matches_independent_oracle_on_ten_thousand_pairs():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    configs = random_configs(rng, DEFAULT_CATALOG, 100)
    points = rng.uniform(-40.0, 40.0, (100, 3))
    points[:, 2] = rng.uniform(-2.0, 8.0, 100)
    mismatches = 0
    checked = 0
    for cfg in configs:
        spec = DEFAULT_CATALOG[cfg.type_index]
        mask = fov_mask(cfg, spec, points)
        for r in range(100):
            mismatches += bool(mask[r]) != fov_oracle(cfg, spec, points[r])
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10_000
    assert mismatches == 0
    assert elapsed < 5.0
    _announce(f"01 fov-oracle ({checked} pairs, {elapsed:.2f}s)")


def test_02_coverage_matches_brute_force_exactly_on_twenty_instances():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        num_points = int(rng.integers(50, 301))
        num_configs = int(rng.integers(4, 13))
        cloud, configs, catalog, data = random_instance(
            rng, num_points=num_points, num_configs=num_configs
        )
        rows, singles, overlaps = brute_force_coverage(cloud, configs, catalog)
        assert np.array_equal(data.masks, np.array(rows))
        assert np.array_equal(data.singles, np.array(singles))
        assert np.array_equal(data.overlaps, np.array(overlaps))
        for _ in range(5):
            k = int(rng.integers(0, num_configs + 1))
            sel = sorted(rng.choice(num_configs, size=k, replace=False).tolist())
            assert exact_union_coverage(sel, data) == brute_force_union(sel, cloud, configs, catalog)
    _announce("02 coverage-oracle (20 instances, exact)")


def _bound_instances():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        yield rng, random_instance(rng, num_points=200, num_configs=10, exact=False)


def test_03_quadratic_coverage_lower_bounds_exact_union():
    checked = equalities = 0
    for rng, (cloud, configs, catalog, data) in _bound_instances():
        for _ in range(100):
            k = int(rng.integers(0, data.num_configs + 1))
            sel = sorted(rng.choice(data.num_configs, size=k, replace=False).tolist())
            x = np.zeros(data.num_configs)
            x[sel] = 1.0
            exact = exact_union_coverage(sel, data)
            approx = approx_coverage(x, data)
            assert exact >= approx - 1e-9
            if k <= 2:
                assert abs(exact - approx) <= 1e-9
                equalities += 1
            checked += 1
    assert checked == 1000
    assert equalities > 100
    _announce(f"03 coverage-bound ({checked} selections, {equalities} tight)")


def test_04_overlap_matrix_is_positive_semidefinite():
    for rng, (_, _, _, data) in _bound_instances():
        for _ in range(100):
            v = rng.normal(size=data.num_configs)
            assert v @ data.overlaps @ v >= -1e-9
    _announce("04 psd-witness (10 instances x 100 vectors)")


def test_05_qubo_energy_definition_and_spin_round_trip():
    from sensorplace.geometry import config_costs

    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        _, _, catalog, data = random_instance(rng, num_points=150, num_configs=int(rng.integers(6, 13)))
        w1 = float(rng.uniform(0.5, 2.0))
        w2 = float(rng.uniform(1e-5, 1e-3))
        model = build_iqp(data, catalog, w1, w2)
        costs = config_costs(data.configs, catalog)
        for _ in range(100):
            x = rng.integers(0, 2, data.num_configs).astype(float)
            reference = -w1 * approx_coverage(x, data) + w2 * float(costs @ x)
            assert abs(model.energy(x) - reference) <= 1e-12
    # spin substitution: exact on dyadic coefficients, 1e-12 on arbitrary floats
    for seed in range(10):
        rng = np.random.default_rng(450 + seed)
        n = int(rng.integers(2, 11))
        dyadic_model = random_qubo(rng, n, dyadic=True)
        bits = all_assignments(n)
        ising = to_ising(dyadic_model)
        assert np.array_equal(
            dyadic_model.energies(bits), np.array([ising.energy_of_bits(b) for b in bits])
        )
        back = to_qubo(ising, dyadic_model.variable_names)
        assert np.array_equal(dyadic_model.energies(bits), back.energies(bits))
        float_model = random_qubo(rng, n)
        diff = np.abs(
            float_model.energies(bits)
            - np.array([to_ising(float_model).energy_of_bits(b) for b in bits])
        )
        assert diff.max() <= 1e-12 * max(1.0, np.abs(float_model.energies(bits)).max())
    _announce("05 qubo-correctness (10 instances x 100 vectors; 2^N round trips)")


def test_06_annealer_recovers_ground_states():
    hits = 0
    slowest = 0.0
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(10, 13))
        model_q = random_qubo(rng, n, dyadic=True)
        ising = to_ising(model_q)
        _, exact = solve_exhaustive_qubo(model_q)
        start = time.perf_counter()
        samples = anneal(ising, AnnealSchedule(num_reads=1000, sweeps_per_read=1000, seed=seed))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 2.0
        hits += samples.best()[1] == exact
    assert hits >= 95
    _announce(f"06 annealer-quality ({hits}/100 ground states, slowest run {slowest:.2f}s)")


def _downscaled_free_count_instance():
    vehicle = VehicleModel()
    cloud = partition_roi(
        generate_synthetic_roi(
            SyntheticRoiSpec(extent=12.0, spacing=0.5, profile="inverse_distance(5.0)"), vehicle
        ),
        vehicle,
    )
    front = cloud.side_cloud(Side.FRONT)
    configs = enumerate_configs(TWO_TYPE_CATALOG, vehicle, PlacementGrid(Side.FRONT, 2, 2))
    data = build_coverage(front, configs, TWO_TYPE_CATALOG)
    return data


def test_07_variational_free_count_reaches_qubo_optimum():
    start = time.perf_counter()
    data = _downscaled_free_count_instance()
    assert data.num_configs == 8
    model = build_iqp(data, TWO_TYPE_CATALOG)
    ising = to_ising(model)
    _, exact_energy = solve_exhaustive_qubo(model)
    runs = []
    energies = []
    for seed in range(10):
        outcome = vqe_ising(ising, make_problem(data, TWO_TYPE_CATALOG, None), seed=seed)
        runs.append(outcome.result)
        bits = np.zeros(data.num_configs)
        bits[list(outcome.result.selected)] = 1.0
        energies.append(model.energy(bits))
    retained, stats = drop_worst_and_summarize(runs)
    retained_energies = [e for i, e in enumerate(energies) if i != stats.dropped_run]
    matches = sum(abs(e - exact_energy) <= 1e-6 for e in retained_energies)
    elapsed = time.perf_counter() - start
    assert len(retained) == 9
    assert matches >= 7
    assert elapsed < 60.0
    _announce(f"07 free-count-vqe ({matches}/9 retained at optimum, {elapsed:.1f}s)")


def _structured_fixed_count_instance():
    """Overhead cluster (top-row or camera view) plus a far ring beyond
    camera range: the cheap full-coverage pairs stand well clear of the rest."""
    rng = np.random.default_rng(0)
    overhead = np.column_stack(
        [np.full(60, 13.0), rng.uniform(-3, 3, 60), rng.uniform(4.9, 5.1, 60)]
    )
    far_ring = np.column_stack(
        [np.full(60, 60.0), rng.uniform(-8, 8, 60), rng.uniform(0.95, 1.05, 60)]
    )
    cloud = RoiCloud(np.vstack([overhead, far_ring]), np.full(120, 1.0))
    vehicle = VehicleModel()
    configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(Side.FRONT, 4, 4))
    data = build_coverage(cloud, configs, DEFAULT_CATALOG)
    return make_problem(data, DEFAULT_CATALOG, num_sensors=2)


def test_08_variational_fixed_count_matches_exhaustive_optimum():
    start = time.perf_counter()
    problem = _structured_fixed_count_instance()
    encoding = EncodingMap(4, 4, 4, 1)
    assert encoding.num_qubits == 6
    exact = solve_exhaustive(problem)
    runs = []
    for seed in range(10):
        outcome = vqe_fixed_count(problem, encoding, seed=seed)
        runs.append(outcome.result)
    retained, stats = drop_worst_and_summarize(runs)
    matches = sum(abs(r.objective - exact.objective) <= 1e-9 for r in retained)
    elapsed = time.perf_counter() - start
    assert len(retained) == 9
    assert matches >= 7
    assert elapsed < 120.0
    _announce(f"08 fixed-count-vqe ({matches}/9 retained at optimum, {elapsed:.1f}s)")


def test_09_entangler_wiring_and_zero_angle_identity():
    for layer in range(3):
        expected = [(c, (c + layer + 1) % 4) for c in range(4)]
        assert entangler_pairs(4, layer) == expected
    state = np.zeros(2**4, dtype=complex)
    state[0] = 1.0
    out = apply_ansatz(state, AnsatzSpec(4, 3, np.zeros(12)))
    assert np.max(np.abs(out - state)) <= 1e-12
    # the uniform state is likewise invariant under the zero-angle ansatz
    flat = uniform_state(4)
    out = apply_ansatz(flat, AnsatzSpec(4, 3, np.zeros(12)))
    assert np.max(np.abs(out - flat)) <= 1e-12
    _announce("09 ansatz-wiring (4 qubits x 3 layers)")


def test_10_adherence_fractions_match_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        cloud, configs, catalog, _ = random_instance(
            rng, num_points=200, num_configs=8, exact=False
        )
        # guarantee some critical points and both same-type and mixed pairs
        crit = cloud.criticality.copy()
        crit[rng.choice(len(cloud), 40, replace=False)] = 1.0
        cloud = RoiCloud(cloud.points, crit)
        got = adherence(configs, cloud, catalog)
        want = adherence_oracle(configs, cloud, catalog)
        assert got == want
        assert got[1] <= got[0]
    _announce("10 adherence-oracle (10 instances, exact)")


def test_11_repeated_runs_emit_byte_identical_csvs(tmp_path):
    def config(outdir):
        return RunConfig(
            approach="setcover",
            solvers=("exhaustive", "anneal"),
            synthetic=SyntheticRoiSpec(extent=6.0, spacing=1.0, profile="inverse_distance(4.0)"),
            grid=(2, 2),
            anneal_reads=300,
            anneal_sweeps=200,
            seed=7,
            output_dir=str(outdir),
        )

    run(config(tmp_path / "first"))
    run(config(tmp_path / "second"))
    for name in ("sweep.csv", "aggregate.csv", "adherence.csv", "selections.json", "manifest.json"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _announce("11 run-determinism (byte-identical outputs)")


def test_12_exhaustive_sweep_coverage_monotone(tmp_path):
    rows = []
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        _, _, catalog, data = random_instance(rng, num_points=150, num_configs=10)
        problem = make_problem(data, catalog, num_sensors=1)
        outcome = sweep_num_sensors(problem, range(1, 6), solver=solve_exhaustive)
        coverages = [e.result.coverage for e in outcome.entries]
        assert all(b >= a - 1e-12 for a, b in zip(coverages, coverages[1:])), coverages
        rows.extend(
            SweepRow(Side.FRONT, e.num_sensors, "exhaustive", e.result) for e in outcome.entries
        )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 2 + 25
    _announce("12 sweep-monotonicity (5 instances, 1..5 sensors)")
