"""Statevector ansatz, encodings, histogram selection, variational loops."""

from __future__ import annotations

import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sensorplace
from sensorplace import vqe
from sensorplace.errors import InsufficientSupportError, SizeLimitError
from sensorplace.geometry import DEFAULT_CATALOG
from sensorplace.fixed_count import make_problem, solve_exhaustive
from sensorplace.reporting import write_trace_csv
from sensorplace.setcover import build_iqp, fix_persistent, to_ising
from sensorplace.vqe import (
    AnsatzSpec,
    EncodingMap,
    OptimizerConfig,
    _ring_gather,
    apply_ansatz,
    basis_energies,
    entangler_pairs,
    sample_histogram,
    select_feasible_topk,
    uniform_state,
    vqe_fixed_count,
    vqe_ising,
)

from conftest import ising_model, random_instance, side_instance
from vqe_oracle import decode_fields, vqe_fixed_count_loop, vqe_ising_loop
from statevector_oracle import (
    apply_ansatz_gates,
    apply_ansatz_inverse,
    apply_cnot,
    apply_ry,
    zero_state,
)


def kron_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def two_qubit_ansatz_matrix(theta0: float, theta1: float) -> np.ndarray:
    """Explicit 4x4 oracle for one layer on two qubits (MSB-first indices)."""
    ry = np.kron(kron_ry(theta0), kron_ry(theta1))
    # CNOT with control qubit 0 (MSB), target qubit 1
    cnot01 = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    # CNOT with control qubit 1, target qubit 0
    cnot10 = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    return cnot10 @ cnot01 @ ry


class TestEntanglerWiring:
    def test_ring_shifts_with_layer(self):
        assert entangler_pairs(4, 0) == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert entangler_pairs(4, 1) == [(0, 2), (1, 3), (2, 0), (3, 1)]
        assert entangler_pairs(4, 2) == [(0, 3), (1, 0), (2, 1), (3, 2)]

    def test_control_three_layer_zero_targets_zero(self):
        assert entangler_pairs(4, 0)[3] == (3, 0)

    def test_degenerate_layer_skipped(self):
        assert entangler_pairs(2, 1) == []
        assert entangler_pairs(1, 0) == []

    def test_matches_modular_formula(self):
        for n in (2, 3, 4, 6, 8):
            for layer in range(4):
                pairs = entangler_pairs(n, layer)
                if (layer + 1) % n == 0 or n == 1:
                    assert pairs == []
                else:
                    assert pairs == [(c, (c + layer + 1) % n) for c in range(n)]


class TestStatevectorKernels:
    def test_zero_angles_are_identity_on_ground_state(self):
        state = zero_state(2)
        out = apply_ansatz(state, AnsatzSpec(2, 1, np.zeros(2)))
        assert np.array_equal(out, state)

    def test_uniform_state_is_normalized_and_flat(self):
        state = uniform_state(3)
        assert np.allclose(np.abs(state) ** 2, 1.0 / 8.0)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_two_qubit_layer_matches_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, 2)
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            expected = two_qubit_ansatz_matrix(theta[0], theta[1]) @ psi
            got = apply_ansatz(psi.copy(), AnsatzSpec(2, 1, theta))
            assert np.allclose(got, expected, atol=1e-12)

    def test_deterministic_basis_outcome(self):
        # RY(pi) flips qubit 0; the CNOT ring then propagates it
        out = apply_ansatz(zero_state(2), AnsatzSpec(2, 1, np.array([np.pi, 0.0])))
        probs = np.abs(out) ** 2
        assert probs[0b01] == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            ansatz = AnsatzSpec(n, 3, rng.uniform(-np.pi, np.pi, 3 * n))
            out = apply_ansatz(psi, ansatz)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(2)
        for n in (2, 4):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            ansatz = AnsatzSpec(n, 3, rng.uniform(-np.pi, np.pi, 3 * n))
            back = apply_ansatz_inverse(apply_ansatz(psi, ansatz), ansatz)
            assert np.allclose(back, psi, atol=1e-9)

    def test_cnot_truth_table(self):
        # |10> -> |11> (control qubit 0 set)
        psi = np.zeros(4, dtype=complex)
        psi[0b10] = 1.0
        out = apply_cnot(psi, 0, 1)
        assert out[0b11] == 1.0

    def test_ry_rotates_single_qubit(self):
        out = apply_ry(zero_state(1), 0, np.pi)
        assert abs(out[1] - 1.0) < 1e-12

    def test_qubit_cap(self):
        with pytest.raises(SizeLimitError, match="capped at 20"):
            uniform_state(21)

    def test_angle_count_validated(self):
        with pytest.raises(ValueError):
            AnsatzSpec(3, 2, np.zeros(5))


class TestFusedKernelMatchesGateOracle:
    """The fused RY-block / ring-gather kernel against the gate-by-gate reference."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_states_all_layer_counts(self, n):
        rng = np.random.default_rng(100 + n)
        for num_layers in range(1, 5):
            ansatz = AnsatzSpec(n, num_layers, rng.uniform(-np.pi, np.pi, n * num_layers))
            real = rng.normal(size=2**n)
            real /= np.linalg.norm(real)
            cplx = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            cplx /= np.linalg.norm(cplx)
            for psi in (real, cplx):
                got = apply_ansatz(psi, ansatz)
                want = apply_ansatz_gates(psi, ansatz)
                assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n, layer", [(1, 0), (1, 3), (2, 1), (2, 3), (3, 2)])
    def test_degenerate_ring_layers_have_no_gather(self, n, layer):
        assert entangler_pairs(n, layer) == []
        assert _ring_gather(n, (layer + 1) % n) is None
        rng = np.random.default_rng(n * 10 + layer)
        ansatz = AnsatzSpec(n, layer + 1, rng.uniform(-np.pi, np.pi, n * (layer + 1)))
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert np.max(np.abs(apply_ansatz(psi, ansatz) - apply_ansatz_gates(psi, ansatz))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ring_gather_maps_every_basis_state_like_sequential_cnots(self, n):
        labels = np.arange(2**n, dtype=float)
        # the cache shares writable arrays: the kernel must leave them as built
        apply_ansatz(uniform_state(n), AnsatzSpec(n, n + 1, np.ones(n * (n + 1))))
        for layer in range(n + 1):
            pairs = entangler_pairs(n, layer)
            if not pairs:
                continue
            want = labels
            for control, target in pairs:
                want = apply_cnot(want, control, target)
            assert np.array_equal(labels[_ring_gather(n, (layer + 1) % n)], want)

    def test_ring_gathers_are_built_once_per_shift_past_sixteen_layers(self):
        n, num_layers = 12, 17
        ansatz = AnsatzSpec(n, num_layers, np.random.default_rng(3).uniform(-np.pi, np.pi, n * num_layers))
        _ring_gather.cache_clear()
        for _ in range(3):
            apply_ansatz(uniform_state(n), ansatz)
        # 17 layers share the 12 ring shifts of 12 qubits, and no gather is evicted
        assert _ring_gather.cache_info().misses == n

    def test_shared_work_gives_the_same_state_without_scratch_allocations(self):
        n = 14
        ansatz = AnsatzSpec(n, 3, np.random.default_rng(4).uniform(-np.pi, np.pi, 3 * n))
        state = uniform_state(n)
        want = apply_ansatz(state, ansatz)
        work = np.empty((3 + 2, 2**n))
        tracemalloc.start()
        try:
            same = [np.array_equal(apply_ansatz(state, ansatz, work), want) for _ in range(2)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same == [True, True]
        # building the RY blocks takes a few tens of KB whatever n is; any
        # state-sized allocation, a ring gather's included, breaks the bound
        assert peak < state.nbytes / 2

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 13])
    def test_resumed_call_matches_a_call_from_layer_zero(self, n):
        rng = np.random.default_rng(200 + n)
        num_layers = 3
        state = rng.normal(size=2**n)
        work = np.empty((num_layers + 2, 2**n))
        first = rng.uniform(-np.pi, np.pi, n * num_layers)
        for start in range(num_layers + 1):
            theta = first.copy()
            theta[start * n :] = rng.uniform(-np.pi, np.pi, (num_layers - start) * n)
            want = apply_ansatz(state, AnsatzSpec(n, num_layers, theta))
            apply_ansatz(state, AnsatzSpec(n, num_layers, first), work)
            got = apply_ansatz(state, AnsatzSpec(n, num_layers, theta), work, start)
            assert got.tobytes() == want.tobytes()

    def test_resume_arguments_validated(self):
        ansatz = AnsatzSpec(3, 2, np.ones(6))
        state = uniform_state(3)
        with pytest.raises(ValueError, match="work"):
            apply_ansatz(state, ansatz, start_layer=1)
        with pytest.raises(ValueError, match="shape"):
            apply_ansatz(state, ansatz, np.empty((2, 8)))
        for start in (-1, 3):
            with pytest.raises(ValueError, match="start_layer"):
                apply_ansatz(state, ansatz, np.empty((4, 8)), start)

    def test_dtype_follows_input(self):
        ansatz = AnsatzSpec(5, 3, np.random.default_rng(3).uniform(-np.pi, np.pi, 15))
        real = apply_ansatz(uniform_state(5), ansatz)
        assert uniform_state(5).dtype == np.float64
        assert real.dtype == np.float64
        cplx = apply_ansatz(uniform_state(5).astype(complex), ansatz)
        assert cplx.dtype == np.complex128
        assert np.max(np.abs(cplx.real - real)) <= 1e-12 and not cplx.imag.any()


class TestHistogram:
    def test_basis_state_gets_all_shots(self):
        psi = zero_state(3)
        hist = sample_histogram(psi, shots=500, seed=0)
        assert hist == {0: 500}

    def test_seed_determinism(self):
        psi = uniform_state(4)
        a = sample_histogram(psi, shots=1000, seed=42)
        b = sample_histogram(psi, shots=1000, seed=42)
        assert a == b

    def test_uniform_state_chi_square_sane(self):
        psi = uniform_state(4)
        shots = 16000
        hist = sample_histogram(psi, shots=shots, seed=7)
        expected = shots / 16.0
        chi2 = sum((hist.get(b, 0) - expected) ** 2 / expected for b in range(16))
        assert chi2 < stats.chi2.ppf(0.999, df=15)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample_histogram(uniform_state(2), shots=0)


class TestEncodingMap:
    def test_qubit_counts(self):
        assert EncodingMap(4, 4, 4, 1).num_qubits == 6
        assert EncodingMap(4, 4, 4, 4).num_qubits == 8
        assert EncodingMap(2, 2, 2, 1).num_qubits == 3
        assert EncodingMap(3, 2, 3, 2).num_qubits == 6

    def test_round_trip_all_configs(self):
        for enc in (EncodingMap(4, 4, 4, 1), EncodingMap(2, 2, 2, 4), EncodingMap(3, 2, 3, 2)):
            for idx in range(enc.num_configs):
                basis = enc.encode(idx)
                assert 0 <= basis < 2**enc.num_qubits
                assert enc.decode(basis) == idx

    def test_out_of_range_decodes_to_none(self):
        enc = EncodingMap(3, 2, 3, 1)  # row field holds 0..3 but only 0..2 valid
        assert enc.num_qubits == 5
        total_feasible = sum(enc.decode(b) is not None for b in range(2**enc.num_qubits))
        assert total_feasible == enc.num_configs
        # row value 3 is out of range whatever the other fields say
        assert enc.decode(0b11_0_00) is None
        # type value 3 likewise
        assert enc.decode(0b00_0_11) is None

    def test_decode_matches_the_field_walk_on_every_basis_state(self):
        # ranges 1-5 x 1-5 x 1-4 x 1-4: 400 encodings, 43,681 basis states,
        # every field width from 0 to 3 bits and states with none in range
        states = none = 0
        for h, v, t, o in itertools.product(range(1, 6), range(1, 6), range(1, 5), range(1, 5)):
            enc = EncodingMap(h, v, t, o)
            for basis in range(2**enc.num_qubits):
                expected = decode_fields(enc, basis)
                assert enc.decode(basis) == expected, (enc, basis)
                none += expected is None
            states += 2**enc.num_qubits
        assert states == 43_681 and 0 < none < states


class TestSelectFeasibleTopK:
    enc = EncodingMap(2, 2, 2, 1)  # 5 qubits, 8 candidates, 4 positions

    @staticmethod
    def _positions(num_positions: int, per_type: int) -> np.ndarray:
        # candidate layout is type-major: position = index % num_positions
        return np.array([i % num_positions for i in range(num_positions * per_type)], dtype=np.int64)

    def test_concentrated_histogram_selects_exactly_those(self):
        pos = self._positions(4, 2)
        hist = {self.enc.encode(0): 600, self.enc.encode(5): 400}
        sel = select_feasible_topk(hist, self.enc, 2, pos)
        assert set(sel) == {0, 5}

    def test_position_conflict_skips_to_next(self):
        pos = self._positions(4, 2)
        # candidates 1 and 5 share position 1; third-most-frequent wins instead
        hist = {self.enc.encode(1): 500, self.enc.encode(5): 400, self.enc.encode(2): 300}
        sel = select_feasible_topk(hist, self.enc, 2, pos)
        assert sel == (1, 2)

    def test_out_of_range_encoding_skipped(self):
        enc = EncodingMap(3, 2, 3, 1)  # some basis states decode to nothing
        pos = self._positions(6, 3)
        invalid = next(b for b in range(2**enc.num_qubits) if enc.decode(b) is None)
        hist = {invalid: 900, enc.encode(3): 100}
        sel = select_feasible_topk(hist, enc, 1, pos)
        assert sel == (3,)

    def test_tie_breaks_by_basis_index(self):
        pos = self._positions(4, 2)
        hist = {self.enc.encode(2): 300, self.enc.encode(1): 300}
        sel = select_feasible_topk(hist, self.enc, 1, pos)
        assert sel == (min(
            (self.enc.encode(1), 1), (self.enc.encode(2), 2)
        )[1],)

    def test_insufficient_support(self):
        pos = self._positions(4, 2)
        hist = {self.enc.encode(1): 500, self.enc.encode(5): 400}
        with pytest.raises(InsufficientSupportError):
            select_feasible_topk(hist, self.enc, 2, pos)


class TestFixedCountLoop:
    @staticmethod
    def _dominant_instance():
        """A clustered cloud that one camera placement clearly dominates."""
        from sensorplace.coverage import build_coverage
        from sensorplace.geometry import (
            PlacementGrid,
            RoiCloud,
            Side,
            VehicleModel,
            enumerate_configs,
        )
        from conftest import TWO_TYPE_CATALOG

        rng = np.random.default_rng(99)
        cluster = np.array([16.0, 13.0, 1.0]) + rng.uniform(-1.5, 1.5, (120, 3)) * [1, 1, 0.3]
        far = np.array([300.0, 0.0, 1.0]) + rng.uniform(-2, 2, (40, 3)) * [1, 1, 0.2]
        pts = np.vstack([cluster, far])
        cloud = RoiCloud(pts, np.full(len(pts), 1.0))
        vehicle = VehicleModel()
        catalog = (TWO_TYPE_CATALOG[0],)  # camera only: range matters
        configs = enumerate_configs(catalog, vehicle, PlacementGrid(Side.FRONT, 2, 2))
        data = build_coverage(cloud, configs, catalog)
        return catalog, data

    def test_dominant_config_found_reliably(self):
        catalog, data = self._dominant_instance()
        problem = make_problem(data, catalog, num_sensors=1)
        encoding = EncodingMap(2, 2, len(catalog), 1)
        exact = solve_exhaustive(problem)
        hits = 0
        for seed in range(10):
            run = vqe_fixed_count(
                problem, encoding, optimizer=OptimizerConfig(max_evals=150), seed=seed
            )
            hits += abs(run.result.objective - exact.objective) < 1e-9
        assert hits >= 9

    def test_zero_budget_still_returns_valid_result(self):
        rng = np.random.default_rng(4)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, num_sensors=2)
        encoding = EncodingMap(2, 2, len(catalog), 1)
        run = vqe_fixed_count(problem, encoding, optimizer=OptimizerConfig(max_evals=0), seed=0)
        assert run.num_evals == 1
        assert len(run.result.selected) == 2
        assert run.result.feasible

    def test_trace_written(self, tmp_path):
        rng = np.random.default_rng(5)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, num_sensors=1)
        encoding = EncodingMap(2, 2, len(catalog), 1)
        run = vqe_fixed_count(problem, encoding, optimizer=OptimizerConfig(max_evals=40), seed=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, run.trace)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration,objective,theta0")
        assert len(lines) == 1 + len(run.trace)

    def test_encoding_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        _, _, catalog, data = side_instance(rng, grid=(2, 2))
        problem = make_problem(data, catalog, num_sensors=1)
        with pytest.raises(ValueError):
            vqe_fixed_count(problem, EncodingMap(4, 4, 4, 1), seed=0)


def assert_same_run(got, want):
    """Equal selections, and traces equal bit for bit."""
    assert got.result == want.result
    assert len(got.trace) == len(want.trace)
    for (i, value, theta), (j, want_value, want_theta) in zip(got.trace, want.trace):
        assert i == j
        assert repr(float(value)) == repr(float(want_value))
        assert theta.dtype == want_theta.dtype and theta.tobytes() == want_theta.tobytes()


class TestDriverMatchesOracle:
    """The shared driver reproduces the two separate loops it replaced."""

    @staticmethod
    def _fixed_count_case(k: int, exact: bool, seed: int = 3):
        _, _, catalog, data = side_instance(np.random.default_rng(seed), grid=(2, 2), exact=exact)
        return make_problem(data, catalog, num_sensors=k), EncodingMap(2, 2, len(catalog), 1)

    @pytest.mark.parametrize("exact", [True, False], ids=["dyadic", "float"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("max_evals", [0, 60])
    def test_fixed_count(self, k, exact, max_evals):
        problem, encoding = self._fixed_count_case(k, exact)
        for seed in (0, 1):
            args = dict(optimizer=OptimizerConfig(max_evals=max_evals), shots=200, seed=seed)
            assert_same_run(
                vqe_fixed_count(problem, encoding, **args),
                vqe_fixed_count_loop(problem, encoding, **args),
            )

    def test_few_shots_take_the_penalty_path(self):
        problem, encoding = self._fixed_count_case(2, True)
        penalty = problem.coverage_weight + problem.cost_weight * float(problem.costs.sum()) + 1.0
        args = dict(optimizer=OptimizerConfig(max_evals=40), shots=3, seed=0)
        run = vqe_fixed_count(problem, encoding, **args)
        assert any(value == penalty for _, value, _ in run.trace)
        assert any(value != penalty for _, value, _ in run.trace)
        assert_same_run(run, vqe_fixed_count_loop(problem, encoding, **args))

    def test_all_penalty_raises(self):
        problem, encoding = self._fixed_count_case(2, True)
        args = dict(optimizer=OptimizerConfig(max_evals=40), shots=1, seed=0)
        with pytest.raises(InsufficientSupportError):
            vqe_fixed_count_loop(problem, encoding, **args)
        with pytest.raises(InsufficientSupportError):
            vqe_fixed_count(problem, encoding, **args)

    @pytest.mark.parametrize("num_types", [1, 2], ids=["2-qubits", "3-qubits"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_fixed_count_registers_with_layers_without_a_ring(self, num_types, k):
        # 2 and 3 qubits: the last of three layers maps every control onto itself
        catalog = DEFAULT_CATALOG[:num_types]
        _, _, _, data = side_instance(np.random.default_rng(5), catalog=catalog, grid=(2, 2))
        problem, encoding = make_problem(data, catalog, num_sensors=k), EncodingMap(2, 2, num_types, 1)
        assert encoding.num_qubits == num_types + 1
        for seed in (0, 1):
            args = dict(optimizer=OptimizerConfig(max_evals=60), shots=200, seed=seed)
            assert_same_run(
                vqe_fixed_count(problem, encoding, **args),
                vqe_fixed_count_loop(problem, encoding, **args),
            )

    @pytest.mark.parametrize("num_spins", [1, 2, 3, 4, 5, 8, 10, 12, 13, 16])
    def test_ising(self, num_spins):
        rng = np.random.default_rng(num_spins)
        model = ising_model(
            rng.normal(size=num_spins),
            {(i, j): float(rng.normal()) for i in range(num_spins) for j in range(i + 1, num_spins)},
            float(rng.normal()),
        )
        if num_spins == 4:
            model = ising_model(np.zeros(4), {})  # all energies tie: the first answer must stay
        _, _, catalog, data = random_instance(rng, num_configs=num_spins)
        energies = basis_energies(model)
        # COBYLA starts only on 3n + 2 evaluations or more: 50 at 16 spins, the
        # benchmark's budget; 10 and 13 spins end each layer on a partial RY block
        max_evals = 200 if num_spins <= 8 else 3 * num_spins + 2
        problem = make_problem(data, catalog, None)
        for seed, shared in ((0, None), (1, energies)):
            args = dict(optimizer=OptimizerConfig(max_evals=max_evals), seed=seed, energies=shared)
            assert_same_run(vqe_ising(model, problem, **args), vqe_ising_loop(model, problem, **args))


class TestIsingLoop:
    def test_single_spin_drives_to_ground(self):
        model = ising_model(np.array([-1.0]), {}, 0.0)
        _, _, catalog, data = random_instance(np.random.default_rng(0), num_configs=1)
        run = vqe_ising(
            model, make_problem(data, catalog, None), num_layers=1,
            optimizer=OptimizerConfig(max_evals=80), seed=0,
        )
        assert min(value for _, value, _ in run.trace) == pytest.approx(-1.0, abs=1e-6)
        assert run.result.selected == (0,)
        bits = np.zeros(1)
        bits[list(run.result.selected)] = 1
        assert model.energy_of_bits(bits) == -1.0

    @pytest.mark.parametrize("length", [2**3 - 4, 2**3 + 1], ids=["short", "long"])
    def test_energy_table_of_the_wrong_length_rejected_before_evaluating(self, length, monkeypatch):
        model = ising_model(np.ones(3), {(0, 1): 0.5})
        _, _, catalog, data = random_instance(np.random.default_rng(2), num_configs=3)
        evaluations = []
        monkeypatch.setattr(vqe, "apply_ansatz", lambda *args: evaluations.append(args))
        with pytest.raises(ValueError, match="energies"):
            vqe_ising(model, make_problem(data, catalog, None), seed=0, energies=np.zeros(length))
        assert evaluations == []

    def test_resumed_evaluations_skip_a_quarter_of_the_layers(self, monkeypatch):
        # COBYLA's first simplex moves one angle at a time, so most evaluations
        # share their leading layers with the one before
        rng = np.random.default_rng(16)
        model = ising_model(
            rng.normal(size=16),
            {(i, j): float(rng.normal()) for i in range(16) for j in range(i + 1, 16)},
        )
        _, _, catalog, data = random_instance(rng, num_configs=16)
        layers = []
        build = vqe._ry_blocks
        monkeypatch.setattr(vqe, "_ry_blocks", lambda angles: layers.append(1) or build(angles))
        run = vqe_ising(model, make_problem(data, catalog, None), optimizer=OptimizerConfig(max_evals=50), seed=0)
        assert run.num_evals == 51
        assert len(layers) <= 0.75 * 3 * run.num_evals

    def test_answer_maps_back_through_the_kept_candidates(self):
        # seed 5 leaves 6 of 10 candidates free and sets 3 of the others to 1
        _, _, catalog, data = random_instance(np.random.default_rng(5), num_configs=10)
        model = build_iqp(data, catalog)
        reduced, kept, fixed = fix_persistent(model)
        assert len(kept) == 6 and fixed.sum() == 3
        problem = make_problem(data, catalog, None)
        ising = to_ising(reduced)
        run = vqe_ising(ising, problem, optimizer=OptimizerConfig(max_evals=40), seed=0, kept=kept, fixed=fixed)
        assert len(run.trace[0][2]) == 6 * 3
        bits = np.zeros(10, dtype=np.uint8)
        bits[list(run.result.selected)] = 1
        others = np.setdiff1d(np.arange(10), kept)
        assert np.array_equal(bits[others], fixed[others])
        assert model.energy(bits) == pytest.approx(ising.energy_of_bits(bits[kept]), abs=1e-12)
        # without the map, 6 spins cannot stand for 10 candidates
        with pytest.raises(ValueError, match="one spin per kept candidate"):
            vqe_ising(ising, problem, seed=0)
        with pytest.raises(ValueError, match="one fixed bit per candidate"):
            vqe_ising(ising, problem, seed=0, kept=kept, fixed=fixed[:-1])

    def test_zero_model_expectation_is_zero(self):
        model = ising_model(np.zeros(3), {}, 0.0)
        _, _, catalog, data = random_instance(np.random.default_rng(1), num_configs=3)
        run = vqe_ising(model, make_problem(data, catalog, None), optimizer=OptimizerConfig(max_evals=30), seed=1)
        assert all(abs(e) < 1e-12 for _, e, _ in run.trace)

    def test_basis_energies_match_model(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=4)
        model = ising_model(h, {(0, 1): 0.5, (1, 3): -0.25, (2, 3): 1.5}, 0.3)
        energies = basis_energies(model)
        for basis in range(16):
            bits = [(basis >> (3 - q)) & 1 for q in range(4)]
            assert energies[basis] == pytest.approx(model.energy_of_bits(bits), abs=1e-12)

    def test_expectation_consistency_samples_vs_exact(self):
        # sample-estimated energy approaches the exact expectation
        rng = np.random.default_rng(8)
        model = ising_model(rng.normal(size=3), {(0, 2): 0.7}, 0.1)
        energies = basis_energies(model)
        theta = rng.uniform(-np.pi, np.pi, 9)
        state = apply_ansatz(uniform_state(3), AnsatzSpec(3, 3, theta))
        probs = np.abs(state) ** 2
        exact = float(probs @ energies)
        shots = 200_000
        hist = sample_histogram(state, shots=shots, seed=3)
        estimate = sum(c * energies[b] for b, c in hist.items()) / shots
        sigma = math.sqrt(float(probs @ (energies - exact) ** 2) / shots)
        assert abs(estimate - exact) < 3.0 * sigma + 1e-9


class TestOptimizerBudget:
    def test_cobyla_never_overspends(self):
        # 8 spins x 3 layers = 24 angles: COBYLA needs at least 26 evaluations
        # per start, more than the 20 left after the first 100-evaluation start.
        rng = np.random.default_rng(11)
        model = ising_model(
            rng.normal(size=8),
            {(i, j): float(rng.normal()) for i in range(8) for j in range(i + 1, 8)},
        )
        _, _, catalog, data = random_instance(rng, num_configs=8)
        optimizer = OptimizerConfig(max_evals=120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = vqe_ising(model, make_problem(data, catalog, None), optimizer=optimizer, seed=0)
        assert out.num_evals <= optimizer.max_evals + 1
        assert len(out.trace) == out.num_evals

    def test_package_import_defers_scipy_optimize(self):
        src = Path(sensorplace.__file__).resolve().parents[1]
        probe = "import sys, sensorplace; print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"
