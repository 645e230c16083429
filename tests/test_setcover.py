"""Quadratic coverage model, QUBO/Ising conversion, exhaustive enumeration."""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

from sensorplace.coverage import exact_union_coverage
from sensorplace.errors import BudgetExceededError
from sensorplace.exports import read_qubo_coo, write_iqp_lp, write_qubo_coo
from sensorplace.fixed_count import make_problem
from sensorplace.geometry import config_costs
from sensorplace.setcover import (
    IsingModel,
    QuadraticModel,
    approx_coverage,
    build_iqp,
    energy_blocks,
    enumerate_bits,
    fix_persistent,
    solve_exhaustive_qubo,
    to_ising,
    to_qubo,
)

from conftest import TWO_TYPE_CATALOG, random_instance, side_instance
from qubo_oracle import BLOCK, all_energies, solve_exhaustive_qubo_blockwise
from test_fixed_count import disjoint_instance


def random_qubo(rng: np.random.Generator, n: int, dyadic: bool = False) -> QuadraticModel:
    if dyadic:
        linear = rng.integers(-2048, 2049, n) / 1024.0
        upper = rng.integers(-2048, 2049, (n, n)) / 1024.0
    else:
        linear = rng.normal(size=n)
        upper = rng.normal(size=(n, n))
    quad = np.triu(upper, 1)
    quad = quad + quad.T
    return QuadraticModel(
        linear=np.asarray(linear, dtype=float),
        quadratic=quad,
        offset=float(rng.integers(-8, 9) / 4.0) if dyadic else float(rng.normal()),
        variable_names=tuple(f"x{i}" for i in range(n)),
    )


def all_assignments(n: int) -> np.ndarray:
    return enumerate_bits(np.arange(2**n, dtype=np.int64), n)


class TestApproxCoverage:
    def test_single_sensor_reduces_to_singles(self):
        rng = np.random.default_rng(0)
        _, _, _, data = random_instance(rng)
        for i in range(data.num_configs):
            x = np.zeros(data.num_configs)
            x[i] = 1.0
            assert approx_coverage(x, data) == pytest.approx(data.singles[i], abs=1e-15)

    def test_all_zeros(self):
        rng = np.random.default_rng(1)
        _, _, _, data = random_instance(rng)
        assert approx_coverage(np.zeros(data.num_configs), data) == 0.0

    def test_disjoint_pair_equals_exact_union(self):
        _, _, _, data = disjoint_instance(5)
        x = np.zeros(5)
        x[1] = x[3] = 1.0
        assert data.overlaps[1, 3] == 0.0
        approx = approx_coverage(x, data)
        assert approx == pytest.approx(data.singles[1] + data.singles[3], abs=1e-15)
        assert approx == pytest.approx(exact_union_coverage([1, 3], data), abs=1e-12)

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(2)
        _, _, _, data = random_instance(rng)
        with pytest.raises(ValueError):
            approx_coverage(np.zeros(data.num_configs + 1), data)


class TestBuildIqp:
    def test_singleton_energy(self):
        rng = np.random.default_rng(3)
        _, _, catalog, data = random_instance(rng)
        w1, w2 = 1.0, 1e-4
        model = build_iqp(data, catalog, w1, w2)
        costs = config_costs(data.configs, catalog)
        for i in range(data.num_configs):
            x = np.zeros(data.num_configs)
            x[i] = 1.0
            assert model.energy(x) == pytest.approx(-w1 * data.singles[i] + w2 * costs[i], abs=1e-14)

    def test_energy_matches_definition_on_random_vectors(self):
        for seed in range(4):
            rng = np.random.default_rng(500 + seed)
            _, _, catalog, data = random_instance(rng, num_configs=11)
            w1, w2 = 0.9, 2e-4
            model = build_iqp(data, catalog, w1, w2)
            costs = config_costs(data.configs, catalog)
            for _ in range(100):
                x = rng.integers(0, 2, data.num_configs).astype(float)
                reference = -w1 * approx_coverage(x, data) + w2 * float(costs @ x)
                assert model.energy(x) == pytest.approx(reference, abs=1e-12)

    def test_all_zeros_energy_is_zero(self):
        rng = np.random.default_rng(4)
        _, _, catalog, data = random_instance(rng)
        model = build_iqp(data, catalog)
        assert model.energy(np.zeros(data.num_configs)) == 0.0

    def test_zero_diagonal_symmetric(self):
        rng = np.random.default_rng(5)
        _, _, catalog, data = random_instance(rng)
        model = build_iqp(data, catalog)
        assert np.all(model.quadratic.diagonal() == 0.0)
        assert np.array_equal(model.quadratic, model.quadratic.T)


class TestIsingConversion:
    def test_one_variable_closed_form(self):
        model = QuadraticModel(
            linear=np.array([0.75]),
            quadratic=np.zeros((1, 1)),
            offset=0.0,
            variable_names=("x0",),
        )
        ising = to_ising(model)
        assert ising.h[0] == 0.375
        assert ising.offset == 0.375
        assert not ising.J.any()

    def test_zero_model_maps_to_zero(self):
        model = QuadraticModel(
            linear=np.zeros(3),
            quadratic=np.zeros((3, 3)),
            offset=0.0,
            variable_names=("x0", "x1", "x2"),
        )
        ising = to_ising(model)
        assert np.all(ising.h == 0.0) and ising.offset == 0.0 and not ising.J.any()

    def test_energies_agree_exactly_on_dyadic_models(self):
        # dyadic coefficients keep the substitution arithmetic exact
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            n = int(rng.integers(2, 9))
            model = random_qubo(rng, n, dyadic=True)
            ising = to_ising(model)
            bits = all_assignments(n)
            eq = model.energies(bits)
            ei = np.array([ising.energy_of_bits(b) for b in bits])
            assert np.array_equal(eq, ei)

    def test_energies_agree_on_float_models(self):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(2, 11))
            model = random_qubo(rng, n)
            ising = to_ising(model)
            bits = all_assignments(n)
            eq = model.energies(bits)
            ei = np.array([ising.energy_of_bits(b) for b in bits])
            assert np.max(np.abs(eq - ei)) < 1e-12 * max(1.0, np.max(np.abs(eq)))

    def test_round_trip_preserves_energies_and_argmin(self):
        for seed in range(5):
            rng = np.random.default_rng(800 + seed)
            n = int(rng.integers(2, 9))
            model = random_qubo(rng, n, dyadic=True)
            back = to_qubo(to_ising(model), model.variable_names)
            bits = all_assignments(n)
            e1 = model.energies(bits)
            e2 = back.energies(bits)
            assert np.array_equal(e1, e2)
            assert np.array_equal(np.flatnonzero(e1 == e1.min()), np.flatnonzero(e2 == e2.min()))

    def test_J_must_be_symmetric_with_zero_diagonal(self):
        asymmetric = np.zeros((3, 3))
        asymmetric[2, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            IsingModel(h=np.zeros(3), J=asymmetric, offset=0.0)
        with pytest.raises(ValueError, match="zero diagonal"):
            IsingModel(h=np.zeros(3), J=np.eye(3), offset=0.0)
        with pytest.raises(ValueError, match="shape"):
            IsingModel(h=np.zeros(3), J=np.zeros((2, 2)), offset=0.0)
        IsingModel(h=np.zeros(3), J=asymmetric + asymmetric.T, offset=0.0)

    def test_to_ising_J_is_half_the_quadratic_matrix(self):
        model = random_qubo(np.random.default_rng(900), 6, dyadic=True)
        ising = to_ising(model)
        assert np.array_equal(ising.J, model.quadratic / 2.0)


class TestSolveExhaustiveQubo:
    def test_all_negative_diagonal_selects_everything(self):
        n = 6
        model = QuadraticModel(
            linear=-np.ones(n),
            quadratic=np.zeros((n, n)),
            offset=0.0,
            variable_names=tuple(f"x{i}" for i in range(n)),
        )
        bits, energy = solve_exhaustive_qubo(model)
        assert np.all(bits == 1)
        assert energy == -6.0

    def test_matches_brute_force_on_downscaled_instance(self):
        from conftest import TWO_TYPE_CATALOG

        rng = np.random.default_rng(7)
        _, _, catalog, data = side_instance(rng, catalog=TWO_TYPE_CATALOG, grid=(2, 2))
        assert data.num_configs == 8
        model = build_iqp(data, catalog)
        bits, energy = solve_exhaustive_qubo(model)
        ref = min(model.energy(b) for b in all_assignments(8))
        assert energy == ref
        assert model.energy(bits) == energy

    def test_separable_instance_selects_profitable_sensors(self):
        _, _, catalog, data = disjoint_instance(6, costs=[10, 4000, 10, 4000, 10, 10])
        w1, w2 = 1.0, 1e-4
        model = build_iqp(data, catalog, w1, w2)
        costs = config_costs(data.configs, catalog)
        bits, _ = solve_exhaustive_qubo(model)
        expected = (w1 * data.singles > w2 * costs).astype(np.uint8)
        assert np.array_equal(bits, expected)

    def test_budget_guard(self):
        n = 30
        model = QuadraticModel(
            linear=np.zeros(n),
            quadratic=np.zeros((n, n)),
            offset=0.0,
            variable_names=tuple(f"x{i}" for i in range(n)),
        )
        with pytest.raises(BudgetExceededError):
            solve_exhaustive_qubo(model)

    def test_lexicographic_tie_break(self):
        # two degenerate minimizers: 01 and 10; 01 is lexicographically smaller
        model = QuadraticModel(
            linear=np.array([-1.0, -1.0]),
            quadratic=np.array([[0.0, 1.0], [1.0, 0.0]]),
            offset=0.0,
            variable_names=("x0", "x1"),
        )
        bits, energy = solve_exhaustive_qubo(model)
        assert energy == -1.0
        assert bits.tolist() == [0, 1]

    def test_budget_guard_starts_at_25_bits(self):
        n = 25
        model = QuadraticModel(
            linear=np.zeros(n),
            quadratic=np.zeros((n, n)),
            offset=0.0,
            variable_names=tuple(f"x{i}" for i in range(n)),
        )
        with pytest.raises(BudgetExceededError) as info:
            solve_exhaustive_qubo(model)
        assert (info.value.count, info.value.budget) == (2**25, 2**24)

    def test_24_bit_float_model_is_a_local_minimum_within_5_s(self):
        model = random_qubo(np.random.default_rng(1200), 24)
        start = time.perf_counter()
        bits, energy = solve_exhaustive_qubo(model)
        assert time.perf_counter() - start < 5.0
        exact = model.energy(bits)
        assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))
        for i in range(24):
            flipped = bits.copy()
            flipped[i] ^= 1
            assert model.energy(flipped) >= exact


class TestEnergyTableMatchesBlockwiseOracle:
    @pytest.mark.parametrize("n", range(21))
    def test_dyadic_tables_and_search_are_exact(self, n):
        model = random_qubo(np.random.default_rng(1000 + n), n, dyadic=True)
        for form in (model, to_ising(model)):
            blocks = list(energy_blocks(form))
            assert max(len(block) for block in blocks) <= BLOCK
            assert np.array_equal(np.concatenate(blocks), all_energies(form))
        bits, energy = solve_exhaustive_qubo(model)
        ref_bits, ref_energy = solve_exhaustive_qubo_blockwise(model)
        assert np.array_equal(bits, ref_bits) and energy == ref_energy

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 15, 16, 17, 20])
    def test_float_tables_agree_to_rounding(self, n):
        model = random_qubo(np.random.default_rng(1100 + n), n)
        for form in (model, to_ising(model)):
            table = np.concatenate(list(energy_blocks(form)))
            ref = all_energies(form)
            assert np.all(np.abs(table - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert np.argmin(table) == np.argmin(ref)
        bits, energy = solve_exhaustive_qubo(model)
        ref_bits, ref_energy = solve_exhaustive_qubo_blockwise(model)
        assert np.array_equal(bits, ref_bits)
        assert abs(energy - ref_energy) <= 1e-12 * max(1.0, abs(ref_energy))

    @pytest.mark.parametrize("n", [17, 18])
    def test_tie_across_a_block_boundary_goes_to_the_lower_index(self, n):
        # variable s and the 16 after it: s = 0 with all 16 set ends one block,
        # s = 1 with none set starts the next, and both have energy -16
        s = n - 17
        linear = np.ones(n)
        linear[s] = -16.0
        linear[s + 1 :] = -1.0
        quadratic = np.zeros((n, n))
        quadratic[s, s + 1 :] = quadratic[s + 1 :, s] = 0.5
        model = QuadraticModel(linear, quadratic, 0.0, tuple(f"x{i}" for i in range(n)))
        energies = all_energies(model)
        assert energies[BLOCK - 1] == energies[BLOCK] == energies.min() == -16.0
        bits, energy = solve_exhaustive_qubo(model)
        assert energy == -16.0
        assert np.array_equal(bits, enumerate_bits(np.array([BLOCK - 1]), n)[0])
        assert np.array_equal(bits, solve_exhaustive_qubo_blockwise(model)[0])


def qubo(linear, pairs: dict[tuple[int, int], float], offset: float = 0.0) -> QuadraticModel:
    """Binary model with the given linear terms and per-pair values ``{(i, j): quadratic_ij}``."""
    linear = np.asarray(linear, dtype=float)
    quadratic = np.zeros((len(linear), len(linear)))
    for (i, j), value in pairs.items():
        quadratic[i, j] = quadratic[j, i] = value
    return QuadraticModel(linear, quadratic, offset, tuple(f"x{i}" for i in range(len(linear))))


def expand(reduced_bits, kept, fixed):
    bits = fixed.copy()
    bits[kept] = reduced_bits
    return bits


def coverage_models(exact: bool):
    """Free-count models of up to 20 candidates, with dyadic criticalities
    when ``exact``; the larger cost weight settles more of them."""
    models = []
    for seed, cost_weight in enumerate((1e-4, 1e-3) * 4):
        rng = np.random.default_rng(3000 + seed)
        for _, _, catalog, data in (
            random_instance(rng, num_configs=6 + 2 * seed, exact=exact),
            side_instance(rng, grid=(2, 2), exact=exact),
            side_instance(rng, catalog=TWO_TYPE_CATALOG, grid=(2, 3), exact=exact),
            side_instance(rng, catalog=TWO_TYPE_CATALOG, grid=(1, 4), orientations=(-30.0, 30.0), exact=exact),
        ):
            models.append(build_iqp(data, catalog, cost_weight=cost_weight))
    return models


def dyadic_models():
    """Dyadic models with non-negative couplings on about 40 % of the pairs."""
    models = []
    for n in range(1, 21):
        rng = np.random.default_rng(3100 + n)
        linear = rng.integers(-2048, 2049, n) / 1024.0
        upper = np.triu(rng.integers(0, 1025, (n, n)) / 1024.0, 1) * (rng.random((n, n)) < 0.4)
        quadratic = upper + upper.T
        models.append(QuadraticModel(linear, quadratic, rng.integers(-8, 9) / 4.0, tuple(f"x{i}" for i in range(n))))
    return models


class TestFixPersistent:
    @pytest.mark.parametrize("exact", [True, False], ids=["dyadic", "float"])
    def test_mapped_back_minimizer_is_the_full_search_s(self, exact):
        # a coverage model divides by the cloud's total criticality, so only
        # the dyadic models' energies are exact
        models = [(m, False) for m in coverage_models(exact)] + [(m, True) for m in dyadic_models() if exact]
        reduced_somewhere = forced_somewhere = False
        for model, exact_energy in models:
            reduced, kept, fixed = fix_persistent(model)
            assert np.array_equal(kept, np.sort(kept)) and not fixed[kept].any()
            # linear < 0 <= linear + 2 sum_j q_ij leaves every kept variable
            # coupled, so the annealer never gets an uncoupled spin
            assert reduced.quadratic.any(axis=1).all()
            reduced_somewhere |= len(kept) < model.num_variables
            forced_somewhere |= bool(fixed.any())
            bits, energy = solve_exhaustive_qubo(model)
            if not len(kept):
                assert np.array_equal(fixed, bits)
                continue
            reduced_bits, reduced_energy = solve_exhaustive_qubo(reduced)
            assert np.array_equal(expand(reduced_bits, kept, fixed), bits)
            if exact_energy:
                assert reduced_energy == energy
            else:
                assert abs(reduced_energy - energy) <= 1e-12 * max(1.0, abs(energy))
        assert reduced_somewhere and forced_somewhere

    def test_reduced_energies_are_the_full_energies_on_the_kept_bits(self):
        for model in dyadic_models():
            reduced, kept, fixed = fix_persistent(model)
            if len(kept):
                assignments = all_assignments(len(kept))
                full = np.array([expand(a, kept, fixed) for a in assignments])
                assert np.array_equal(reduced.energies(assignments), model.energies(full))
                assert reduced.variable_names == tuple(model.variable_names[i] for i in kept)

    def test_negative_coupling_comes_back_unreduced(self):
        # x1 and x2 would be settled if the coupling of x0 and x1 were not negative
        model = qubo([-1.0, 2.0, -3.0], {(0, 1): -0.5})
        reduced, kept, fixed = fix_persistent(model)
        assert reduced is model
        assert kept.tolist() == [0, 1, 2] and fixed.tolist() == [0, 0, 0]

    def test_forces_a_variable_to_one(self):
        # x0 lowers the energy whatever the others do: -2 + 2 * 0.25 < 0
        model = qubo([-2.0, -1.0, -1.0], {(0, 1): 0.25, (1, 2): 1.0}, offset=0.5)
        reduced, kept, fixed = fix_persistent(model)
        assert kept.tolist() == [1, 2] and fixed.tolist() == [1, 0, 0]
        # x0 = 1 folds -2 into the offset and 2 * 0.25 into x1's linear term
        assert reduced.offset == -1.5
        assert reduced.linear.tolist() == [-0.5, -1.0]
        assert reduced.quadratic.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        reduced_bits, energy = solve_exhaustive_qubo(reduced)
        bits, full_energy = solve_exhaustive_qubo(model)
        assert expand(reduced_bits, kept, fixed).tolist() == bits.tolist() == [1, 0, 1]
        assert energy == full_energy == -2.5

    def test_repeats_until_no_rule_applies(self):
        # pass 1 forces x0 to 1 and so raises x1's linear term to 0.5; pass 2
        # settles x1 at 0 and so uncouples x2, which pass 3 forces to 1
        model = qubo([-2.0, -0.5, -0.5], {(0, 1): 0.5, (1, 2): 0.5})
        reduced, kept, fixed = fix_persistent(model)
        assert reduced.num_variables == 0 and kept.size == 0
        assert reduced.offset == -2.5
        assert fixed.tolist() == [1, 0, 1]
        bits, energy = solve_exhaustive_qubo(model)
        assert bits.tolist() == [1, 0, 1] and energy == -2.5

    def test_zero_linear_term_is_settled_at_zero(self):
        # 0 and 1 tie for x1; the lexicographically smaller minimizer clears it
        model = qubo([-1.0, 0.0], {})
        reduced, kept, fixed = fix_persistent(model)
        assert kept.tolist() == [] and fixed.tolist() == [1, 0]
        assert solve_exhaustive_qubo(model)[0].tolist() == [1, 0]


class TestExports:
    def test_qubo_coo_round_trip(self):
        rng = np.random.default_rng(8)
        _, _, catalog, data = random_instance(rng, num_configs=7)
        model = build_iqp(data, catalog)
        buf = io.StringIO()
        write_qubo_coo(buf, model)
        buf.seek(0)
        back = read_qubo_coo(buf)
        assert np.array_equal(back.linear, model.linear)
        assert np.array_equal(back.quadratic, model.quadratic)
        assert back.offset == model.offset

    def test_iqp_lp_structure(self):
        rng = np.random.default_rng(9)
        _, _, catalog, data = side_instance(rng, grid=(2, 2), num_points=80)
        model = build_iqp(data, catalog)
        buf = io.StringIO()
        write_iqp_lp(buf, model, make_problem(data, catalog, None))
        text = buf.getvalue()
        assert "Minimize" in text and "] / 2" in text and text.rstrip().endswith("End")
        assert sum(1 for line in text.splitlines() if line.startswith(" pos")) == 4
        # every candidate label is documented in the header comments
        for name in model.variable_names:
            assert name in text
