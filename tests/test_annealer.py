"""Simulated annealing: analytic ground states, determinism, bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sensorplace import annealer, pipeline
from sensorplace.annealer import (
    AnnealSchedule,
    anneal,
    best_selection,
    scaled_schedule,
    suggest_beta_range,
    _read_rng,
)
from sensorplace.coverage import limb_total
from sensorplace.fixed_count import make_problem
from sensorplace.geometry import SIDE_ORDER, Side
from sensorplace.reporting import write_samples_csv
from sensorplace.setcover import IsingModel, build_iqp, fix_persistent, solve_exhaustive_qubo, to_ising

from annealer_oracle import anneal_read_major
from conftest import TWO_TYPE_CATALOG, ising_model, side_instance
from test_fixed_count import disjoint_instance
from test_setcover import random_qubo


def quick_schedule(seed: int = 0, reads: int = 200, sweeps: int = 150) -> AnnealSchedule:
    return AnnealSchedule(num_reads=reads, sweeps_per_read=sweeps, seed=seed)


class StubRng:
    """A read's real generator for its initial spins, with ``random`` replaced."""

    def __init__(self, seed, read_index):
        self.rng = _read_rng(seed, read_index)

    def integers(self, *args):
        return self.rng.integers(*args)


class DrawReached(Exception):
    pass


class RaisingRng(StubRng):
    def random(self, out):
        raise DrawReached


class ZeroRng(StubRng):
    def random(self, out):
        out[...] = 0.0


class TestAnalyticGroundStates:
    def test_ferromagnetic_pair(self):
        # aligned spins minimize a negative coupling; both ground states appear
        model = ising_model(np.zeros(2), {(0, 1): -1.0}, 0.25)
        samples = anneal(model, quick_schedule())
        _, best_energy = samples.best()
        assert best_energy == pytest.approx(-1.0 + 0.25)
        seen = {tuple(bits) for bits in samples.assignments}
        assert (0, 0) in seen and (1, 1) in seen

    def test_single_spin_field(self):
        model = ising_model(np.array([-1.0]), {}, 0.0)
        samples = anneal(model, quick_schedule())
        bits, energy = samples.best()
        assert bits.tolist() == [1]  # spin +1 under the bit convention
        assert energy == -1.0

    def test_frustrated_triangle(self):
        # all-positive J: best any assignment can do is one unsatisfied edge
        model = ising_model(np.zeros(3), {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 0.0)
        samples = anneal(model, quick_schedule())
        assert samples.best()[1] == pytest.approx(-1.0)


class TestDeterminismAndBookkeeping:
    def test_identical_schedule_reproduces_sampleset(self):
        rng = np.random.default_rng(0)
        model = to_ising(random_qubo(rng, 8))
        a = anneal(model, quick_schedule(seed=123))
        b = anneal(model, quick_schedule(seed=123))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.multiplicities, b.multiplicities)

    @pytest.mark.parametrize("sweeps_per_block", [1, 3, 7])
    def test_sweep_blocks_do_not_change_samples(self, monkeypatch, sweeps_per_block):
        # 20 sweeps drawn in blocks of 1, 3 or 7 (the last block of 3 or 7
        # is shorter and reuses the front of the buffer) match the
        # single-block run
        rng = np.random.default_rng(5)
        model = to_ising(random_qubo(rng, 8))
        schedule = quick_schedule(seed=9, reads=31, sweeps=20)
        whole = anneal(model, schedule)
        monkeypatch.setattr("sensorplace.annealer._TAPE_BUDGET", sweeps_per_block * 31 * 8)
        blocked = anneal(model, schedule)
        assert np.array_equal(whole.assignments, blocked.assignments)
        assert np.array_equal(whole.energies, blocked.energies)
        assert np.array_equal(whole.multiplicities, blocked.multiplicities)

    def test_each_anneal_maps_one_uniform_buffer(self, monkeypatch):
        # every proposal reads its uniforms where they were drawn, so an
        # anneal maps one (reads, block, n) buffer and no second copy
        sizes = []
        mapped = annealer._mapped_buffer

        def recorded(shape):
            sizes.append(math.prod(shape))
            return mapped(shape)

        monkeypatch.setattr(annealer, "_mapped_buffer", recorded)
        model = to_ising(random_qubo(np.random.default_rng(8), 8))
        anneal(model, quick_schedule(seed=3, reads=31, sweeps=20))
        monkeypatch.setattr(annealer, "_TAPE_BUDGET", 7 * 31 * 8)
        anneal(model, quick_schedule(seed=3, reads=31, sweeps=20))
        assert sizes == [31 * 20 * 8, 31 * 7 * 8]

    def test_a_huge_sweep_count_reaches_its_first_draw(self, monkeypatch):
        # the betas are formed one block of sweeps at a time, so 10**12
        # sweeps need no ramp of 10**12 doubles before the first draw
        monkeypatch.setattr(annealer, "_read_rng", RaisingRng)
        model = ising_model(np.array([0.5, -0.25]), {(0, 1): 1.0})
        with pytest.raises(DrawReached):
            anneal(model, AnnealSchedule(num_reads=1, sweeps_per_read=10**12))

    def test_block_betas_are_slices_of_the_whole_ramp(self):
        schedule = AnnealSchedule(sweeps_per_read=10**5, beta_start=0.0203, beta_end=69.02)
        whole = schedule.betas()
        assert whole[0] == 0.0203 and whole.shape == (10**5,)
        blocks = [schedule.betas(first, min(54, 10**5 - first)) for first in range(0, 10**5, 54)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert AnnealSchedule(sweeps_per_read=1).betas(0, 1).tolist() == [0.1]

    def test_different_seed_differs(self):
        rng = np.random.default_rng(1)
        model = to_ising(random_qubo(rng, 8))
        a = anneal(model, quick_schedule(seed=1))
        b = anneal(model, quick_schedule(seed=2))
        same = len(a) == len(b) and np.array_equal(a.multiplicities, b.multiplicities) and np.array_equal(a.assignments, b.assignments)
        assert not same

    def test_energies_match_model_evaluation(self):
        rng = np.random.default_rng(2)
        model = to_ising(random_qubo(rng, 7))
        samples = anneal(model, quick_schedule())
        for bits, energy in zip(samples.assignments, samples.energies):
            assert abs(model.energy_of_bits(bits) - energy) <= 1e-9

    def test_sorted_by_energy(self):
        rng = np.random.default_rng(3)
        model = to_ising(random_qubo(rng, 6))
        samples = anneal(model, quick_schedule())
        assert np.all(np.diff(samples.energies) >= 0.0)
        assert int(samples.multiplicities.sum()) == 200

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_order_is_the_energy_then_bits_lexsort(self, seed):
        # couplings of -1, 0 or 1 and no fields tie many energies; a hot ramp
        # keeps many distinct samples, each tie ordered by ascending bits
        rng = np.random.default_rng(seed)
        n = 8
        pairs = {(i, j): float(rng.integers(-1, 2)) for i in range(n) for j in range(i + 1, n)}
        model = ising_model(np.zeros(n), pairs)
        schedule = AnnealSchedule(num_reads=300, sweeps_per_read=3, beta_start=0.01, beta_end=0.02, seed=seed)
        samples = anneal(model, schedule)
        bits, energies = samples.assignments, samples.energies
        assert len(np.unique(energies)) < len(samples) - 20
        lexsort = np.lexsort(tuple(bits[:, c] for c in range(n - 1, -1, -1)) + (energies,))
        assert lexsort.tolist() == list(range(len(samples)))

    def test_pure_descent_at_large_beta(self):
        # effectively zero temperature: final energy never exceeds the
        # energy of the read's own initial state
        rng = np.random.default_rng(4)
        model = to_ising(random_qubo(rng, 9))
        schedule = AnnealSchedule(num_reads=64, sweeps_per_read=40, beta_start=1e8, beta_end=1e9, seed=5)
        samples = anneal(model, schedule)
        best_by_read = {}
        for r in range(schedule.num_reads):
            init = _read_rng(schedule.seed, r).integers(0, 2, model.num_spins) * 2.0 - 1.0
            init_energy = model.energy(init)
            # the sampler's result pool must contain something no worse
            assert samples.best()[1] <= init_energy + 1e-9

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(num_reads=0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_start=2.0, beta_end=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_start=0.0)

    @pytest.mark.parametrize("beta_start, beta_end", [(0.1, math.inf), (0.1, math.nan), (1e-300, 1e300)])
    def test_schedule_rejects_a_ramp_with_an_infinite_beta(self, beta_start, beta_end):
        # beta_start * (beta_end / beta_start) ** t is inf past the first
        # sweep in all three, and at beta = inf a zero move is 0 * inf = NaN
        with pytest.raises(ValueError, match="finite"):
            AnnealSchedule(beta_start=beta_start, beta_end=beta_end)

    @pytest.mark.parametrize(
        "h",
        [
            [1.0, 5e-324],   # log(100) / (2 * 5e-324) overflows
            [1e300, 1e-10],  # the cold end is finite, its ratio to the hot end is not
        ],
    )
    def test_scaled_beta_range_falls_back_to_a_finite_cold_end(self, h):
        model = ising_model(np.array(h), {}, 0.0)
        hot, cold = suggest_beta_range(model)
        assert hot == math.log(2.0) / (2.0 * h[0]) and cold == hot * 100.0
        # at the finite cold end the uphill spin 0 relaxes in every read
        samples = anneal(model, scaled_schedule(model, num_reads=20, sweeps_per_read=50, seed=1))
        assert samples.assignments[:, 0].tolist() == [0] * len(samples)

    def test_scaled_beta_range_falls_back_when_no_term_is_resolvable(self):
        # the hot end log(2) / 2e-310 itself overflows
        assert suggest_beta_range(ising_model(np.array([1e-310, 0.0]), {}, 0.0)) == (0.1, 10.0)

    def test_scaled_beta_range_rejects_an_overflowed_model(self):
        model = ising_model(np.array([math.inf, 0.0]), {(0, 1): 1.0}, 0.0)
        with pytest.raises(ValueError, match="overflow"):
            suggest_beta_range(model)

    def test_scaled_beta_range_resolves_small_terms(self):
        # mixed scales: an O(1) coupling next to an O(1e-3) field
        model = ising_model(np.array([0.002, 0.0]), {(0, 1): 1.0}, 0.0)
        hot, cold = suggest_beta_range(model)
        assert hot == pytest.approx(np.log(2.0) / (2.0 * 1.002))
        assert cold == pytest.approx(np.log(100.0) / (2.0 * 0.002))
        schedule = scaled_schedule(model, num_reads=10, sweeps_per_read=5, seed=1)
        assert schedule.beta_start == hot and schedule.beta_end == cold

    def test_scaled_beta_range_matches_per_pair_loop_bit_for_bit(self):
        # reference: walk the pairs i < j and add |J_ij| to both spins' fields,
        # so each field is summed in index order, |h_k| + |J_k0| + |J_k1| + ...
        for seed in range(10):
            rng = np.random.default_rng(1100 + seed)
            n = int(rng.integers(20, 41))
            model = to_ising(random_qubo(rng, n))
            fields = np.abs(model.h)
            scales = [abs(v) for v in model.h if v != 0.0]
            for i in range(n):
                for j in range(i + 1, n):
                    v = model.J[i, j]
                    fields[i] += abs(v)
                    fields[j] += abs(v)
                    if v != 0.0:
                        scales.append(abs(v))
            hot = np.log(2.0) / (2.0 * float(fields.max()))
            cold = np.log(100.0) / (2.0 * min(scales))
            assert suggest_beta_range(model) == (hot, cold)

    def test_scaled_beta_range_falls_back_on_empty_model(self):
        model = ising_model(np.zeros(3), {}, 0.0)
        assert suggest_beta_range(model) == (0.1, 10.0)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(6)
        model = to_ising(random_qubo(rng, 5))
        samples = anneal(model, quick_schedule())
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "energy,multiplicity,bits"
        assert len(lines) == 1 + len(samples)
        first = lines[1].split(",")
        assert float(first[0]) == samples.energies[0]
        assert first[2] == "".join(str(int(b)) for b in samples.assignments[0])


class TestMatchesReadMajorOracle:
    """The spin-major kernel draws the same uniforms and makes the same
    accept decisions as the read-major kernel it replaced, bit for bit."""

    @staticmethod
    def assert_same(model, schedule):
        new, old = anneal(model, schedule), anneal_read_major(model, schedule)
        assert np.array_equal(new.assignments, old.assignments)
        assert np.array_equal(new.energies, old.energies)
        assert np.array_equal(new.multiplicities, old.multiplicities)

    @pytest.mark.parametrize("seed", range(6))
    def test_dyadic_random_models(self, seed):
        rng = np.random.default_rng(1200 + seed)
        model = to_ising(random_qubo(rng, int(rng.integers(2, 14)), dyadic=True))
        self.assert_same(model, quick_schedule(seed=seed, reads=40, sweeps=60))

    @pytest.mark.parametrize("side", list(Side))
    def test_dyadic_criticality_side_models(self, side):
        rng = np.random.default_rng(1300)
        _, _, catalog, data = side_instance(rng, catalog=TWO_TYPE_CATALOG, side=side)
        model = to_ising(build_iqp(data, catalog))
        self.assert_same(model, scaled_schedule(model, num_reads=50, sweeps_per_read=40, seed=3))

    @pytest.mark.parametrize("reads, sweeps", [(1, 60), (40, 1), (1, 1)])
    def test_single_read_or_single_sweep(self, reads, sweeps):
        rng = np.random.default_rng(1400)
        model = to_ising(random_qubo(rng, 9, dyadic=True))
        self.assert_same(model, quick_schedule(seed=4, reads=reads, sweeps=sweeps))

    @pytest.mark.parametrize("h", [-0.75, 0.0, 0.5])
    def test_single_spin(self, h):
        self.assert_same(ising_model(np.array([h]), {}, 0.25), quick_schedule(seed=2, reads=30, sweeps=25))

    def test_sweeps_not_a_multiple_of_the_block(self, monkeypatch):
        # 7 + 7 + 7 + 2 sweeps; the short last block reuses the buffer's front
        rng = np.random.default_rng(1500)
        model = to_ising(random_qubo(rng, 11, dyadic=True))
        schedule = quick_schedule(seed=6, reads=25, sweeps=23)
        monkeypatch.setattr("sensorplace.annealer._TAPE_BUDGET", 7 * 25 * 11)
        self.assert_same(model, schedule)

    def test_uncoupled_spins_interleaved_with_the_core(self):
        # spins 1, 4, 5 and 9 see no coupling, and the rest stay coupled
        rng = np.random.default_rng(1700)
        model = to_ising(random_qubo(rng, 11, dyadic=True))
        J = model.J.copy()
        J[[1, 4, 5, 9]] = 0.0
        J[:, [1, 4, 5, 9]] = 0.0
        model = IsingModel(h=model.h, J=J, offset=model.offset)
        assert np.flatnonzero(~model.J.any(axis=1)).tolist() == [1, 4, 5, 9]
        self.assert_same(model, quick_schedule(seed=7, reads=40, sweeps=60))

    def test_all_spins_uncoupled(self):
        model = ising_model(np.array([0.5, 0.0, -0.25, 0.0, 1.0, -2.0]), {}, 0.5)
        self.assert_same(model, quick_schedule(seed=8, reads=40, sweeps=30))

    def test_no_uncoupled_spin(self):
        rng = np.random.default_rng(1701)
        model = to_ising(random_qubo(rng, 12, dyadic=True))
        assert model.J.any(axis=1).all()
        self.assert_same(model, quick_schedule(seed=9, reads=40, sweeps=60))

    @pytest.mark.parametrize("side", [Side.FRONT, Side.LEFT])
    def test_dyadic_side_models_without_cost(self, side):
        # a spin that sees no point is uncoupled, and without cost its h is 0
        rng = np.random.default_rng(1300)
        _, _, catalog, data = side_instance(rng, catalog=TWO_TYPE_CATALOG, side=side)
        model = to_ising(build_iqp(data, catalog, cost_weight=0.0))
        self.assert_same(model, scaled_schedule(model, num_reads=50, sweeps_per_read=40, seed=4))

    def test_float_four_by_four_side_model(self):
        # 64 spins with float couplings: field sums are rounded, and the
        # spin-major row product may sum them in another order than the
        # read-major column product
        rng = np.random.default_rng(1600)
        _, _, catalog, data = side_instance(rng, grid=(4, 4), exact=False)
        model = to_ising(build_iqp(data, catalog))
        assert model.num_spins == 64
        self.assert_same(model, scaled_schedule(model, num_reads=40, sweeps_per_read=30, seed=8))


class TestAcceptRule:
    """A proposal flips its spin exactly when its energy change is below
    the threshold -ln(u) / beta of its uniform u."""

    @staticmethod
    def assert_samples_are(samples, seed, sweeps):
        # every proposal was accepted, so each spin flipped once per sweep
        reads, n = int(samples.multiplicities.sum()), samples.assignments.shape[1]
        bits = np.array([_read_rng(seed, r).integers(0, 2, n) for r in range(reads)], dtype=np.uint8)
        unique, counts = np.unique(bits ^ (sweeps % 2), axis=0, return_counts=True)
        got = sorted(zip(map(tuple, samples.assignments), samples.multiplicities.tolist()))
        assert got == sorted(zip(map(tuple, unique), counts.tolist()))

    @pytest.mark.parametrize("sweeps", [1, 2, 5, 6])
    def test_a_zero_draw_always_flips(self, monkeypatch, sweeps):
        # log(0) = -inf makes the threshold +inf, above every finite energy
        # change, and raises no warning (warnings are errors in this suite)
        monkeypatch.setattr(annealer, "_read_rng", ZeroRng)
        model = to_ising(random_qubo(np.random.default_rng(10), 9))
        samples = anneal(model, quick_schedule(seed=5, reads=30, sweeps=sweeps))
        self.assert_samples_are(samples, 5, sweeps)

    @pytest.mark.parametrize("sweeps", [1, 4, 7, 10])
    def test_a_model_without_terms_accepts_every_proposal(self, sweeps):
        # every energy change is 0, and every threshold is above 0
        model = ising_model(np.zeros(6), {})
        samples = anneal(model, quick_schedule(seed=11, reads=40, sweeps=sweeps))
        self.assert_samples_are(samples, 11, sweeps)


class TestMatchesTheExpFormOnDefaultCloudSides:
    """On the float models of the default cloud's sides, the thresholds
    make the same decisions as the oracle's u < exp(-beta dE) test."""

    @pytest.mark.parametrize("side", SIDE_ORDER)
    def test_reduced_side_model(self, side):
        config = pipeline.RunConfig(approach="setcover", solvers=("anneal",))
        catalog = pipeline._resolve_catalog(config)
        data = pipeline._prepare_side(config, pipeline._resolve_cloud(config), catalog, side)
        reduced, _, _ = fix_persistent(build_iqp(data, catalog, config.coverage_weight, config.cost_weight))
        model = to_ising(reduced)
        assert model.num_spins == 48
        schedule = scaled_schedule(
            model, num_reads=100, sweeps_per_read=200, seed=pipeline.derive_seed(config.seed, "anneal", side.value)
        )
        TestMatchesReadMajorOracle.assert_same(model, schedule)


class TestGroundStateRecovery:
    def test_recovers_exhaustive_minimum_on_random_models(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            model_q = random_qubo(rng, 10, dyadic=True)
            ising = to_ising(model_q)
            _, exact = solve_exhaustive_qubo(model_q)
            samples = anneal(ising, AnnealSchedule(num_reads=400, sweeps_per_read=200, seed=seed))
            hits += samples.best()[1] == exact
        assert hits >= 19

    def test_best_selection_decodes_and_scores(self):
        rng = np.random.default_rng(7)
        _, _, catalog, data = side_instance(rng, catalog=TWO_TYPE_CATALOG, grid=(2, 2))
        model = build_iqp(data, catalog)
        ising = to_ising(model)
        samples = anneal(ising, AnnealSchedule(num_reads=500, sweeps_per_read=300, seed=11))
        result = best_selection(samples, make_problem(data, catalog, None))
        xb, eb = solve_exhaustive_qubo(model)
        # the instance has symmetric degenerate optima, so compare energies
        bits = np.zeros(data.num_configs, dtype=np.uint8)
        bits[list(result.selected)] = 1
        assert model.energy(bits) == pytest.approx(eb, abs=1e-12)
        assert result.solver_tag == "anneal"
        assert result.coverage == pytest.approx(
            float(limb_total(data.limbs.T)[data.masks[list(result.selected)].any(axis=0)].sum() / data.normalizer)
        )

    def test_empty_best_sample_decodes_to_empty_selection(self):
        # pricing coverage at zero makes every sensor pure cost: the
        # all-zeros assignment is optimal and decodes to selecting nothing
        _, _, catalog, data = disjoint_instance(4)
        model = build_iqp(data, catalog, coverage_weight=0.0, cost_weight=1e-4)
        samples = anneal(to_ising(model), quick_schedule())
        assert samples.best()[0].tolist() == [0, 0, 0, 0]
        result = best_selection(samples, make_problem(data, catalog, None, coverage_weight=0.0))
        assert result.selected == ()
        assert result.coverage == 0.0 and result.cost == 0.0

    def test_single_config_sample_reports_its_coverage(self):
        # exactly one profitable sensor: the decoded singleton's coverage
        # must equal that candidate's precomputed coverage fraction
        _, _, catalog, data = disjoint_instance(4, costs=[10, 9000, 9000, 9000])
        model = build_iqp(data, catalog)
        samples = anneal(to_ising(model), quick_schedule())
        result = best_selection(samples, make_problem(data, catalog, None))
        assert result.selected == (0,)
        assert result.coverage == data.singles[0]
