"""Simulated annealing sampler for Ising models.

Each read is an independent Metropolis chain: spins are proposed in
sequential order within a sweep and the inverse temperature follows a
geometric ramp from ``beta_start`` to ``beta_end`` across sweeps.  Every
read derives its own random stream from ``(seed, read_index)``, so the
sample set is identical no matter how reads are chunked, vectorized or
distributed.  Acceptance draws are consumed in (sweep, spin) order, one
per proposal.

Local fields are read from the model's dense symmetric coupling
matrix ``J``: the field on spin ``i`` is ``spins @ J[:, i] + h[i]``.
Results are returned as a :class:`SampleSet`: unique assignments (as
bits under the x = (1+z)/2 convention), their model energies and their
multiplicities, sorted by energy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fixed_count import evaluate_bits, make_problem
from .setcover import IsingModel

# Memory cap for the per-chunk acceptance tape (doubles).
_TAPE_BUDGET = 1 << 23


@dataclass(frozen=True)
class AnnealSchedule:
    num_reads: int = 1000
    sweeps_per_read: int = 1000
    beta_start: float = 0.1
    beta_end: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.num_reads < 1 or self.sweeps_per_read < 1:
            raise ValueError("num_reads and sweeps_per_read must be >= 1")
        if not 0.0 < self.beta_start < self.beta_end:
            raise ValueError("need 0 < beta_start < beta_end")

    def betas(self) -> NDArray[np.float64]:
        k = self.sweeps_per_read
        if k == 1:
            return np.array([self.beta_start])
        return self.beta_start * (self.beta_end / self.beta_start) ** (np.arange(k) / (k - 1))


@dataclass(frozen=True)
class SampleSet:
    """Unique sampled assignments sorted by ascending energy (bits-lex on ties)."""

    assignments: NDArray[np.uint8]       # (m, N) bits
    energies: NDArray[np.float64]        # (m,)
    multiplicities: NDArray[np.int64]    # (m,)

    def __len__(self) -> int:
        return self.assignments.shape[0]

    def best(self) -> tuple[NDArray[np.uint8], float]:
        return self.assignments[0], float(self.energies[0])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["energy", "multiplicity", "bits"])
            for bits, e, m in zip(self.assignments, self.energies, self.multiplicities):
                writer.writerow([repr(float(e)), int(m), "".join(str(int(b)) for b in bits)])


def _read_rng(seed: int, read_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, read_index])


def suggest_beta_range(model: IsingModel) -> tuple[float, float]:
    """Model-scaled inverse-temperature range.

    The generic 0.1 -> 10.0 default assumes O(1) coefficients; coverage
    models mix O(1) overlap terms with O(1e-3) cost terms, which such a
    ramp cannot freeze out.  The hot end accepts the worst possible move
    with probability 1/2; the cold end accepts the smallest resolvable
    move with probability 1/100.
    """
    magnitudes = np.abs(model.J)
    fields = np.abs(model.h).astype(float)
    for row in magnitudes:  # summed in index order, |h_k| + |J_k0| + |J_k1| + ...
        fields += row
    scales = np.concatenate((np.abs(model.h), magnitudes[np.triu_indices(model.num_spins, 1)]))
    scales = scales[scales != 0.0]
    max_delta = 2.0 * float(fields.max()) if fields.size else 0.0
    if max_delta == 0.0 or not scales.size:
        return 0.1, 10.0
    min_delta = 2.0 * float(scales.min())
    hot = math.log(2.0) / max_delta
    cold = math.log(100.0) / min_delta
    if cold <= hot:
        cold = hot * 100.0
    return hot, cold


def scaled_schedule(
    model: IsingModel,
    num_reads: int = 1000,
    sweeps_per_read: int = 1000,
    seed: int = 0,
) -> AnnealSchedule:
    """An :class:`AnnealSchedule` whose beta ramp fits the model's scales."""
    hot, cold = suggest_beta_range(model)
    return AnnealSchedule(
        num_reads=num_reads,
        sweeps_per_read=sweeps_per_read,
        beta_start=hot,
        beta_end=cold,
        seed=seed,
    )


def anneal(model: IsingModel, schedule: AnnealSchedule = AnnealSchedule()) -> SampleSet:
    """Draw ``num_reads`` annealed samples from the model.

    Deterministic for a given ``(model, schedule)``: per-read streams
    are derived from the schedule seed and the read index, and proposals
    scan spins in index order.
    """
    n = model.num_spins
    if n == 0:
        raise ValueError("model must have at least one spin")
    J = model.J
    betas = schedule.betas()
    sweeps = schedule.sweeps_per_read

    # Equal chunks share one tape buffer, allocated once per call: a
    # fresh, smaller tape for a last partial chunk can land on the heap
    # and stay resident, which made peak memory differ between runs.
    max_chunk = max(1, _TAPE_BUDGET // (sweeps * n))
    num_chunks = -(-schedule.num_reads // max_chunk)
    chunk = -(-schedule.num_reads // num_chunks)
    buffer = np.empty((chunk, sweeps, n))
    all_bits = np.empty((schedule.num_reads, n), dtype=np.uint8)
    for lo in range(0, schedule.num_reads, chunk):
        hi = min(lo + chunk, schedule.num_reads)
        spins = np.empty((hi - lo, n))
        tape = buffer[: hi - lo]
        for r in range(lo, hi):
            rng = _read_rng(schedule.seed, r)
            spins[r - lo] = rng.integers(0, 2, n) * 2.0 - 1.0
            rng.random(out=tape[r - lo])
        for k in range(sweeps):
            beta = betas[k]
            for i in range(n):
                local = spins @ J[:, i] + model.h[i]
                delta = -2.0 * spins[:, i] * local
                accept = tape[:, k, i] < np.exp(-beta * np.maximum(delta, 0.0))
                spins[accept, i] *= -1.0
        all_bits[lo:hi] = ((spins + 1.0) / 2.0).astype(np.uint8)

    unique, counts = np.unique(all_bits, axis=0, return_counts=True)
    energies = model.energies(unique.astype(float) * 2.0 - 1.0)
    order = np.lexsort(tuple(unique[:, c] for c in range(n - 1, -1, -1)) + (energies,))
    return SampleSet(
        assignments=unique[order],
        energies=energies[order],
        multiplicities=counts[order].astype(np.int64),
    )


def best_selection(
    samples: SampleSet,
    data,
    catalog,
    coverage_weight: float = 1.0,
    cost_weight: float = 1e-4,
    seed: int | None = None,
):
    """Decode the lowest-energy sample into a :class:`SelectionResult`.

    Reported coverage is the exact union coverage of the decoded set,
    not the quadratic approximation the sampler optimized.  The count
    constraint does not apply to the free-count formulation, so the
    feasibility flag reflects position uniqueness only.
    """
    if len(samples) == 0:
        raise ValueError("sample set is empty")
    problem = make_problem(data, catalog, 1, coverage_weight, cost_weight)
    return evaluate_bits(samples.best()[0], problem, "anneal", seed=seed)
