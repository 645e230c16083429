"""Simulated annealing sampler for Ising models.

Each read is an independent Metropolis chain: spins are proposed in
sequential order within a sweep and the inverse temperature follows a
geometric ramp from ``beta_start`` to ``beta_end`` across sweeps.  Every
read derives its own random stream from ``(seed, read_index)``: it draws
its initial spins first and then one uniform per proposal, in (sweep,
spin) order, so the sample set does not depend on how the reads are
batched or how its draws are blocked.

All reads advance together.  Spins are stored spin-major, as an
``(n, reads)`` array.  Uniforms are drawn one block of sweeps at a time
into a reused ``(reads, block, n)`` buffer, each read's generator
filling its own rows.  A block is as many sweeps as fit in
``_TAPE_BUDGET`` doubles (8 MB), and at least one, and its betas are
formed with it, so the number of sweeps does not change the memory
used; past ``2**20 / n`` reads the buffer holds one sweep of every read.
The spin array, one scratch array of its shape and one generator per
read also grow with the number of reads.

A proposal flips spin i exactly when its energy change dE is below the
threshold t = -ln(u) / beta of its uniform u, the Metropolis test
u < exp(-beta dE) with the exponential moved to the draw's side; a zero
draw gives t = +inf and always flips.  With the couplings and fields
prescaled by the exact factor -2, f = -2 (J_i s + h_i) gives dE = s_i f.
Each sweep copies its uniforms spin-major into the scratch array and
turns them there, while they are in cache, into the levels
s_i t_i + 2 h_i.  It then steps every spin in index order: the product
of spin i's contiguous row of the dense symmetric coupling matrix with
the whole spin array, minus its level, is f - s_i t_i for every read,
and its sign is the spin's new value.  So a proposal is three numpy
calls, and it decides as u < exp(-beta dE) does except where rounding
straddles the test.

Results are returned as a :class:`SampleSet`: unique assignments (as
bits under the x = (1+z)/2 convention), their model energies and their
multiplicities, sorted by energy.  :func:`best_selection` scores the
lowest-energy sample through the side's free-count problem.  This module
writes no files: :func:`sensorplace.reporting.write_samples_csv` writes a
sample set.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fixed_count import FixedCountProblem, SelectionResult, evaluate_bits
from .setcover import IsingModel

# Memory cap for the uniform block buffer (doubles).
_TAPE_BUDGET = 1 << 20


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
        # a finite ratio keeps every beta of the ramp finite: at beta = inf
        # a zero energy change gives 0 * inf = NaN, which rejects the move
        if not (0.0 < self.beta_start < self.beta_end and math.isfinite(self.beta_end / self.beta_start)):
            raise ValueError("need finite 0 < beta_start < beta_end")

    def betas(self, first: int = 0, count: int | None = None) -> NDArray[np.float64]:
        """The inverse temperatures of ``count`` sweeps from ``first`` on (all sweeps by default)."""
        k = self.sweeps_per_read
        if k == 1:
            return np.array([self.beta_start])
        sweeps = np.arange(first, k if count is None else first + count)
        return self.beta_start * (self.beta_end / self.beta_start) ** (sweeps / (k - 1))


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


def _mapped_buffer(shape: tuple[int, ...]) -> NDArray[np.float64]:
    """A float buffer in its own anonymous memory map, unmapped when freed.

    Buffers of a few MB taken from the heap could be left fragmented by
    the allocations of the next run, whose buffers then grew the heap
    instead, so peak memory differed from one instance to the next.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def _read_rng(seed: int, read_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, read_index])


def suggest_beta_range(model: IsingModel) -> tuple[float, float]:
    """Model-scaled inverse-temperature range.

    The generic 0.1 -> 10.0 default assumes O(1) coefficients; coverage
    models mix O(1) overlap terms with O(1e-3) cost terms, which such a
    ramp cannot freeze out.  The hot end accepts the worst possible move
    with probability 1/2; the cold end accepts the smallest resolvable
    move with probability 1/100, unless that beta, or its ratio to the
    hot end, would overflow: then the cold end is 100 times the hot end.
    A model whose terms are all too small to resolve at any finite beta
    gets the generic range, as an empty one does.
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
    if not math.isfinite(max_delta):
        raise ValueError("model coefficients overflow: no beta range resolves them")
    hot = math.log(2.0) / max_delta
    if not math.isfinite(hot * 100.0):
        return 0.1, 10.0
    cold = math.log(100.0) / (2.0 * float(scales.min()))
    if not (cold > hot and math.isfinite(cold / hot)):
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
    reads, sweeps = schedule.num_reads, schedule.sweeps_per_read

    rngs = [_read_rng(schedule.seed, r) for r in range(reads)]
    spins = np.empty((n, reads))
    for r, rng in enumerate(rngs):
        spins[:, r] = rng.integers(0, 2, n) * 2.0 - 1.0

    # scaling by -2 is exact, so (-2 J_i) s has the bits of -2 (J_i s)
    J = model.J * -2.0
    h = model.h[:, None] * -2.0
    levels = np.empty((n, reads))
    rows = list(zip(spins, J, levels))

    block = max(1, min(sweeps, _TAPE_BUDGET // (reads * n)))
    drawn = _mapped_buffer((reads, block, n))
    work = np.empty(reads)
    # a zero draw gives the threshold +inf, as may a beta near the
    # smallest float: either way the move is accepted
    with np.errstate(divide="ignore", over="ignore"):
        for first in range(0, sweeps, block):
            size = min(block, sweeps - first)
            for r, rng in enumerate(rngs):
                rng.random(out=drawn[r, :size])
            for k, beta in enumerate(schedule.betas(first, size)):
                # a spin changes only at its own step, so its level still
                # holds its own s_i when the sweep reaches it
                np.copyto(levels, drawn[:, k].T)
                np.log(levels, out=levels)
                levels /= -beta
                levels *= spins
                levels -= h
                for s, J_row, level in rows:
                    np.dot(J_row, spins, out=work)
                    work -= level
                    np.copysign(s, work, out=s)
    all_bits = (spins.T > 0.0).astype(np.uint8)

    unique, counts = np.unique(all_bits, axis=0, return_counts=True)
    energies = model.energies(unique.astype(float) * 2.0 - 1.0)
    # np.unique returns the rows in ascending bit order, so a stable sort
    # breaks energy ties toward the smaller bit string
    order = np.argsort(energies, kind="stable")
    return SampleSet(
        assignments=unique[order],
        energies=energies[order],
        multiplicities=counts[order].astype(np.int64),
    )


def best_selection(
    samples: SampleSet, problem: FixedCountProblem, seed: int | None = None
) -> SelectionResult:
    """Decode the lowest-energy sample into a :class:`SelectionResult`.

    Reported coverage is the exact union coverage of the decoded set,
    not the quadratic approximation the sampler optimized.  Costs and
    weights come from ``problem``, whose count is normally free (None),
    so the feasibility flag reflects position uniqueness only.
    """
    if len(samples) == 0:
        raise ValueError("sample set is empty")
    return evaluate_bits(samples.best()[0], problem, "anneal", seed=seed)
