"""Read-major annealer kernel: the reference the spin-major kernel is tested against.

Spins are stored as (reads, n). Each read's whole acceptance tape,
``sweeps x n`` uniforms in (sweep, spin) order, is drawn up front from
the read's own stream, and the field on spin ``i`` is read from the
strided column ``J[:, i]``. Reads are split into equal chunks that share
one tape buffer of at most ``TAPE_BUDGET`` doubles.
"""

from __future__ import annotations

import numpy as np

from sensorplace.annealer import AnnealSchedule, SampleSet, _read_rng
from sensorplace.setcover import IsingModel

TAPE_BUDGET = 1 << 23


def anneal_read_major(model: IsingModel, schedule: AnnealSchedule) -> SampleSet:
    n = model.num_spins
    J = model.J
    betas = schedule.betas()
    sweeps = schedule.sweeps_per_read

    max_chunk = max(1, TAPE_BUDGET // (sweeps * n))
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
