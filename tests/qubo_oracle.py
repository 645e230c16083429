"""Blockwise enumeration: the reference the half-and-half energy table is tested against.

Each block of ``BLOCK`` assignment indices is expanded into its full bit
matrix and scored row by row with the model's own ``energies``.  The
search keeps the first minimum inside a block and replaces it only on a
strictly lower minimum of a later block.
"""

from __future__ import annotations

import numpy as np

from sensorplace.setcover import IsingModel, QuadraticModel, enumerate_bits

BLOCK = 1 << 16


def assignment_blocks(n: int):
    """Bit matrices of all 2^n assignments, ``BLOCK`` indices at a time."""
    total = 1 << n
    for start in range(0, total, BLOCK):
        yield enumerate_bits(np.arange(start, min(start + BLOCK, total), dtype=np.int64), n)


def all_energies(model: QuadraticModel | IsingModel) -> np.ndarray:
    """Energy of every assignment in basis-index order; bit 1 is spin +1."""
    if isinstance(model, IsingModel):
        return np.concatenate([model.energies(bits * 2.0 - 1.0) for bits in assignment_blocks(model.num_spins)])
    return np.concatenate([model.energies(bits) for bits in assignment_blocks(model.num_variables)])


def solve_exhaustive_qubo_blockwise(model: QuadraticModel) -> tuple[np.ndarray, float]:
    best_energy = None
    best_bits = None
    for bits in assignment_blocks(model.num_variables):
        energies = model.energies(bits)
        k = int(np.argmin(energies))
        if best_energy is None or energies[k] < best_energy:
            best_energy = float(energies[k])
            best_bits = bits[k].copy()
    return best_bits, best_energy
