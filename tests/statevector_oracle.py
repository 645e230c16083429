"""Gate-by-gate statevector kernel: the reference the fused ansatz kernel is tested against.

Each gate is applied on its own to a complex vector reshaped to one axis
per qubit (qubit 0 most significant), in the order the ansatz defines:
per layer, RY on qubits 0..n-1, then the CNOT ring in ascending control
order.
"""

from __future__ import annotations

import math

import numpy as np

from sensorplace.vqe import AnsatzSpec, entangler_pairs


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_ry(state: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    n = int(np.log2(state.shape[0]))
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    mat = np.array([[c, -s], [s, c]], dtype=complex)
    t = state.reshape([2] * n)
    t = np.tensordot(mat, t, axes=([1], [qubit]))
    return np.moveaxis(t, 0, qubit).reshape(-1)


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    n = int(np.log2(state.shape[0]))
    t = state.reshape([2] * n).copy()
    sel: list = [slice(None)] * n
    sel[control] = 1
    sel0, sel1 = sel.copy(), sel.copy()
    sel0[target] = 0
    sel1[target] = 1
    t[tuple(sel0)], t[tuple(sel1)] = t[tuple(sel1)].copy(), t[tuple(sel0)].copy()
    return t.reshape(-1)


def apply_ansatz_gates(state: np.ndarray, ansatz: AnsatzSpec) -> np.ndarray:
    """The full ansatz, one gate at a time."""
    n = ansatz.num_qubits
    out = state
    for layer in range(ansatz.num_layers):
        for q in range(n):
            out = apply_ry(out, q, ansatz.angles[layer * n + q])
        for control, target in entangler_pairs(n, layer):
            out = apply_cnot(out, control, target)
    return out


def apply_ansatz_inverse(state: np.ndarray, ansatz: AnsatzSpec) -> np.ndarray:
    """Exact inverse: reversed gate order with negated angles."""
    n = ansatz.num_qubits
    out = state
    for layer in range(ansatz.num_layers - 1, -1, -1):
        for control, target in reversed(entangler_pairs(n, layer)):
            out = apply_cnot(out, control, target)
        for q in range(n - 1, -1, -1):
            out = apply_ry(out, q, -ansatz.angles[layer * n + q])
    return out
