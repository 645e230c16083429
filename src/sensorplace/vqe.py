"""Dense statevector simulation and the two variational selection modes built on it.

The ansatz is a stack of entangling layers: every layer applies one Y
rotation per qubit followed by a CNOT ring whose targets shift with the
layer, ``target = (control + layer + 1) mod n`` with controls applied in
ascending order.  A layer for which that formula maps a control onto
itself (``(layer + 1) % n == 0``) carries no entangler, as does a
single-qubit register.  An L-layer ansatz therefore exposes ``n * L``
rotation angles.

One driver runs every variational search: restarted COBYLA over the
ansatz angles, starting from the uniform superposition, with one seeded
generator for its random angles and measurement shots.  Each mode
supplies only the measurement of an ansatz state:

* fixed-count mode samples a shot histogram, keeps its most frequent
  feasible basis states as the sensor selection, and scores it with the
  exact-coverage objective; :meth:`EncodingMap.decode` looks each state
  up in the table that ``EncodingMap.encode`` builds;
* spin mode takes the exact expectation of a diagonal spin Hamiltonian
  over the statevector probabilities as its value, answers with the
  best-energy basis state observed along the way, and scores it through
  the side's free-count problem.  Its qubits are the candidates that
  :func:`sensorplace.setcover.fix_persistent` leaves free.

Statevector indices read the qubits most-significant first: qubit 0 is
the leftmost bit of the basis index.

The ansatz holds only real gates (RY and CNOT), so the simulated state
is a flat float64 vector.  Within a layer the RY matrices of up to four
consecutive qubits are fused into one Kronecker-product block, applied
with a single matrix product on the state reshaped to
``(2^lo, 2^b, rest)``.  A layer's whole CNOT ring is a fixed basis
permutation, applied as one gather from indices built once per
(qubit count, ring shift).  This is the contiguous, fused-gate layout of
Qulacs (Suzuki et al. 2021) and QuEST (Jones et al. 2019).

A variational run allocates one scratch array of ``num_layers + 2``
state rows for all its evaluations: the RY blocks write in turn into
its first two rows, and every layer leaves its output in a row of its
own.  An evaluation whose first layers have the previous evaluation's
angles, bit for bit, starts at the first layer whose angles changed and
reads that layer's input from the scratch.  COBYLA's first simplex moves
one angle at a time, so most of its evaluations skip at least one layer.

This module writes no files: a run's trace is written by
:func:`sensorplace.reporting.write_trace_csv`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import InsufficientSupportError, SizeLimitError
from .fixed_count import (
    FixedCountProblem,
    SelectionResult,
    evaluate_bits,
    evaluate_selection,
    objective as selection_objective,
    sensor_count,
)
from .setcover import IsingModel, energy_blocks, enumerate_bits

MAX_QUBITS = 20


def _check_qubits(n: int) -> None:
    if n > MAX_QUBITS:
        raise SizeLimitError(
            f"{n} qubits would need a dense vector of 2^{n} amplitudes; "
            f"this simulator is capped at {MAX_QUBITS}. Shrink the grid, type or "
            "orientation sets, or solve classically."
        )


# ---------------------------------------------------------------------------
# Statevector kernels


def uniform_state(num_qubits: int) -> NDArray[np.float64]:
    """Equal, zero-phase superposition over all basis states (real amplitudes)."""
    _check_qubits(num_qubits)
    dim = 2**num_qubits
    return np.full(dim, 1.0 / math.sqrt(dim))


#: Largest number of consecutive qubits whose RY rotations are fused into
#: one block matrix (16x16 at four qubits).
_RY_BLOCK_QUBITS = 4


def _ry_blocks(angles: NDArray[np.float64]) -> list[NDArray[np.float64]]:
    """RY blocks of one layer, in qubit order: each the Kronecker product of
    the RY matrices of up to ``_RY_BLOCK_QUBITS`` consecutive qubits, the
    first one most significant.

    All blocks of one size are built in one broadcast, one product per
    qubit in qubit order, so each holds the same products as a block built
    on its own.
    """
    cos_sin = [(math.cos(a), math.sin(a)) for a in (angles / 2.0).tolist()]
    ry = np.array([[[c, -s], [s, c]] for c, s in cos_sin])
    full = len(ry) - len(ry) % _RY_BLOCK_QUBITS
    blocks = []
    for group in (ry[:full].reshape(-1, _RY_BLOCK_QUBITS, 2, 2), ry[full:][None]):
        if not group.size:
            continue
        kron = group[:, 0]
        for q in range(1, group.shape[1]):
            dim = 2 * kron.shape[1]
            kron = (kron[:, :, None, :, None] * group[:, q, None, :, None, :]).reshape(-1, dim, dim)
        blocks.extend(kron)
    return blocks


@dataclass(frozen=True)
class AnsatzSpec:
    """Entangling-layer ansatz: ``num_qubits * num_layers`` rotation angles."""

    num_qubits: int
    num_layers: int = 3
    angles: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_qubits < 1 or self.num_layers < 1:
            raise SizeLimitError("need at least one qubit and one layer")
        angles = self.angles
        if angles is None:
            angles = np.zeros(self.num_qubits * self.num_layers)
        angles = np.asarray(angles, dtype=float).reshape(-1)
        if angles.shape != (self.num_qubits * self.num_layers,):
            raise ValueError(
                f"expected {self.num_qubits * self.num_layers} angles, got {angles.shape[0]}"
            )
        object.__setattr__(self, "angles", angles)


def entangler_pairs(num_qubits: int, layer: int) -> list[tuple[int, int]]:
    """(control, target) CNOT list of one layer, ascending control order."""
    if num_qubits == 1 or (layer + 1) % num_qubits == 0:
        return []
    return [(c, (c + layer + 1) % num_qubits) for c in range(num_qubits)]


@functools.lru_cache(maxsize=MAX_QUBITS)
def _ring_gather(num_qubits: int, shift: int) -> NDArray[np.intp] | None:
    """Gather indices of the CNOT ring ``target = (control + shift) mod n``,
    or None for a shift of 0, which has no ring.

    A layer's ring depends on the layer only through its shift
    ``(layer + 1) % n``, so a qubit count has at most n entries, and they
    all fit in the cache however many layers an ansatz has.

    Applying the ring's CNOTs in ascending control order maps basis state
    ``x`` to ``f(x)``; the gathered state ``state[g]`` has ``g = f^-1``,
    which applies the same self-inverse CNOTs in descending order.  The
    cache shares the returned array, so no caller may write to it; it stays
    writable because ``np.take`` copies a read-only index array on every call.
    """
    pairs = entangler_pairs(num_qubits, shift - 1)  # layer shift - 1 has this ring
    if not pairs:
        return None
    gather = np.arange(2**num_qubits, dtype=np.intp)
    for control, target in reversed(pairs):
        gather ^= ((gather >> (num_qubits - 1 - control)) & 1) << (num_qubits - 1 - target)
    return gather


def apply_ansatz(
    state: NDArray, ansatz: AnsatzSpec, work: NDArray | None = None, start_layer: int = 0
) -> NDArray:
    """Apply the ansatz from layer ``start_layer`` on; unitary, so the norm is preserved.

    Real input gives a float64 result, complex input a complex one.
    ``work`` is a ``(num_layers + 2, 2^n)`` array of the result's dtype:
    the RY blocks write in turn into its first two rows, and the output of
    layer ``l``, which is the input of layer ``l + 1``, goes to row
    ``l + 2``.  The result is the last row, which the next call given the
    same ``work`` overwrites; given ``work``, a call allocates no
    state-sized array.  A call with ``start_layer > 0`` reads its first
    layer's input from ``work``.  It gives the result of a call from layer
    0 only when the previous call given that ``work`` had the same
    ``state`` and, bit for bit, the same angles in the layers before
    ``start_layer``.  Without ``work`` the call allocates its own and
    starts at layer 0.
    """
    n, num_layers = ansatz.num_qubits, ansatz.num_layers
    if state.shape != (2**n,):
        raise ValueError("state dimension does not match the ansatz qubit count")
    if work is None:
        if start_layer:
            raise ValueError("only a call given the previous call's work can start past layer 0")
        work = np.empty((num_layers + 2, 2**n), dtype=np.result_type(state, np.float64))
    elif work.shape != (num_layers + 2, 2**n):
        raise ValueError(f"work must have shape ({num_layers + 2}, {2**n}), got {work.shape}")
    if not 0 <= start_layer <= num_layers:
        raise ValueError(f"start_layer must lie in 0..{num_layers}, got {start_layer}")
    out = state if start_layer == 0 else work[start_layer + 1]
    for layer in range(start_layer, num_layers):
        gather = _ring_gather(n, (layer + 1) % n)
        layer_out = work[layer + 2]
        for i, block in enumerate(_ry_blocks(ansatz.angles[layer * n : (layer + 1) * n])):
            lo = i * _RY_BLOCK_QUBITS
            if lo + _RY_BLOCK_QUBITS < n:
                dest = work[i % 2]
                shape = (2**lo, len(block), -1)
                np.matmul(block, out.reshape(shape), out=dest.reshape(shape))
            else:
                # the block holds the least significant qubits: one plain matrix product
                dest = layer_out if gather is None else work[i % 2]
                shape = (-1, len(block))
                np.matmul(out.reshape(shape), block.T, out=dest.reshape(shape))
            out = dest
        if gather is not None:
            # the indices are a permutation; "raise", the default mode, would buffer out
            out = np.take(out, gather, out=layer_out, mode="clip")
    return out


def sample_histogram(
    state: NDArray,
    shots: int = 1000,
    seed: int | np.random.Generator | None = None,
) -> dict[int, int]:
    """Multinomial measurement histogram ``basis index -> count``.

    Deterministic for a fixed seed; zero-count states are omitted.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    observed = np.flatnonzero(counts)
    return dict(zip(observed.tolist(), counts[observed].tolist()))


# ---------------------------------------------------------------------------
# Basis-state encoding of placement candidates


def _bits_needed(count: int) -> int:
    return max(0, int(count - 1).bit_length())


@dataclass(frozen=True)
class EncodingMap:
    """Packs (row, column, type, orientation) fields into a basis index.

    Field widths are the ceil-log2 of each range; fields are laid out
    most-significant first in that order.  :meth:`decode` looks a basis
    state up in the table that :meth:`encode` builds, so a state that no
    candidate encodes decodes to None and is skipped during selection.
    """

    horizontal: int
    vertical: int
    num_types: int
    num_orientations: int

    @property
    def field_bits(self) -> tuple[int, int, int, int]:
        return (
            _bits_needed(self.horizontal),
            _bits_needed(self.vertical),
            _bits_needed(self.num_types),
            _bits_needed(self.num_orientations),
        )

    @property
    def num_qubits(self) -> int:
        return sum(self.field_bits)

    @property
    def num_configs(self) -> int:
        return self.horizontal * self.vertical * self.num_types * self.num_orientations

    @functools.cached_property
    def _candidate_of(self) -> dict[int, int]:
        return {self.encode(i): i for i in range(self.num_configs)}

    def decode(self, basis: int) -> int | None:
        """Candidate index of a basis state, or None when no candidate encodes it."""
        return self._candidate_of.get(basis)

    def encode(self, config_index: int) -> int:
        rest, o = divmod(config_index, self.num_orientations)
        t, position = divmod(rest, self.horizontal * self.vertical)
        row, col = divmod(position, self.vertical)
        basis = 0
        for width, value in zip(self.field_bits, (row, col, t, o)):
            basis = (basis << width) | value
        return basis


def select_feasible_topk(
    histogram: dict[int, int],
    encoding: EncodingMap,
    num_sensors: int,
    position_of: NDArray[np.int64],
) -> tuple[int, ...]:
    """Pick the ``num_sensors`` most frequent feasible candidates.

    Walks basis states by descending count (ties by ascending basis
    index), skipping out-of-range encodings and candidates whose mount
    position is already taken.  Raises
    :class:`InsufficientSupportError` when the histogram runs out first.
    """
    chosen: list[int] = []
    used_positions: set[int] = set()
    for basis, _count in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0])):
        idx = encoding.decode(basis)
        if idx is None:
            continue
        pos = int(position_of[idx])
        if pos in used_positions:
            continue
        chosen.append(idx)
        used_positions.add(pos)
        if len(chosen) == num_sensors:
            return tuple(chosen)
    raise InsufficientSupportError(
        f"histogram contains only {len(chosen)} feasible distinct-position candidates, "
        f"{num_sensors} required"
    )


# ---------------------------------------------------------------------------
# Gradient-free optimizer driver


#: COBYLA's initial trust-region radius and final accuracy.
RHO_BEGIN = 0.7
F_TOL = 1e-6

#: Most objective evaluations one local search may spend.
MAX_EVALS_PER_START = 100


@dataclass(frozen=True)
class OptimizerConfig:
    """Evaluation budget of the restarted COBYLA search.

    The run draws fresh random starting angles until ``max_evals``
    objective evaluations are spent, giving each local search at most
    ``MAX_EVALS_PER_START`` of them.
    """

    max_evals: int = 500

    def __post_init__(self):
        if self.max_evals < 0:
            raise ValueError("the evaluation budget must be non-negative")


def _minimize_traced(measure, num_qubits: int, num_layers: int, cfg: OptimizerConfig, seed: int):
    """One variational run: evaluate at random angles, then spend the budget
    on COBYLA searches from fresh random angles.

    An evaluation applies the ansatz to the uniform superposition, starting
    at the first layer whose angles differ from the previous evaluation's,
    and passes the state and the run's one ``default_rng(seed)`` stream to
    ``measure``, which returns the value to minimize and an answer with its
    score (None and inf for no answer).  Returns the first lowest-scoring
    answer and the ``(iteration, value, angles)`` trace.  No COBYLA start is made on fewer
    than its minimum of ``num_params + 2`` evaluations, so the trace never
    exceeds ``max_evals + 1``.
    """
    from scipy import optimize as sciopt  # deferred: importing scipy.optimize is slow

    rng = np.random.default_rng(seed)
    base = uniform_state(num_qubits)
    # one scratch for every evaluation: state-sized arrays allocated and freed
    # per evaluation can cost a page fault per 4 KiB page each time
    work = np.empty((num_layers + 2, len(base)))
    num_params = num_qubits * num_layers
    trace: list[tuple[int, float, NDArray[np.float64]]] = []
    best_score, best_answer = math.inf, None

    def traced(theta):
        nonlocal best_score, best_answer
        theta = np.array(theta, dtype=float)
        start_layer = 0
        if trace:
            # bitwise, so that -0.0 and +0.0 differ: a layer is reused only
            # when its inputs are the previous evaluation's, bit for bit
            changed = np.flatnonzero(theta.view(np.int64) != trace[-1][2].view(np.int64))
            start_layer = int(changed[0]) // num_qubits if changed.size else num_layers
        state = apply_ansatz(base, AnsatzSpec(num_qubits, num_layers, theta), work, start_layer)
        value, answer, score = measure(state, rng)
        if score < best_score:
            best_score, best_answer = score, answer
        trace.append((len(trace), value, theta))
        return value

    traced(rng.uniform(-np.pi, np.pi, num_params))
    while (start_budget := min(MAX_EVALS_PER_START, cfg.max_evals + 1 - len(trace))) >= num_params + 2:
        sciopt.minimize(traced, rng.uniform(-np.pi, np.pi, num_params), method="COBYLA",
                        options={"maxiter": start_budget, "rhobeg": RHO_BEGIN, "tol": F_TOL})
    return best_answer, trace


@dataclass
class VqeRun:
    """Outcome of one seeded variational run, with the evaluation trace."""

    result: SelectionResult
    trace: list[tuple[int, float, NDArray[np.float64]]]

    @property
    def num_evals(self) -> int:
        return len(self.trace)


# ---------------------------------------------------------------------------
# Mode 1: histogram-based fixed-count selection


def vqe_fixed_count(
    problem: FixedCountProblem,
    encoding: EncodingMap,
    num_layers: int = 3,
    optimizer: OptimizerConfig = OptimizerConfig(),
    shots: int = 1000,
    seed: int = 0,
) -> VqeRun:
    """Variational fixed-count selection from measurement histograms.

    Each evaluation samples ``shots`` measurements of the ansatz state,
    keeps the most frequent feasible candidates and scores them with the
    exact-coverage objective.  A histogram without enough feasible
    support contributes a large penalty value instead of aborting.  The
    returned selection is the best ever encountered, evaluated even for
    a zero-evaluation budget (at the initial angles).
    """
    num_sensors = sensor_count(problem)
    if encoding.num_configs != problem.data.num_configs:
        raise ValueError(
            f"encoding addresses {encoding.num_configs} candidates, "
            f"problem has {problem.data.num_configs}"
        )
    penalty = problem.coverage_weight + problem.cost_weight * float(problem.costs.sum()) + 1.0

    def measure(state, rng):
        histogram = sample_histogram(state, shots, rng)
        try:
            selection = select_feasible_topk(histogram, encoding, num_sensors, problem.position_of)
        except InsufficientSupportError:
            return penalty, None, math.inf
        value = selection_objective(selection, problem)
        return value, selection, value

    selection, trace = _minimize_traced(measure, encoding.num_qubits, num_layers, optimizer, seed)
    if selection is None:
        raise InsufficientSupportError("no evaluation produced a feasible selection")
    result = evaluate_selection(selection, problem, "vqe_fixed_count", seed=seed)
    return VqeRun(result=result, trace=trace)


# ---------------------------------------------------------------------------
# Mode 2: diagonal-Hamiltonian expectation over spin models


def basis_energies(model: IsingModel) -> NDArray[np.float64]:
    """Model energy of every basis state, ordered by basis index: the
    blocks of the half-and-half energy table of :func:`energy_blocks`."""
    _check_qubits(model.num_spins)
    return np.concatenate(list(energy_blocks(model)))


#: Probability at which a basis state counts as observed: the level a
#: thousand-shot histogram reveals almost surely.
OBSERVATION_FLOOR = 0.01


def vqe_ising(
    model: IsingModel,
    problem: FixedCountProblem,
    num_layers: int = 3,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    energies: NDArray[np.float64] | None = None,
    kept: NDArray[np.intp] | None = None,
    fixed: NDArray[np.uint8] | None = None,
) -> VqeRun:
    """Variational free-count selection over the spin form of the quadratic model.

    Spin i stands for candidate ``kept[i]`` (candidate i when ``kept`` is
    None), and every other candidate takes its bit from ``fixed`` (0 when
    None), as :func:`~sensorplace.setcover.fix_persistent` returns them.
    Each evaluation's value is the exact expected model energy.  The
    answer is the best-energy basis state observed, at probability
    ``OBSERVATION_FLOOR`` or more (the most probable state when none is),
    scored through ``problem`` (normally free-count) with its exact union
    coverage.  Repeated runs on one model can share its ``basis_energies``;
    a table of any other shape than ``(2^n,)`` is rejected before the first
    evaluation.
    """
    kept = np.arange(problem.data.num_configs) if kept is None else kept
    fixed = np.zeros(problem.data.num_configs, dtype=np.uint8) if fixed is None else fixed
    if len(kept) != model.num_spins or len(fixed) != problem.data.num_configs:
        raise ValueError("one spin per kept candidate and one fixed bit per candidate required")
    if energies is None:
        energies = basis_energies(model)
    if np.shape(energies) != (2**model.num_spins,):
        raise ValueError(
            f"energies must have shape ({2**model.num_spins},), one per basis state; "
            f"got {np.shape(energies)}"
        )
    probs = np.empty(2**model.num_spins)

    def measure(state, rng):
        np.square(state, out=probs)
        visible = np.flatnonzero(probs >= OBSERVATION_FLOOR)
        if not visible.size:
            visible = np.array([np.argmax(probs)])
        k = int(visible[np.argmin(energies[visible])])
        return float(np.einsum("i,i->", probs, energies)), k, energies[k]

    state, trace = _minimize_traced(measure, model.num_spins, num_layers, optimizer, seed)
    bits = np.array(fixed, dtype=np.uint8)
    bits[kept] = enumerate_bits(np.array([state], dtype=np.int64), model.num_spins)[0]
    result = evaluate_bits(bits, problem, "vqe_ising", seed=seed)
    return VqeRun(result=result, trace=trace)
