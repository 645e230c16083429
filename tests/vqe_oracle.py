"""Two separate variational loops: the reference the shared VQE driver is tested against.

Each mode builds its own seeded generator, uniform start state, ansatz
call and best-answer bookkeeping around a traced, restarted COBYLA
search.  Fixed-count mode scores the top-k feasible selection of a shot
histogram; spin mode minimizes the exact expectation of a diagonal spin
Hamiltonian and keeps the best-energy visible basis state.
"""

from __future__ import annotations

import numpy as np

from sensorplace.errors import InsufficientSupportError
from sensorplace.fixed_count import evaluate_bits, evaluate_selection, objective
from sensorplace.setcover import enumerate_bits
from sensorplace.vqe import (
    F_TOL,
    MAX_EVALS_PER_START,
    OBSERVATION_FLOOR,
    RHO_BEGIN,
    AnsatzSpec,
    OptimizerConfig,
    VqeRun,
    apply_ansatz,
    basis_energies,
    sample_histogram,
    select_feasible_topk,
    uniform_state,
)


def _minimize_traced(fn, num_params, cfg, rng):
    from scipy import optimize as sciopt

    trace = []

    def traced(theta):
        value = fn(theta)
        trace.append((len(trace), value, np.array(theta, dtype=float)))
        return value

    traced(rng.uniform(-np.pi, np.pi, num_params))
    while (start_budget := min(MAX_EVALS_PER_START, cfg.max_evals + 1 - len(trace))) >= num_params + 2:
        x0 = rng.uniform(-np.pi, np.pi, num_params)
        sciopt.minimize(
            traced,
            x0,
            method="COBYLA",
            options={"maxiter": start_budget, "rhobeg": RHO_BEGIN, "tol": F_TOL},
        )
    return trace


def vqe_fixed_count_loop(
    problem, encoding, num_layers=3, optimizer=OptimizerConfig(), shots=1000, seed=0
) -> VqeRun:
    if encoding.num_configs != problem.data.num_configs:
        raise ValueError("encoding does not match the problem")
    n = encoding.num_qubits
    rng = np.random.default_rng(seed)
    base = uniform_state(n)
    penalty = problem.coverage_weight + problem.cost_weight * float(problem.costs.sum()) + 1.0
    best = {"objective": None, "selection": None}

    def score(theta):
        state = apply_ansatz(base, AnsatzSpec(n, num_layers, theta))
        histogram = sample_histogram(state, shots, rng)
        try:
            selection = select_feasible_topk(
                histogram, encoding, problem.num_sensors, problem.position_of
            )
        except InsufficientSupportError:
            return penalty
        value = objective(selection, problem)
        if best["objective"] is None or value < best["objective"]:
            best["objective"] = value
            best["selection"] = selection
        return value

    trace = _minimize_traced(score, n * num_layers, optimizer, rng)
    if best["selection"] is None:
        raise InsufficientSupportError("no evaluation produced a feasible selection")
    result = evaluate_selection(best["selection"], problem, "vqe_fixed_count", seed=seed)
    return VqeRun(result=result, trace=trace)


def minimize_expectation(model, num_layers=3, optimizer=OptimizerConfig(), seed=0, energies=None):
    """``(best_state, best_energy, trace)`` of one expectation-minimizing run."""
    n = model.num_spins
    if energies is None:
        energies = basis_energies(model)
    rng = np.random.default_rng(seed)
    base = uniform_state(n)
    best = {"energy": None, "state": None}

    def score(theta):
        state = apply_ansatz(base, AnsatzSpec(n, num_layers, theta))
        probs = np.abs(state) ** 2
        visible = np.flatnonzero(probs >= OBSERVATION_FLOOR)
        if not visible.size:
            visible = np.array([np.argmax(probs)])
        k = int(visible[np.argmin(energies[visible])])
        if best["energy"] is None or energies[k] < best["energy"]:
            best["energy"] = float(energies[k])
            best["state"] = k
        return float(np.einsum("i,i->", probs, energies))

    trace = _minimize_traced(score, n * num_layers, optimizer, rng)
    return best["state"], best["energy"], trace


def vqe_ising_loop(
    model, problem, num_layers=3, optimizer=OptimizerConfig(), seed=0, energies=None,
) -> VqeRun:
    if model.num_spins != problem.data.num_configs:
        raise ValueError("one spin per candidate required")
    state, _, trace = minimize_expectation(model, num_layers, optimizer, seed, energies)
    bits = enumerate_bits(np.array([state], dtype=np.int64), model.num_spins)[0]
    result = evaluate_bits(bits, problem, "vqe_ising", seed=seed)
    return VqeRun(result=result, trace=trace)
