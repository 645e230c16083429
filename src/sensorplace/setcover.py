"""Quadratic set-coverage model and its QUBO / Ising forms.

Approximating the union coverage by singles minus pairwise overlaps
gives the quadratic lower bound

    approx = 1.5 * singles . x - 0.5 * x^T overlaps x,          x in {0,1}^N

where the 1/2 accounts for the symmetric overlap matrix and the 3/2 for
its diagonal (which equals the singles).  The sensor count is free: it
falls out of the optimization instead of being fixed up front.

`build_iqp` folds the diagonal into the linear term, so the stored
quadratic matrix has zero diagonal and

    E(x) = linear . x + x^T quadratic x + offset
         = -coverage_weight * approx + cost_weight * cost(x).

Spin models use the x = (1 + z) / 2 convention: bit 1 maps to spin +1.
`to_ising` keeps the coupling matrix dense: ``J = quadratic / 2`` is symmetric
with zero diagonal, so a spin's local field is one row of ``J``.
:meth:`QuadraticModel.energies` and :meth:`IsingModel.energies` are the one
energy expression of each form.  :func:`energy_blocks` tabulates all 2^N
energies from them: it evaluates each over the two half assignments and
adds the couplings between the halves, one small matrix product per block.

Every overlap is non-negative, so no coupling of ``build_iqp``'s model is
negative, and :func:`fix_persistent` settles each variable whose best value
does not depend on the others before a search.  The exact search and the
spin VQE spend one bit or qubit per variable it leaves free: on the default
cloud with fixed orientations it settles the candidates that see no point,
so a 2x2 side keeps 12 of 16 and a 4x4 side 48 of 64.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .coverage import CoverageData
from .errors import BudgetExceededError
from .fixed_count import DEFAULT_COST_WEIGHT, DEFAULT_COVERAGE_WEIGHT
from .geometry import config_costs

DEFAULT_QUBO_ENUMERATION_BITS = 24
_ENUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class QuadraticModel:
    """Binary quadratic minimization model over {0,1}^N.

    ``quadratic`` is symmetric with zero diagonal; linear effects live
    entirely in ``linear``.
    """

    linear: NDArray[np.float64]
    quadratic: NDArray[np.float64]
    offset: float
    variable_names: tuple[str, ...]

    def __post_init__(self):
        n = self.linear.shape[0]
        if self.quadratic.shape != (n, n):
            raise ValueError("quadratic matrix shape does not match linear vector")
        if np.any(self.quadratic.diagonal() != 0.0):
            raise ValueError("quadratic matrix must have a zero diagonal")
        if not np.array_equal(self.quadratic, self.quadratic.T):
            raise ValueError("quadratic matrix must be symmetric")
        if len(self.variable_names) != n:
            raise ValueError("one variable name per binary variable required")

    @property
    def num_variables(self) -> int:
        return self.linear.shape[0]

    def energy(self, x) -> float:
        return float(self.energies([x])[0])

    def energies(self, assignments: NDArray) -> NDArray[np.float64]:
        """Vectorized energies for an (m, N) batch of binary assignments."""
        a = np.asarray(assignments, dtype=float)
        return a @ self.linear + np.einsum("bi,ij,bj->b", a, self.quadratic, a) + self.offset


@dataclass(frozen=True)
class IsingModel:
    """Spin model E(z) = h . z + 0.5 * z^T J z + offset, z in {-1,+1}^N.

    ``J`` is symmetric with zero diagonal, so the 1/2 counts every pair
    once: E(z) = h . z + sum_{i<j} J_ij z_i z_j + offset.
    """

    h: NDArray[np.float64]
    J: NDArray[np.float64]
    offset: float

    def __post_init__(self):
        n = self.h.shape[0]
        if self.J.shape != (n, n):
            raise ValueError("coupling matrix shape does not match the field vector")
        if np.any(self.J.diagonal() != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        if not np.array_equal(self.J, self.J.T):
            raise ValueError("coupling matrix must be symmetric")

    @property
    def num_spins(self) -> int:
        return self.h.shape[0]

    def energies(self, spins: NDArray) -> NDArray[np.float64]:
        """Vectorized energies for an (m, N) batch of spin assignments."""
        z = np.asarray(spins, dtype=float)
        return z @ self.h + 0.5 * np.einsum("ri,ij,rj->r", z, self.J, z) + self.offset

    def energy(self, spins) -> float:
        return float(self.energies([spins])[0])

    def energy_of_bits(self, bits) -> float:
        """Energy of a {0,1} assignment under the x = (1+z)/2 convention."""
        return self.energy(2.0 * np.asarray(bits, dtype=float) - 1.0)


def approx_coverage(x, data: CoverageData) -> float:
    """Quadratic singles-minus-overlaps coverage of a binary selection vector.

    A lower bound on the exact union coverage, tight for selections of at
    most two sensors; for a single sensor the 3/2 and 1/2 factors cancel
    against the diagonal and the value reduces to that sensor's singles
    entry.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (data.num_configs,):
        raise ValueError(f"selection vector must have length {data.num_configs}")
    return float(1.5 * (data.singles @ x) - 0.5 * (x @ data.overlaps @ x))


def build_iqp(
    data: CoverageData,
    catalog,
    coverage_weight: float = DEFAULT_COVERAGE_WEIGHT,
    cost_weight: float = DEFAULT_COST_WEIGHT,
) -> QuadraticModel:
    """Quadratic program for trading approximate coverage against cost.

    Position uniqueness is not encoded: each result's ``feasible`` flag
    reports it, and :func:`sensorplace.exports.write_iqp_lp` writes its
    at-most-one rows as LP constraints.
    """
    costs = config_costs(data.configs, catalog)
    linear = -coverage_weight * data.singles + cost_weight * costs
    quadratic = 0.5 * coverage_weight * data.overlaps.copy()
    np.fill_diagonal(quadratic, 0.0)
    return QuadraticModel(
        linear=linear,
        quadratic=quadratic,
        offset=0.0,
        variable_names=tuple(variable_name(i, cfg, catalog) for i, cfg in enumerate(data.configs)),
    )


def variable_name(index: int, cfg, catalog) -> str:
    """Deterministic LP-safe label for one placement candidate."""
    orient = f"{cfg.orientation:g}".replace("-", "m").replace(".", "p")
    return f"x{index}_{catalog[cfg.type_index].name}_{cfg.side.value}_o{orient}"


def fix_persistent(model: QuadraticModel) -> tuple[QuadraticModel, NDArray[np.intp], NDArray[np.uint8]]:
    """The model over the variables first-order persistency leaves free, their
    indices (ascending) and the full-width bits of the fixed ones.

    With no negative coupling, variable i's marginal energy lies between
    ``linear_i`` and ``linear_i + 2 sum_j quadratic_ij`` (Hammer, Hansen &
    Simeone 1984; Boros & Hammer 2002).  A non-negative lower end puts
    ``x_i = 0`` in the lexicographically smallest minimizer, since clearing
    the bit raises neither the energy nor the index; a negative upper end
    puts ``x_i = 1`` in every minimizer and folds it into the offset and the
    others' linear terms, which can settle more, so the rules repeat until
    none applies.  The reduced model's smallest minimizer, mapped back, is
    therefore the full model's, at the same energy.  A model with a negative
    coupling comes back unchanged.
    """
    n = model.num_variables
    kept, fixed = np.arange(n), np.zeros(n, dtype=np.uint8)
    if np.any(model.quadratic < 0.0):
        return model, kept, fixed
    linear, quadratic, offset = model.linear, model.quadratic, model.offset
    while True:
        zero = linear >= 0.0
        one = linear + 2.0 * quadratic.sum(axis=1) < 0.0
        if not (zero.any() or one.any()):
            break
        fixed[kept[one]] = 1
        offset += linear[one].sum() + quadratic[np.ix_(one, one)].sum()
        linear = linear + 2.0 * quadratic[:, one].sum(axis=1)
        free = ~(zero | one)
        kept, linear, quadratic = kept[free], linear[free], quadratic[np.ix_(free, free)]
    names = tuple(model.variable_names[i] for i in kept.tolist())
    return QuadraticModel(linear, quadratic, float(offset), names), kept, fixed


def to_ising(model: QuadraticModel) -> IsingModel:
    """Substitute x = (1 + z) / 2; energies agree on every assignment."""
    a = model.linear
    q = model.quadratic
    h = a / 2.0 + q.sum(axis=1) / 2.0
    offset = model.offset + a.sum() / 2.0 + q.sum() / 4.0
    return IsingModel(h=h, J=q / 2.0, offset=float(offset))


def to_qubo(model: IsingModel, variable_names: tuple[str, ...] | None = None) -> QuadraticModel:
    """Inverse substitution z = 2x - 1 back to binary variables."""
    J = model.J
    linear = 2.0 * model.h - 2.0 * J.sum(axis=1)
    offset = model.offset - model.h.sum() + J.sum() / 2.0
    names = variable_names or tuple(f"x{i}" for i in range(model.num_spins))
    return QuadraticModel(linear=linear, quadratic=2.0 * J, offset=float(offset), variable_names=names)


def enumerate_bits(indices: NDArray[np.int64], n: int) -> NDArray[np.uint8]:
    """Bit matrix for integer assignment indices; variable 0 is the MSB,
    so ascending integers are ascending lexicographic bit tuples."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def energy_blocks(model: QuadraticModel | IsingModel) -> Iterator[NDArray[np.float64]]:
    """Energies of all 2^N assignments in basis-index order, in blocks of at
    most ``_ENUM_BLOCK`` for N <= 32 (a spin model's bit 1 is spin +1).

    Meet in the middle (Horowitz & Sahni 1974): with H the first N // 2
    variables and L the rest, E(x) = E_H(x_H) + E_L(x_L) + x_H . C . x_L.
    E_H and E_L are the model's own ``energies`` over the half assignments,
    the other half held at 0 and the offset counted in E_H only; C is
    ``2 quadratic[H, L]`` for a binary model and ``J[H, L]`` for a spin model.
    Row r of the 2^|H| x 2^|L| table holds the assignments whose high half
    has index r, so the table's row-major order is basis-index order.
    """
    if isinstance(model, IsingModel):
        n, levels, coupling = model.num_spins, np.array([-1.0, 1.0]), model.J
    else:
        n, levels, coupling = model.num_variables, np.array([0.0, 1.0]), 2.0 * model.quadratic
    high = n // 2
    low = n - high
    x_high = levels[enumerate_bits(np.arange(1 << high, dtype=np.int64), high)]
    x_low = levels[enumerate_bits(np.arange(1 << low, dtype=np.int64), low)]
    e_high = model.energies(np.hstack([x_high, np.zeros((len(x_high), low))]))
    e_low = replace(model, offset=0.0).energies(np.hstack([np.zeros((len(x_low), high)), x_low]))
    cross = coupling[:high, high:] @ x_low.T
    rows = max(1, _ENUM_BLOCK >> low)
    for r in range(0, len(x_high), rows):
        yield (e_high[r : r + rows, None] + e_low + x_high[r : r + rows] @ cross).ravel()


def solve_exhaustive_qubo(
    model: QuadraticModel,
) -> tuple[NDArray[np.uint8], float]:
    """Global minimizer over all 2^N assignments (lexicographic tie-break)."""
    n = model.num_variables
    if n > DEFAULT_QUBO_ENUMERATION_BITS:
        raise BudgetExceededError(2**n, 2**DEFAULT_QUBO_ENUMERATION_BITS)
    best_energy = None
    best_index = start = 0
    for energies in energy_blocks(model):
        k = int(np.argmin(energies))
        if best_energy is None or energies[k] < best_energy:
            best_energy = float(energies[k])
            best_index = start + k
        start += len(energies)
    return enumerate_bits(np.array([best_index], dtype=np.int64), n)[0], best_energy
