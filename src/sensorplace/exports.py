"""Plain-text model exports: LP files and a QUBO coordinate format.

The LP writers emit standard LP-format text so large instances can be
handed to an external exact solver.  The fixed-count export materializes the
full integer linear model, including one covered-point indicator
variable and row per cloud point; the free-count export carries the
quadratic objective in a ``[ ... ] / 2`` bracket plus the
position-uniqueness rows.

The QUBO coordinate format is one ``i j value`` triple per line, where
``i == j`` rows are linear terms and ``i < j`` rows hold the full
coefficient of ``x_i * x_j``; the offset travels in a header comment.
"""

from __future__ import annotations

import numpy as np

from .coverage import CoverageData
from .fixed_count import FixedCountProblem, position_index_map
from .setcover import QuadraticModel

QUBO_COO_SCHEMA = "# sensorplace qubo coo v1"


def _term(coeff: float, name: str, lead: bool) -> str:
    body = f"{repr(abs(float(coeff)))} {name}"
    if coeff < 0:
        return f"- {body}"
    return body if lead else f"+ {body}"


def _objective_lines(names, coeffs, per_line: int = 8) -> str:
    """Objective expression wrapped onto continuation lines (LP readers
    treat line breaks between tokens as whitespace)."""
    parts = []
    for name, c in zip(names, coeffs):
        if c == 0.0:
            continue
        parts.append(_term(c, name, lead=not parts))
    if not parts:
        return "0 " + names[0]
    lines = [" ".join(parts[i : i + per_line]) for i in range(0, len(parts), per_line)]
    return "\n   ".join(lines)


def write_fixed_count_lp(fh, problem: FixedCountProblem) -> None:
    """Emit the full fixed-count integer linear model.

    Variables: one binary per candidate and one binary per cloud point
    (the covered indicator).  Rows: at most one sensor per position, the
    exact sensor count, and one linking row per point forcing its
    indicator to zero unless some selected candidate covers it.
    """
    data = problem.data
    n_cfg = data.num_configs
    n_pts = data.num_points
    x_names = [f"x{i}" for i in range(n_cfg)]
    z_names = [f"z{r}" for r in range(n_pts)]

    obj_coeffs = list(problem.cost_weight * problem.costs) + [
        -problem.coverage_weight * w / data.normalizer for w in data.weights
    ]
    fh.write("\\ fixed sensor-count coverage model\n")
    fh.write("Minimize\n obj: ")
    fh.write(_objective_lines(x_names + z_names, obj_coeffs))
    fh.write("\nSubject To\n")

    groups = problem.position_groups
    for p in sorted(groups):
        members = " + ".join(x_names[i] for i in groups[p])
        fh.write(f" pos{p}: {members} <= 1\n")
    fh.write(f" count: {' + '.join(x_names)} = {problem.num_sensors}\n")

    for r in range(n_pts):
        covering = np.flatnonzero(data.masks[:, r])
        if covering.size:
            lhs = f"{z_names[r]} - " + " - ".join(x_names[i] for i in covering)
        else:
            lhs = z_names[r]
        fh.write(f" cov{r}: {lhs} <= 0\n")

    fh.write("Binaries\n")
    for name in x_names + z_names:
        fh.write(f" {name}\n")
    fh.write("End\n")


def write_iqp_lp(fh, model: QuadraticModel, data: CoverageData) -> None:
    """Emit the free-count quadratic model with position-uniqueness rows.

    The quadratic objective uses the LP bracket convention: a pair term
    ``c x_i * x_j`` inside ``[ ... ] / 2`` contributes ``c / 2``, so the
    full pair coefficient ``2 * quadratic[i, j]`` is written as
    ``4 * quadratic[i, j]``.
    """
    n = model.num_variables
    names = [f"x{i}" for i in range(n)]
    fh.write("\\ free-count quadratic coverage model\n")
    for i, label in enumerate(model.variable_names):
        fh.write(f"\\ x{i} = {label}\n")
    fh.write("Minimize\n obj: ")
    fh.write(_objective_lines(names, model.linear))
    quad_parts = []
    for i in range(n):
        for j in range(i + 1, n):
            q = model.quadratic[i, j]
            if q != 0.0:
                quad_parts.append(_term(4.0 * q, f"{names[i]} * {names[j]}", lead=not quad_parts))
    if quad_parts:
        wrapped = "\n   ".join(
            " ".join(quad_parts[i : i + 6]) for i in range(0, len(quad_parts), 6)
        )
        fh.write("\n   + [ " + wrapped + " ] / 2")
    fh.write("\nSubject To\n")
    groups, _ = position_index_map(data.configs)
    for p in sorted(groups):
        members = " + ".join(names[i] for i in groups[p])
        fh.write(f" pos{p}: {members} <= 1\n")
    fh.write("Binaries\n")
    for name in names:
        fh.write(f" {name}\n")
    fh.write("End\n")


def write_qubo_coo(fh, model: QuadraticModel) -> None:
    """Emit the QUBO as ``i j value`` triples plus an offset header."""
    n = model.num_variables
    fh.write(QUBO_COO_SCHEMA + "\n")
    fh.write(f"# variables {n}\n")
    fh.write(f"# offset {repr(float(model.offset))}\n")
    fh.write("# i j coefficient of x_i*x_j (i == j rows are linear terms)\n")
    for i in range(n):
        if model.linear[i] != 0.0:
            fh.write(f"{i} {i} {repr(float(model.linear[i]))}\n")
        for j in range(i + 1, n):
            q = model.quadratic[i, j]
            if q != 0.0:
                fh.write(f"{i} {j} {repr(float(2.0 * q))}\n")


def read_qubo_coo(fh) -> QuadraticModel:
    """Inverse of :func:`write_qubo_coo` (round-trip checks and tooling)."""
    n = None
    offset = 0.0
    triples: list[tuple[int, int, float]] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["variables"]:
                n = int(parts[1])
            elif parts[:1] == ["offset"]:
                offset = float(parts[1])
            continue
        i, j, v = line.split()
        triples.append((int(i), int(j), float(v)))
    if n is None:
        raise ValueError("missing '# variables' header")
    linear = np.zeros(n)
    quadratic = np.zeros((n, n))
    for i, j, v in triples:
        if i == j:
            linear[i] = v
        else:
            quadratic[i, j] = v / 2.0
            quadratic[j, i] = v / 2.0
    return QuadraticModel(
        linear=linear,
        quadratic=quadratic,
        offset=offset,
        variable_names=tuple(f"x{i}" for i in range(n)),
    )
