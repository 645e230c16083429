"""Plain-text model exports: LP files and a QUBO coordinate format.

Both LP writers go through one writer of the file layout, with the
objective wrapping and the at-most-one-per-position rows written once.
The fixed-count export is the full integer linear model, with one
covered-point indicator and linking row per cloud point; it needs a
fixed count and raises ``ValueError`` on a free-count problem.  The
free-count export puts the quadratic objective in a ``[ ... ] / 2``
bracket and reads its position rows from the side's problem.

The QUBO coordinate format is one ``i j value`` triple per line, where
``i == j`` rows are linear terms and ``i < j`` rows hold the full
coefficient of ``x_i * x_j``; the offset travels in a header comment.
"""

from __future__ import annotations

import numpy as np

from .coverage import limb_total
from .fixed_count import FixedCountProblem, sensor_count
from .plain import _fmt
from .setcover import QuadraticModel

QUBO_COO_SCHEMA = "# sensorplace qubo coo v1"


def _objective_lines(names, coeffs, per_line: int = 8) -> str:
    """Objective expression wrapped onto continuation lines (LP readers
    treat line breaks between tokens as whitespace)."""
    parts = []
    for name, c in zip(names, coeffs):
        if c != 0.0:
            body = f"{_fmt(abs(c))} {name}"
            parts.append(f"- {body}" if c < 0 else f"+ {body}" if parts else body)
    if not parts:
        return "0 " + names[0]
    lines = [" ".join(parts[i : i + per_line]) for i in range(0, len(parts), per_line)]
    return "\n   ".join(lines)


def _position_rows(problem: FixedCountProblem, names) -> list[tuple[str, str, str]]:
    groups = problem.position_groups
    return [(f"pos{p}", " + ".join(names[i] for i in groups[p]), "<= 1") for p in sorted(groups)]


def _write_lp(fh, title: list[str], objective: str, rows, binaries) -> None:
    """One LP file: ``title`` as comment lines, ``Minimize`` the
    objective, ``Subject To`` the rows, then the binaries."""
    fh.writelines(f"\\ {line}\n" for line in title)
    fh.write(f"Minimize\n obj: {objective}\nSubject To\n")
    fh.writelines(f" {name}: {lhs} {bound}\n" for name, lhs, bound in rows)
    fh.write("Binaries\n")
    fh.writelines(f" {name}\n" for name in binaries)
    fh.write("End\n")


def write_fixed_count_lp(fh, problem: FixedCountProblem) -> None:
    """Emit the full fixed-count integer linear model.

    Variables: one binary per candidate and one binary per cloud point
    (the covered indicator).  Rows: at most one sensor per position, the
    exact sensor count, and one linking row per point forcing its
    indicator to zero unless some selected candidate covers it.
    """
    k = sensor_count(problem)
    data = problem.data
    x_names = [f"x{i}" for i in range(data.num_configs)]
    z_names = [f"z{r}" for r in range(data.num_points)]
    obj_coeffs = list(problem.cost_weight * problem.costs) + [
        -problem.coverage_weight * w / data.normalizer for w in limb_total(data.limbs.T)
    ]
    rows = _position_rows(problem, x_names) + [("count", " + ".join(x_names), f"= {k}")]
    rows += [
        (f"cov{r}", " - ".join([z] + [x_names[i] for i in np.flatnonzero(data.masks[:, r])]), "<= 0")
        for r, z in enumerate(z_names)
    ]
    objective = _objective_lines(x_names + z_names, obj_coeffs)
    _write_lp(fh, ["fixed sensor-count coverage model"], objective, rows, x_names + z_names)


def write_iqp_lp(fh, model: QuadraticModel, problem: FixedCountProblem) -> None:
    """Emit the free-count quadratic model with the position rows of
    ``problem``, the side's free-count problem.

    The quadratic objective uses the LP bracket convention: a pair term
    ``c x_i * x_j`` inside ``[ ... ] / 2`` contributes ``c / 2``, so the
    full pair coefficient ``2 * quadratic[i, j]`` is written as
    ``4 * quadratic[i, j]``.
    """
    names = [f"x{i}" for i in range(model.num_variables)]
    title = ["free-count quadratic coverage model"]
    title += [f"{name} = {label}" for name, label in zip(names, model.variable_names)]
    objective = _objective_lines(names, model.linear)
    rows, cols = np.nonzero(np.triu(model.quadratic, 1))  # row-major: pairs in (i, j) order
    if rows.size:
        pairs = [f"{names[i]} * {names[j]}" for i, j in zip(rows, cols)]
        objective += f"\n   + [ {_objective_lines(pairs, 4.0 * model.quadratic[rows, cols], 6)} ] / 2"
    _write_lp(fh, title, objective, _position_rows(problem, names), names)


def write_qubo_coo(fh, model: QuadraticModel) -> None:
    """Emit the QUBO as ``i j value`` triples plus an offset header."""
    n = model.num_variables
    fh.write(QUBO_COO_SCHEMA + "\n")
    fh.write(f"# variables {n}\n")
    fh.write(f"# offset {_fmt(model.offset)}\n")
    fh.write("# i j coefficient of x_i*x_j (i == j rows are linear terms)\n")
    coo = np.triu(2.0 * model.quadratic, 1) + np.diag(model.linear)
    for i, j in zip(*np.nonzero(coo)):
        fh.write(f"{i} {j} {_fmt(coo[i, j])}\n")


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
