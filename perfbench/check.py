"""Independent answer checker for the benchmark's rounds.

Nothing here imports ``sensorplace``.  The checker rebuilds each
workload instance from its configuration with its own code: the
synthetic cloud and its side partition, the candidate mounts, an
elliptical-cone field-of-view test and union-coverage sums.  It then
re-scores every selection the program reported.

An operation is one row of ``sweep.csv`` (side x solver x sensor count).
It fails when it carries an error or when a check on its selection
fails; the reasons are kept per row.  Checks on the whole-vehicle files
(``aggregate.csv``, ``selections.json``) are reported as errors, which
make the round incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The default catalog as documented: name, horizontal and vertical sweep
# (degrees), range (m), unit cost.
CATALOG = (
    ("lidar", 80.0, 40.0, 120.0, 200.0),
    ("radar", 60.0, 5.0, 120.0, 100.0),
    ("camera", 90.0, 60.0, 20.0, 120.0),
    ("ultrasonic", 90.0, 5.0, 10.0, 20.0),
)
LENGTH, WIDTH, HEIGHT = 4.5, 1.8, 1.5      # default vehicle box, footprint centred at 0
SIDES = ("front", "back", "left", "right")
NORMALS = {"front": (1.0, 0.0), "back": (-1.0, 0.0), "left": (0.0, 1.0), "right": (0.0, -1.0)}
EDGE_SLACK = 1e-9    # points on the cone edge count as seen
TOL = 1e-9           # absolute tolerance on re-scored coverage, cost, objective, energy


def synthetic_cloud(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid ring around the vehicle with jittered inverse-distance criticality."""
    m = re.fullmatch(r"\s*inverse_distance\(([^)]*)\)\s*", spec["profile"])
    if not m:
        raise ValueError(f"checker only rebuilds inverse_distance clouds, got {spec['profile']!r}")
    args = [float(a) for a in m.group(1).split(",")]
    scale, jitter = args[0], (args[1] if len(args) > 1 else 0.0)
    spacing, extent = spec["spacing"], spec["extent"]
    half_x, half_y = LENGTH / 2 + extent, WIDTH / 2 + extent
    xs = -half_x + (np.arange(int(round(2 * half_x / spacing))) + 0.5) * spacing
    ys = -half_y + (np.arange(int(round(2 * half_y / spacing))) + 0.5) * spacing
    levels = []
    for z in spec.get("z_levels", [1.0]):
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        levels.append(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1))
    pts = np.concatenate(levels)
    inside = (np.abs(pts[:, 0]) < LENGTH / 2) & (np.abs(pts[:, 1]) < WIDTH / 2) \
        & (pts[:, 2] > 0.0) & (pts[:, 2] < HEIGHT)
    pts = pts[~inside]
    gap = np.hypot(np.clip(np.abs(pts[:, 0]) - LENGTH / 2, 0, None),
                   np.clip(np.abs(pts[:, 1]) - WIDTH / 2, 0, None))
    crit = 1.0 / (1.0 + gap / scale)
    if jitter > 0.0:
        crit = crit * (1.0 - jitter * np.random.default_rng(spec["seed"]).random(len(pts)))
    return pts, np.clip(crit, 0.0, 1.0)


def side_of(pts: np.ndarray) -> np.ndarray:
    """Diagonal sectors of the footprint; ties on a diagonal go to front/back."""
    u = pts[:, 0] / (LENGTH / 2)
    v = pts[:, 1] / (WIDTH / 2)
    return np.select([u >= np.abs(v), -u >= np.abs(v), v > 0], ["front", "back", "left"], "right")


def mounts(side: str, horizontal: int, vertical: int) -> np.ndarray:
    """Cell centres of the face grid, horizontal index slowest."""
    nx, ny = NORMALS[side]
    ext_h = WIDTH if side in ("front", "back") else LENGTH
    half_depth = (LENGTH if side in ("front", "back") else WIDTH) / 2
    centre = np.array([nx * half_depth, ny * half_depth, HEIGHT / 2])
    across = np.array([-ny, nx, 0.0])    # up x normal
    out = []
    for a in range(horizontal):
        for b in range(vertical):
            u = (a + 0.5) / horizontal * ext_h - ext_h / 2
            w = (b + 0.5) / vertical * HEIGHT - HEIGHT / 2
            out.append(centre + u * across + np.array([0.0, 0.0, w]))
    return np.array(out)


def seen(pts: np.ndarray, apex: np.ndarray, side: str, yaw_deg: float, type_index: int) -> np.ndarray:
    """Elliptical cone of the sensor type, truncated at its range."""
    _, alpha_h, alpha_v, reach, _ = CATALOG[type_index]
    nx, ny = NORMALS[side]
    heading = math.atan2(ny, nx) + math.radians(yaw_deg)
    c, s = math.cos(heading), math.sin(heading)
    d = pts - apex
    ahead = d[:, 0] * c + d[:, 1] * s
    lateral = d[:, 1] * c - d[:, 0] * s
    up = d[:, 2]
    th = math.tan(math.radians(alpha_h) / 2)
    tv = math.tan(math.radians(alpha_v) / 2)
    in_cone = (ahead > 0) & (
        lateral ** 2 / th ** 2 + up ** 2 / tv ** 2 <= (1.0 + EDGE_SLACK) * ahead ** 2
    )
    r2 = (d ** 2).sum(axis=1)
    return (r2 <= reach ** 2) & (in_cone | (r2 == 0.0))


@dataclass
class SideInstance:
    """One side's candidates, rebuilt from the configuration."""

    types: np.ndarray        # (N,) type index
    positions: np.ndarray    # (N,) mount index
    apex: np.ndarray         # (N, 3)
    costs: np.ndarray        # (N,)
    masks: np.ndarray        # (N, points of this side)
    crit: np.ndarray         # criticality of this side's points
    vehicle_masks: np.ndarray  # (N, all points)
    singles: np.ndarray = field(init=False)
    overlaps: np.ndarray = field(init=False)

    def __post_init__(self):
        weighted = self.masks * self.crit
        total = self.crit.sum()
        self.overlaps = weighted @ self.masks.T.astype(float) / total
        self.singles = weighted.sum(axis=1) / total

    @property
    def size(self) -> int:
        return len(self.types)

    def coverage(self, sel) -> float:
        union = self.masks[list(sel)].any(axis=0)
        return float(self.crit[union].sum() / self.crit.sum())

    def cost(self, sel) -> float:
        return float(sum(self.costs[i] for i in sel))

    def energy(self, bits: np.ndarray, w_cov: float, w_cost: float) -> np.ndarray:
        """Quadratic set-cover energy of a batch of {0,1} rows."""
        x = np.atleast_2d(bits).astype(float)
        approx = 1.5 * x @ self.singles - 0.5 * np.einsum("bi,ij,bj->b", x, self.overlaps, x)
        return -w_cov * approx + w_cost * x @ self.costs


class Instance:
    """A workload instance rebuilt from its configuration dict."""

    def __init__(self, config: dict):
        if config.get("orientation_mode") != "fixed" or config.get("orientations") is not None:
            raise ValueError("checker only rebuilds fixed-yaw instances")
        self.config = config
        self.w_cov = config.get("coverage_weight", 1.0)
        self.w_cost = config.get("cost_weight", 1e-4)
        self.points, self.crit = synthetic_cloud(config["synthetic"])
        labels = side_of(self.points)
        horizontal, vertical = config["grid"]
        self.sides = {}
        for side in SIDES:
            apex = mounts(side, horizontal, vertical)
            rows = [(t, p) for t in range(len(CATALOG)) for p in range(len(apex))]
            types = np.array([t for t, _ in rows])
            positions = np.array([p for _, p in rows])
            on_side = labels == side
            full = np.array([seen(self.points, apex[p], side, 0.0, t) for t, p in rows])
            self.sides[side] = SideInstance(
                types=types,
                positions=positions,
                apex=apex[positions],
                costs=np.array([CATALOG[t][4] for t in types]),
                masks=full[:, on_side],
                crit=self.crit[on_side],
                vehicle_masks=full,
            )

    def objective(self, side: str, sel) -> float:
        inst = self.sides[side]
        return -self.w_cov * inst.coverage(sel) + self.w_cost * inst.cost(sel)

    def vehicle_coverage(self, per_side: dict) -> float:
        covered = np.zeros(len(self.points), dtype=bool)
        for side, sel in per_side.items():
            for i in sel:
                covered |= self.sides[side].vehicle_masks[i]
        return float(self.crit[covered].sum() / self.crit.sum())


# ---------------------------------------------------------------------------
# Reading a round's output directory


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return list(csv.DictReader(lines))


def _indices(text: str) -> list[int]:
    return [int(t) for t in text.split()] if text not in ("", "n/a") else []


def load_outputs(out_dir) -> dict:
    """Parse the files of one round into plain Python values."""
    out = Path(out_dir)
    outputs = {
        "sweep": _csv_rows(out / "sweep.csv"),
        "aggregate": _csv_rows(out / "aggregate.csv"),
        "selections": json.loads((out / "selections.json").read_text()),
        "samples": {},
    }
    for side in SIDES:
        path = out / f"samples_{side}.csv"
        if path.exists():
            outputs["samples"][side] = [
                (float(r["energy"]), int(r["multiplicity"]), [int(b) for b in r["bits"]])
                for r in _csv_rows(path)
            ]
    return outputs


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Verdict:
    operations: list = field(default_factory=list)   # (label, reasons)
    errors: list = field(default_factory=list)
    vehicle_coverage: dict = field(default_factory=dict)   # solver -> aggregate coverage

    @property
    def failed(self) -> int:
        return sum(1 for _, reasons in self.operations if reasons)

    def reasons(self) -> list[str]:
        out = [f"{label}: {r}" for label, reasons in self.operations for r in reasons]
        return out + self.errors


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_round(instance: Instance, outputs: dict) -> Verdict:
    config = instance.config
    fixed = config["approach"] == "fixed_count"
    verdict = Verdict()
    ops = []   # (row, parsed selection or None, reasons)
    for row in outputs["sweep"]:
        reasons = []
        sel = None
        if row["error"]:
            reasons.append(f"error {row['error']}")
        elif row["side"] not in instance.sides:
            reasons.append("unknown side")
        else:
            inst = instance.sides[row["side"]]
            sel = _indices(row["selected"])
            if any(not 0 <= i < inst.size for i in sel) or len(set(sel)) != len(sel):
                reasons.append("candidate index out of range or repeated")
                sel = None
            else:
                cov, cost = inst.coverage(sel), inst.cost(sel)
                if not _close(cov, float(row["coverage"])):
                    reasons.append(f"coverage {row['coverage']} != recomputed {cov!r}")
                if not _close(cost, float(row["cost"])):
                    reasons.append(f"cost {row['cost']} != recomputed {cost!r}")
                if not _close(-instance.w_cov * cov + instance.w_cost * cost, float(row["objective"])):
                    reasons.append("objective does not match coverage and cost")
                if len(sel) != int(row["n_sensors"]):
                    reasons.append(f"{len(sel)} sensors selected, row says {row['n_sensors']}")
                if fixed and len(set(inst.positions[sel].tolist())) != len(sel):
                    reasons.append("two sensors share a mount position")
        ops.append((row, sel, reasons))

    if fixed:
        _check_fixed_count(instance, ops)
    elif "anneal" in config["solvers"]:
        _check_anneal(instance, ops, outputs["samples"])
    if not fixed and "exhaustive" in config["solvers"]:
        _check_qubo(instance, ops)

    verdict.operations = [
        (f"{row['side']}/{row['solver']}/k={row['n_sensors']}", reasons) for row, _, reasons in ops
    ]
    _check_reports(instance, outputs, ops, verdict)
    return verdict


def _by_solver(ops, key):
    """{key(row): {solver: (selection, reasons)}} over the checked rows."""
    groups: dict = {}
    for row, sel, reasons in ops:
        groups.setdefault(key(row), {})[row["solver"]] = (sel, reasons)
    return groups


def _best_by_enumeration(inst: SideInstance, k: int, w_cov: float, w_cost: float) -> float:
    """Lowest fixed-count objective over all k <= 2 selections at distinct positions."""
    crit = inst.crit / inst.crit.sum()
    if k == 1:
        cov = inst.masks @ crit
        return float(np.min(-w_cov * cov + w_cost * inst.costs))
    i, j = np.triu_indices(inst.size, 1)
    keep = inst.positions[i] != inst.positions[j]
    i, j = i[keep], j[keep]
    cov = (inst.masks[i] | inst.masks[j]) @ crit
    return float(np.min(-w_cov * cov + w_cost * (inst.costs[i] + inst.costs[j])))


def _check_fixed_count(instance: Instance, ops) -> None:
    for (side, k), by_solver in _by_solver(ops, lambda r: (r["side"], int(r["n_sensors"]))).items():
        if "exhaustive" not in by_solver or by_solver["exhaustive"][0] is None:
            continue
        sel, reasons = by_solver["exhaustive"]
        best = instance.objective(side, sel)
        for other, (other_sel, _) in by_solver.items():
            if other != "exhaustive" and other_sel is not None:
                if instance.objective(side, other_sel) < best - TOL:
                    reasons.append(f"exhaustive objective worse than {other}")
        if k <= 2:
            reference = _best_by_enumeration(instance.sides[side], k, instance.w_cov, instance.w_cost)
            if not _close(best, reference):
                reasons.append(f"exhaustive objective {best!r} != enumerated optimum {reference!r}")


def _bits(size: int, sel) -> np.ndarray:
    bits = np.zeros(size, dtype=np.uint8)
    bits[list(sel)] = 1
    return bits


def _check_anneal(instance: Instance, ops, samples: dict) -> None:
    reads = instance.config["anneal_reads"]
    for row, sel, reasons in ops:
        if row["solver"] != "anneal" or sel is None:
            continue
        inst = instance.sides[row["side"]]
        dumped = samples.get(row["side"])
        if not dumped:
            reasons.append("no sample dump")
            continue
        bits = np.array([b for _, _, b in dumped], dtype=np.uint8)
        if bits.shape[1:] != (inst.size,):
            reasons.append("sample width does not match the candidate count")
            continue
        energies = inst.energy(bits, instance.w_cov, instance.w_cost)
        if any(not _close(e, r) for (e, _, _), r in zip(dumped, energies)):
            reasons.append("a dumped sample energy does not match its assignment")
        if sum(m for _, m, _ in dumped) != reads:
            reasons.append(f"multiplicities do not sum to {reads} reads")
        match = np.flatnonzero((bits == _bits(inst.size, sel)).all(axis=1))
        if match.size == 0:
            reasons.append("decoded selection is not among the samples")
        elif energies[match[0]] > energies.min() + TOL:
            reasons.append("decoded selection is not the lowest-energy sample")


def _all_energies(inst: SideInstance, w_cov: float, w_cost: float) -> np.ndarray:
    n = inst.size
    codes = np.arange(2 ** n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
    return np.concatenate([
        inst.energy(bits[lo:lo + 4096], w_cov, w_cost) for lo in range(0, len(bits), 4096)
    ])


def _check_qubo(instance: Instance, ops) -> None:
    for side, by_solver in _by_solver(ops, lambda r: r["side"]).items():
        inst = instance.sides[side]
        if "exhaustive" not in by_solver or by_solver["exhaustive"][0] is None:
            continue
        sel, reasons = by_solver["exhaustive"]
        found = float(inst.energy(_bits(inst.size, sel), instance.w_cov, instance.w_cost)[0])
        optimum = float(_all_energies(inst, instance.w_cov, instance.w_cost).min())
        if not _close(found, optimum):
            reasons.append(f"exhaustive QUBO energy {found!r} != enumerated optimum {optimum!r}")
        for other, (other_sel, other_reasons) in by_solver.items():
            if other != "exhaustive" and other_sel is not None:
                energy = float(inst.energy(_bits(inst.size, other_sel), instance.w_cov, instance.w_cost)[0])
                if energy < found - TOL:
                    other_reasons.append(f"{other} energy {energy!r} below the exhaustive optimum {found!r}")


def _check_reports(instance: Instance, outputs: dict, ops, verdict: Verdict) -> None:
    fixed = instance.config["approach"] == "fixed_count"
    aggregate = {(r["solver"], r["side"]): r for r in outputs["aggregate"]}
    selections = outputs["selections"]
    if sorted(selections) != sorted(instance.config["solvers"]):
        verdict.errors.append(f"selections.json lists solvers {sorted(selections)}")
        return
    for solver, per_side in selections.items():
        chosen = {}
        for side in SIDES:
            entry = per_side.get(side)
            if entry is None:
                verdict.errors.append(f"{solver}: no {side} selection")
                continue
            inst = instance.sides[side]
            sel = [int(i) for i in entry["selected"]]
            if any(not 0 <= i < inst.size for i in sel):
                verdict.errors.append(f"{solver}/{side}: selection out of range")
                continue
            chosen[side] = sel
            for i, placed in zip(sel, entry["configs"]):
                if (placed["type_index"] != inst.types[i] or placed["side"] != side
                        or placed["orientation"] != 0.0
                        or not np.allclose(placed["position"], inst.apex[i], rtol=0, atol=1e-12)):
                    verdict.errors.append(f"{solver}/{side}: candidate {i} is placed differently")
            distinct = len(set(inst.positions[sel].tolist())) == len(sel)
            if bool(entry["feasible"]) != distinct:
                verdict.errors.append(f"{solver}/{side}: feasible flag disagrees with positions")
            if not _close(entry["coverage"], inst.coverage(sel)) or not _close(entry["cost"], inst.cost(sel)):
                verdict.errors.append(f"{solver}/{side}: selections.json coverage or cost is wrong")
            rows = [(row, rsel) for row, rsel, _ in ops
                    if row["solver"] == solver and row["side"] == side and rsel is not None]
            if not any(sorted(rsel) == sorted(sel) for _, rsel in rows):
                verdict.errors.append(f"{solver}/{side}: winner is not a row of sweep.csv")
            elif fixed and instance.objective(side, sel) > min(
                    instance.objective(side, rsel) for _, rsel in rows) + TOL:
                verdict.errors.append(f"{solver}/{side}: winner is not the best sweep row")
            row = aggregate.get((solver, side))
            if row is None or _indices(row["selected"]) != sel:
                verdict.errors.append(f"{solver}/{side}: aggregate.csv row differs from selections.json")
        if len(chosen) != len(SIDES):
            continue
        whole = instance.vehicle_coverage(chosen)
        row = aggregate.get((solver, "aggregate"))
        if row is None or not _close(float(row["coverage"]), whole):
            verdict.errors.append(f"{solver}: aggregate coverage != recomputed {whole!r}")
            continue
        cost = sum(instance.sides[s].cost(sel) for s, sel in chosen.items())
        if not _close(float(row["cost"]), cost):
            verdict.errors.append(f"{solver}: aggregate cost != recomputed {cost!r}")
        verdict.vehicle_coverage[solver] = float(row["coverage"])
