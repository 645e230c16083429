"""Self-test of the answer checker: clean outputs pass, every corruption is caught.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs the program once per workload shape on small instances (2x2 and
1x2 grids, small budgets), requires the checker to pass the clean
outputs, then hands it corrupted copies of the parsed outputs and
requires each corruption to be reported by the check it targets.
Exits 1 when any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
SMALL = {
    "fixed-count": {"grid": [2, 2], "vqe_max_evals": 20},
    "setcover-anneal": {"grid": [2, 2], "anneal_reads": 50, "anneal_sweeps": 100},
    "setcover-vqe": {"grid": [1, 2], "vqe_max_evals": 26},
}


def rescore(instance, row, sel):
    """Give a sweep row another selection with consistent coverage, cost and objective."""
    inst = instance.sides[row["side"]]
    cov, cost = inst.coverage(sel), inst.cost(sel)
    row["selected"] = " ".join(str(i) for i in sorted(sel))
    row["coverage"] = repr(cov)
    row["cost"] = repr(cost)
    row["objective"] = repr(-instance.w_cov * cov + instance.w_cost * cost)
    if instance.config["approach"] == "setcover":   # the free count is the selection's size
        row["n_sensors"] = str(len(sel))


def find(outputs, solver, k=None, side="front"):
    for row in outputs["sweep"]:
        if row["solver"] == solver and row["side"] == side and (k is None or int(row["n_sensors"]) == k):
            return row
    raise LookupError((solver, k, side))


def worst_distinct(instance, side, k):
    """k candidates at distinct positions with the smallest single coverage."""
    inst = instance.sides[side]
    chosen, used = [], set()
    for i in sorted(range(inst.size), key=lambda i: (inst.singles[i], -inst.costs[i])):
        if inst.positions[i] not in used:
            chosen.append(i)
            used.add(inst.positions[i])
        if len(chosen) == k:
            return chosen
    raise LookupError(k)


def _corrupt_row_numbers(field, delta):
    def apply(instance, out):
        row = out["sweep"][0]
        row[field] = repr(float(row[field]) + delta)
    return apply


def _shared_position(instance, out):
    row = find(out, "greedy", 2)
    size = instance.sides["front"].size
    rescore(instance, row, [0, size // 4])   # same mount, types 0 and 1


def _drop_sensor(instance, out):
    row = find(out, "exhaustive", 2)
    rescore(instance, row, [int(row["selected"].split()[0])])


def _exhaustive_worse(k):
    def apply(instance, out):
        rescore(instance, find(out, "exhaustive", k), worst_distinct(instance, "front", k))
    return apply


def _row_error(instance, out):
    out["sweep"][0]["error"] = "BudgetExceededError: injected"


def _sample_energy(instance, out):
    energy, mult, bits = out["samples"]["front"][0]
    out["samples"]["front"][0] = (energy + 1e-3, mult, bits)


def _multiplicity(instance, out):
    energy, mult, bits = out["samples"]["front"][0]
    out["samples"]["front"][0] = (energy, mult + 1, bits)


def _not_lowest(instance, out):
    row = find(out, "anneal")
    chosen = sorted(int(i) for i in row["selected"].split())
    for _, _, bits in out["samples"]["front"]:
        sel = [i for i, b in enumerate(bits) if b]
        if sel != chosen:
            rescore(instance, row, sel)
            return
    raise LookupError("only one distinct sample")


def _qubo_not_optimal(instance, out):
    size = instance.sides["front"].size
    rescore(instance, find(out, "exhaustive"), list(range(size)))


def _aggregate_coverage(instance, out):
    row = next(r for r in out["aggregate"] if r["side"] == "aggregate")
    row["coverage"] = repr(float(row["coverage"]) - 0.01)


def _selection_coverage(instance, out):
    entry = next(iter(out["selections"].values()))["front"]
    entry["coverage"] += 0.01


def _feasible_flag(instance, out):
    entry = next(iter(out["selections"].values()))["front"]
    entry["feasible"] = not entry["feasible"]


def _winner_not_best(instance, out):
    entry = out["selections"]["exhaustive"]["front"]
    worse = max((r for r in out["sweep"] if r["solver"] == "exhaustive" and r["side"] == "front"),
                key=lambda r: float(r["objective"]))
    sel = [int(i) for i in worse["selected"].split()]
    inst = instance.sides["front"]
    entry.update(selected=sel, coverage=inst.coverage(sel), cost=inst.cost(sel),
                 configs=[{"type_index": int(inst.types[i]), "position": inst.apex[i].tolist(),
                           "orientation": 0.0, "side": "front"} for i in sel])


def _placement(instance, out):
    entry = next(iter(out["selections"].values()))["front"]
    entry["configs"][0]["position"][2] += 0.1


# (workload, what is corrupted, corruption, text the checker must report)
CASES = [
    ("fixed-count", "row coverage", _corrupt_row_numbers("coverage", 0.01), "coverage"),
    ("fixed-count", "row cost", _corrupt_row_numbers("cost", 20.0), "cost"),
    ("fixed-count", "row objective", _corrupt_row_numbers("objective", 0.01), "objective does not match"),
    ("fixed-count", "row error", _row_error, "error BudgetExceededError"),
    ("fixed-count", "two sensors at one mount", _shared_position, "share a mount position"),
    ("fixed-count", "sensor count", _drop_sensor, "sensors selected"),
    ("fixed-count", "exhaustive beaten at k=3", _exhaustive_worse(3), "exhaustive objective worse than"),
    ("fixed-count", "exhaustive not optimal at k=2", _exhaustive_worse(2), "enumerated optimum"),
    ("fixed-count", "aggregate coverage", _aggregate_coverage, "aggregate coverage"),
    ("fixed-count", "selections.json coverage", _selection_coverage, "selections.json coverage"),
    ("fixed-count", "selections.json placement", _placement, "placed differently"),
    ("fixed-count", "selections.json feasible flag", _feasible_flag, "feasible flag"),
    ("fixed-count", "winner not the best row", _winner_not_best, "winner is not the best sweep row"),
    ("setcover-anneal", "dumped sample energy", _sample_energy, "dumped sample energy"),
    ("setcover-anneal", "multiplicities", _multiplicity, "multiplicities do not sum"),
    ("setcover-anneal", "decoded selection", _not_lowest, "not the lowest-energy sample"),
    ("setcover-anneal", "aggregate coverage", _aggregate_coverage, "aggregate coverage"),
    ("setcover-vqe", "exhaustive QUBO answer", _qubo_not_optimal, "exhaustive QUBO energy"),
    ("setcover-vqe", "VQE below the exhaustive answer", _qubo_not_optimal, "below the exhaustive optimum"),
    ("setcover-vqe", "row coverage", _corrupt_row_numbers("coverage", 0.01), "coverage"),
]


def produce(name: str, out_dir: Path) -> dict:
    """Run the program on a small instance of the workload; return its config."""
    import sensorplace
    from worker import run_config

    config = workloads.workload_config(name, seed=0)
    config.update(SMALL[name])
    sensorplace.run(run_config(sensorplace, config, out_dir))
    return config


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "sensorplace" / "__init__.py").is_file():
        print(f"no sensorplace sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    base = HERE / "runs" / "selftest"
    shutil.rmtree(base, ignore_errors=True)

    missed = 0
    clean = {}
    for name in SMALL:
        config = produce(name, base / name)
        instance = check.Instance(config)
        outputs = check.load_outputs(base / name)
        reasons = check.check_round(instance, outputs).reasons()
        status = "ok" if not reasons else "FAIL: " + "; ".join(reasons)
        print(f"{name:16s} clean outputs: {status}")
        missed += bool(reasons)
        clean[name] = (instance, outputs)

    for name, what, corrupt, expected in CASES:
        instance, outputs = clean[name]
        bad = copy.deepcopy(outputs)
        corrupt(instance, bad)
        reasons = check.check_round(instance, bad).reasons()
        caught = any(expected in r for r in reasons)
        missed += not caught
        print(f"{name:16s} {what:32s} {'caught' if caught else 'MISSED'}: "
              + ("; ".join(reasons) if reasons else "no reason given"))
    shutil.rmtree(base, ignore_errors=True)
    print("selftest", "passed" if not missed else f"failed ({missed})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
