"""Free sensor-count selection via the quadratic coverage model.

The union coverage is lower-bounded by singles minus pairwise overlaps,
which turns selection into a binary quadratic program whose sensor count
is an output rather than an input.  This demo builds the model for one
side, converts it to spin variables, and compares exhaustive enumeration
with the simulated-annealing sampler (model-scaled temperature ramp).
"""

import io

from sensorplace import (
    DEFAULT_CATALOG,
    PlacementGrid,
    Side,
    VehicleModel,
    anneal,
    best_selection,
    build_coverage,
    build_iqp,
    enumerate_configs,
    partition_roi,
    scaled_schedule,
    solve_exhaustive_qubo,
    to_ising,
)
from sensorplace.exports import write_qubo_coo
from sensorplace.fixed_count import evaluate_bits, make_problem
from sensorplace.roi import SyntheticRoiSpec, generate_synthetic_roi

vehicle = VehicleModel()
cloud = partition_roi(
    generate_synthetic_roi(SyntheticRoiSpec(extent=12.0, spacing=0.5), vehicle), vehicle
)
back = cloud.side_cloud(Side.BACK)
configs = enumerate_configs(DEFAULT_CATALOG, vehicle, PlacementGrid(Side.BACK, 2, 2))
data = build_coverage(back, configs, DEFAULT_CATALOG)

model = build_iqp(data, DEFAULT_CATALOG)
print(f"quadratic model: {model.num_variables} binary variables")

bits, energy = solve_exhaustive_qubo(model)
exact = evaluate_bits(bits, make_problem(data, DEFAULT_CATALOG, 1), "exhaustive_qubo")
print(f"exhaustive optimum: energy {energy:.4f}, {len(exact.selected)} sensors, "
      f"coverage {exact.coverage:.4f}, cost {exact.cost:.0f}")

ising = to_ising(model)
schedule = scaled_schedule(ising, num_reads=1000, sweeps_per_read=500, seed=42)
print(f"annealing: 1000 reads, beta {schedule.beta_start:.2f} -> {schedule.beta_end:.0f}")
samples = anneal(ising, schedule)
print("top samples (energy, multiplicity, bits):")
for k in range(min(3, len(samples))):
    bits_str = "".join(str(int(b)) for b in samples.assignments[k])
    print(f"  {samples.energies[k]:9.4f}  x{samples.multiplicities[k]:<4d} {bits_str}")

result = best_selection(samples, data, DEFAULT_CATALOG)
print(f"annealer pick: {result.selected} -> coverage {result.coverage:.4f}, "
      f"cost {result.cost:.0f}, objective {result.objective:.4f}")
print(f"matches exhaustive energy: {abs(samples.best()[1] - energy) < 1e-9}")

buf = io.StringIO()
write_qubo_coo(buf, model)
print(f"\nQUBO coordinate export: {len(buf.getvalue().splitlines())} lines; head:")
for line in buf.getvalue().splitlines()[:5]:
    print("  " + line)
