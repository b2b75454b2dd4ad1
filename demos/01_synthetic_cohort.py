"""Generate a synthetic ICU oxygen-therapy cohort and look inside it.

Each patient carries static covariates, irregularly sampled labs/vitals,
an oxygen-flow series driven by a noisy biased behavior policy, and a
terminal outcome drawn from a proportional-hazards model whose dose
response is U-shaped around a known per-patient optimum.
"""

import numpy as np

from oxyrl import cohort

config = cohort.GeneratorConfig(n_patients=500, seed=42)
schema = cohort.default_schema()
table = cohort.generate_synthetic_cohort(config, schema)

# one columnar table: per-patient columns, and one row per observation
# whose code is the feature's schema index (oxygen flow comes last)
ages = table.values[table.codes == schema.index("age")]
died = table.outcomes == cohort.DIED
flows = table.values[table.codes == len(schema)]

print(f"patients: {len(table)}, observations: {len(table.codes)}")
print(f"age mean {ages.mean():.1f} (sd {ages.std():.1f})")
print(f"seven-day mortality: {100 * died.mean():.1f}%")
print(f"delivered flow: mean {flows.mean():.1f} L/min, "
      f"IQR {np.percentile(flows, 25):.0f}-{np.percentile(flows, 75):.0f}")

# every patient has a known hazard-minimizing dose; the behavior policy
# doses above it by a configurable bias plus noise. One patient reads back
# as a record.
example = table[0]
optimum = cohort.optimal_dose(config, example.static_covariates["age"])
print(f"\npatient {example.patient_id}: age {example.static_covariates['age']:.0f}, "
      f"optimal dose {optimum:.0f} L/min, outcome {example.outcome} "
      f"at {example.event_time:.0f}h")
print("first flow settings:", [(t, round(f, 1)) for t, f in example.oxygen_series[:4]])

# round-trip through the long-format CSV
cohort.write_cohort_csv("demo_cohort.csv", table, schema)
cohort.write_schema("demo_schema.txt", schema)
reloaded = cohort.load_cohort("demo_cohort.csv", schema)
print(f"\nwrote demo_cohort.csv and demo_schema.txt; reloaded {len(reloaded)} patients")

# resample every patient once onto an 8 h grid and stack the trajectories
# into one matrix; transitions are row indices into it
matrix = cohort.stack_trajectories(table, schema, 8.0)
transitions = cohort.build_transitions(matrix, [0])
print(f"stacked {matrix.n_patients} patients into {len(matrix.states)} rows; "
      f"patient {example.patient_id}: {matrix.offsets[1]} steps, "
      f"{len(transitions)} transitions, "
      f"terminal reward: {transitions.rewards[-1]:+.0f}")
