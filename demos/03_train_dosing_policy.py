"""Train the offline actor-critic on a synthetic cohort and compare its
recommendations with the ground-truth optimal doses.

Takes a couple of minutes: the replay memory is built from resampled
trajectories, the critic regresses bootstrapped targets from slow-moving
target copies, and the actor climbs the critic's action gradient.
"""

import numpy as np

from oxyrl import cohort, ddpg, evaluation

config = cohort.GeneratorConfig(n_patients=1500, seed=7)
schema = cohort.default_schema()
table = cohort.generate_synthetic_cohort(config, schema)
stats = cohort.compute_feature_stats(table, schema)
matrix = cohort.stack_trajectories(table, schema, 8.0)
normalized = cohort.apply_feature_stats(matrix, stats)

memory = evaluation.replay_memory(normalized, np.arange(len(table)), seed=0)
print(f"replay memory: {len(memory)} transitions from {len(table)} patients")

train_config = ddpg.TrainingConfig(max_iterations=10000, patience=10000, seed=11)
result = ddpg.train(memory, train_config)
log = result.log
print(f"trained {log.n_iterations} iterations ({log.stop_reason})")
td = np.asarray(log.td_mse)
print(f"mean squared TD error: first 50 iters {td[:50].mean():.2f}, "
      f"last 50 iters {td[-50:].mean():.2f}")

rows = []
for i in range(300):
    steps = slice(matrix.offsets[i], matrix.offsets[i + 1])
    recommended = result.actor.act(normalized.states[steps]).mean()
    age = matrix.states[steps.start, schema.index("age")]
    rows.append((age, recommended, matrix.actions[steps].mean(),
                 cohort.optimal_dose(config, age)))

rows = np.asarray(rows)
print("\n  age band      recommended   logged   optimal")
for lo, hi in ((50, 65), (65, 75), (75, 120)):
    band = rows[(rows[:, 0] >= lo) & (rows[:, 0] < hi)]
    print(f"  {lo:3d}-{hi:<3d}  {band[:, 1].mean():11.1f} {band[:, 2].mean():8.1f}"
          f" {band[:, 3].mean():9.1f}")

gap = np.abs(rows[:, 1] - rows[:, 3])
print(f"\nmean |recommended - optimal| = {gap.mean():.1f} L/min")
print(f"consistency (mean squared deviation from logged): "
      f"{ddpg.consistency_metric(result.actor, memory):.0f}")
