"""End-to-end leave-one-hospital-out evaluation on a small cohort.

Each of the four hospitals is held out once: the dosing policy and the
outcome model are trained on the other three, then every held-out patient
is scored under both the logged flows and the recommendations. Runs in a
few minutes at this size; the acceptance-scale run uses 2,000 patients.
"""

from oxyrl import cohort, ddpg, evaluation

config = cohort.GeneratorConfig(n_patients=400, seed=3)
schema = cohort.default_schema()
table = cohort.generate_synthetic_cohort(config, schema)

train_config = ddpg.TrainingConfig(max_iterations=4000, patience=4000, seed=11)
runs = evaluation.loho_cross_validate(table, schema, train_config,
                                      interval_hours=8.0)
options = evaluation.EvalOptions(seed=11, curve_bin_width=10.0, n_bootstrap=400)
report = evaluation.build_report([run.fold for run in runs], options)

print(evaluation.format_summary(report))

print("difference-mortality curve (observed outcomes):")
for point in report.curve:
    flag = " (low support)" if point.low_support else ""
    print(f"  [{point.low:+5.0f}, {point.high:+5.0f}) "
          f"n={point.count:4d}  mortality {point.observed_mortality:.3f}{flag}")

evaluation.write_report_files(".", report)
print("\nreport CSVs and summary.txt written to the current directory")
