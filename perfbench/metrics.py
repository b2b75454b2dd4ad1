"""Metric catalogue and the derivation of per-layer metrics from spans.

The catalogue is the benchmark's own record of each metric's unit and
direction; ``smoke.py`` checks it against ``BENCHMARK.json``.
"""

from __future__ import annotations

import numpy as np

from tracing import Span, self_times, under

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "patients_per_s": ("1/s", "higher"),
    # training iterations over wall_s; `evaluate` trains nothing and omits it
    "train_iters_per_s": ("1/s", "higher"),
}

# Reported on the human-readable lines only: it reads 0 on a healthy run,
# so it cannot carry a relative bound; the result line's `failed` and
# `attempted` fields carry it.
REPORTED_ONLY = {
    "ops_failed_ratio": ("ratio", "lower"),
}

PER_LAYER = {
    "cohort.load_csv_s": ("s", "lower"),
    "cohort.load_rows_per_s": ("1/s", "higher"),
    "cohort.generate_s": ("s", "lower"),
    "cohort.write_csv_s": ("s", "lower"),
    "cohort.normalize_s": ("s", "lower"),
    "cohort.resample_s": ("s", "lower"),
    "cohort.resample_calls": ("count", "lower"),
    "cohort.transitions": ("count", "lower"),
    "nn.forward_s": ("s", "lower"),
    "nn.backward_s": ("s", "lower"),
    "nn.update_s": ("s", "lower"),
    "nn.blend_s": ("s", "lower"),
    "nn.calls_per_iter": ("count", "lower"),
    "ddpg.iterations": ("count", "lower"),
    "ddpg.step_ms_p50": ("ms", "lower"),
    "ddpg.step_ms_p99": ("ms", "lower"),
    "ddpg.critic_step_s": ("s", "lower"),
    "ddpg.actor_step_s": ("s", "lower"),
    "ddpg.td_target_s": ("s", "lower"),
    "ddpg.polyak_s": ("s", "lower"),
    "ddpg.consistency_s": ("s", "lower"),
    "ddpg.train_self_s": ("s", "lower"),
    "ddpg.checkpoint_io_s": ("s", "lower"),
    "survival.fits": ("count", "lower"),
    "survival.loglik_evals": ("count", "lower"),
    "survival.loglik_evals_per_fit": ("count", "lower"),
    "survival.loglik_ms_p50": ("ms", "lower"),
    "survival.loglik_ms_p99": ("ms", "lower"),
    "survival.fit_self_s": ("s", "lower"),
    "survival.baseline_s": ("s", "lower"),
    "survival.concordance_s": ("s", "lower"),
    "survival.grid_s": ("s", "lower"),
    "survival.converged_ratio": ("ratio", "higher"),
    "evaluation.outcome_model_self_s": ("s", "lower"),
    "evaluation.score_self_s": ("s", "lower"),
    "evaluation.decisions_scored": ("count", "lower"),
    "evaluation.report_s": ("s", "lower"),
    "evaluation.write_s": ("s", "lower"),
    "evaluation.fold_s_p50": ("s", "lower"),
    "evaluation.fold_s_max": ("s", "lower"),
    "figures.render_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Counts that must repeat exactly across two traced passes.
EXACT_COUNTS = ("ddpg.iterations", "survival.loglik_evals",
                "cohort.resample_calls", "evaluation.decisions_scored")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], csv_rows: int) -> dict:
    """Per-layer metrics of one traced pass, except the ones that need a
    second pass (`trace.overhead_pct`) or the output tree
    (`cli.output_bytes`). `csv_rows` is the data-row count of the cohort
    CSV that every `load_cohort` call of the pass reads."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    durations: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        self_total[s.name] = self_total.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        counts[s.name] = counts.get(s.name, 0) + s.count
        durations.setdefault(s.name, []).append(d)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    # one step: from the TD target's start to the polyak update's end
    steps = []
    started = None
    for s in spans:
        if s.name == "ddpg.td_target":
            started = s.start
        elif s.name == "ddpg.polyak_update" and started is not None:
            steps.append(1e3 * (s.end - started))
            started = None

    in_training = under(spans, "ddpg.train")
    nn_calls = sum(1 for s, inside in zip(spans, in_training)
                   if inside and s.name.startswith("nn."))
    iterations = counts.get("ddpg.train", 0)
    fits = n("survival.fit_cox")
    load_s = t("cohort.load_cohort")
    return {
        "cohort.load_csv_s": load_s,
        "cohort.load_rows_per_s": _ratio(csv_rows * n("cohort.load_cohort"), load_s),
        "cohort.generate_s": t("cohort.generate_synthetic_cohort"),
        "cohort.write_csv_s": t("cohort.write_cohort_csv"),
        "cohort.normalize_s": t("cohort.compute_feature_stats",
                                "cohort.apply_feature_stats"),
        "cohort.resample_s": t("cohort.resample_trajectory"),
        "cohort.resample_calls": n("cohort.resample_trajectory"),
        "cohort.transitions": counts.get("cohort.build_transitions", 0),
        "nn.forward_s": t("nn.forward", "nn.forward_cached"),
        "nn.backward_s": t("nn.backward"),
        "nn.update_s": t("nn.apply_update", "nn.commit_running_stats"),
        "nn.blend_s": t("nn.blend_params"),
        "nn.calls_per_iter": _ratio(nn_calls, iterations),
        "ddpg.iterations": iterations,
        "ddpg.step_ms_p50": _pct(steps, 50),
        "ddpg.step_ms_p99": _pct(steps, 99),
        "ddpg.critic_step_s": t("ddpg.critic_step"),
        "ddpg.actor_step_s": t("ddpg.actor_step"),
        "ddpg.td_target_s": t("ddpg.td_target"),
        "ddpg.polyak_s": t("ddpg.polyak_update"),
        "ddpg.consistency_s": t("ddpg.consistency_metric"),
        "ddpg.train_self_s": self_total.get("ddpg.train", 0.0),
        "ddpg.checkpoint_io_s": t("ddpg.save_policy", "ddpg.load_policy",
                                  "ddpg.write_training_log"),
        "survival.fits": fits,
        "survival.loglik_evals": n("survival.partial_loglik"),
        "survival.loglik_evals_per_fit": _ratio(n("survival.partial_loglik"), fits),
        "survival.loglik_ms_p50": 1e3 * _pct(durations.get("survival.partial_loglik", []), 50),
        "survival.loglik_ms_p99": 1e3 * _pct(durations.get("survival.partial_loglik", []), 99),
        "survival.fit_self_s": self_total.get("survival.fit_cox", 0.0),
        "survival.baseline_s": t("survival.breslow_baseline"),
        "survival.concordance_s": t("survival.concordance_index"),
        "survival.grid_s": t("survival.grid_search"),
        "survival.converged_ratio": _ratio(counts.get("survival.fit_cox", 0), fits),
        "evaluation.outcome_model_self_s": self_total.get("evaluation.fit_outcome_model", 0.0),
        "evaluation.score_self_s": self_total.get("evaluation.evaluate_patients", 0.0),
        "evaluation.decisions_scored": counts.get("evaluation.evaluate_patients", 0),
        "evaluation.report_s": t("evaluation.build_report"),
        "evaluation.write_s": t("evaluation.write_report_files"),
        "evaluation.fold_s_p50": _pct(durations.get("evaluation.run_fold", []), 50),
        "evaluation.fold_s_max": max(durations.get("evaluation.run_fold", [0.0])),
        "figures.render_s": t("figures.render_curve", "figures.render_histogram"),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }


def module_shares(spans: list[Span]) -> dict:
    """Share of traced time by module, from self times; sums to 1."""
    by_module: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        module = s.name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + own
    whole = sum(by_module.values())
    return {m: v / whole for m, v in sorted(by_module.items())} if whole else {}
