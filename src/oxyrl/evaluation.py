"""Leave-one-hospital-out evaluation of a dosing policy against logged care.

Each fold trains the policy and an outcome model on the other hospitals
and scores every patient of the held-out hospital: the outcome model predicts
seven-day mortality at every decision point twice, once with the logged
flow in the covariates and once with the recommended flow, and the
patient-level averages aggregate into pooled estimates, subgroup rows,
difference-mortality curves and flow histograms. Confidence intervals come
from a seeded patient-level bootstrap (percentile method), with paired
resamples so policy differences are resampled consistently.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import cohort, ddpg, survival

WINDOW_HOURS = 7.0 * 24.0

AGE_BANDS = (("age 50 to 65", 50.0, 65.0), ("age 65 to 75", 65.0, 75.0),
             ("age 75 to 80", 75.0, 80.0), ("age >= 80", 80.0, np.inf))
BMI_BANDS = (("bmi < 25", -np.inf, 25.0), ("bmi 25 to 30", 25.0, 30.0),
             ("bmi 30 to 35", 30.0, 35.0), ("bmi >= 35", 35.0, np.inf))


@dataclass
class EvalOptions:
    consistency_threshold: float = 10.0
    curve_bin_width: float = 5.0
    curve_min_count: int = 10
    hist_bin_width: float = 5.0
    n_bootstrap: int = 1000
    seed: int = 0
    mortality_label_threshold: float = 0.5

    def validate(self) -> None:
        if not 0 < self.consistency_threshold < math.inf:
            raise ValueError("consistency threshold must be positive and finite")
        if not (0 < self.curve_bin_width < math.inf and 0 < self.hist_bin_width < math.inf):
            raise ValueError("bin widths must be positive and finite")
        if self.n_bootstrap < 1:
            raise ValueError("bootstrap count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.mortality_label_threshold < 1.0:
            raise ValueError("mortality label threshold must lie in (0, 1)")


@dataclass
class PatientEval:
    patient_id: str
    hospital_id: str
    logged_flows: np.ndarray
    recommended_flows: np.ndarray
    mortality_rl: float
    mortality_logged: float
    observed_death7: bool
    age: float
    male: bool
    bmi: float
    comorbidities: dict


@dataclass
class FoldResult:
    fold_id: str
    patients: list
    cox: survival.CoxModel
    grid: survival.ElasticNetGrid
    concordance: float


@dataclass
class FoldRun:
    """One fold's artifacts: evaluation rows plus the trained policy."""

    fold: FoldResult
    bundle: ddpg.PolicyBundle
    training_log: ddpg.TrainingLog


@dataclass
class FlowStats:
    mean: float
    sd: float

    def transform(self, flows):
        return (np.asarray(flows, dtype=np.float64) - self.mean) / self.sd


# --- outcome-model construction ------------------------------------------------

def outcome_covariates(states, flows, retained_idx, flow_stats: FlowStats):
    """The outcome model's covariates, one row per state row: the retained
    state columns, then the standardized flow (see `covariate_names`)."""
    return np.column_stack([states[:, retained_idx], flow_stats.transform(flows)])


def covariate_names(retained) -> tuple[str, ...]:
    """Names of the `outcome_covariates` columns."""
    return tuple(retained) + ("oxygen_flow",)


def patient_state_means(matrix: cohort.CohortMatrix):
    """Per-patient time-averaged states and flows of every patient."""
    starts, lengths = matrix.offsets[:-1], np.diff(matrix.offsets)
    states = np.add.reduceat(matrix.states, starts, axis=0) / lengths[:, None]
    flows = np.add.reduceat(matrix.actions, starts) / lengths
    return states, flows


def survival_columns(matrix: cohort.CohortMatrix, retained_idx, flow_stats: FlowStats):
    """(covariates, durations in days, events), one row per patient: the
    outcome covariates of the patient's averaged normalized state and mean
    flow, follow-up capped at the seven-day window, and death within it."""
    states, flows = patient_state_means(matrix)
    durations = np.minimum(matrix.event_times, WINDOW_HOURS) / 24.0
    events = (matrix.outcomes == cohort.DIED) & (matrix.event_times <= WINDOW_HOURS)
    return outcome_covariates(states, flows, retained_idx, flow_stats), durations, events


def fit_outcome_model(normalized: cohort.CohortMatrix, schema, seed,
                      grid: survival.ElasticNetGrid | None = None):
    """Prune correlated state features, then grid-search the elastic-net
    penalties on an inner 80/20 split of the patients of `normalized`, whose
    states must be normalized with the training-fold statistics. Returns
    (model, grid, retained names, flow stats)."""
    if grid is None:
        grid = survival.ElasticNetGrid()
    states, flows = patient_state_means(normalized)
    retained = survival.prune_correlated(states, list(schema.names))
    retained_idx = [schema.index(name) for name in retained]
    flow_stats = FlowStats(float(flows.mean()), float(flows.std()) or 1.0)
    x, t, e = survival_columns(normalized, retained_idx, flow_stats)
    # stratified 80/20 split: from two events on, both sides hold events
    # (a single event goes to the fit split); both sides keep the patients'
    # order
    rng = np.random.default_rng(seed)
    in_fit = np.zeros(len(e), dtype=bool)
    for group in (np.flatnonzero(e), np.flatnonzero(~e)):
        order = rng.permutation(len(group))
        cut = max(1, min(len(group) - 1, round(0.8 * len(group))))
        in_fit[group[order[:cut]]] = True
    fit, val = (survival.CoxDesign.of(x[rows], t[rows], e[rows])
                for rows in (in_fit, ~in_fit))
    if not len(val.events):
        warnings.warn("validation split has no events; scoring on the fit split")
        val = fit
    l1, l2, model = survival.grid_search(fit, val, grid)
    model = replace(model, feature_names=covariate_names(retained))
    return model, grid, retained, flow_stats


def actor_policy(actor: ddpg.ActorNet):
    """Recommendation hook querying the trained policy."""
    def fn(states, logged_flows):
        return actor.act(states)
    return fn


def mirror_policy():
    """Recommendation hook echoing logged care (null-policy identities)."""
    def fn(states, logged_flows):
        return np.asarray(logged_flows, dtype=np.float64).copy()
    return fn


def evaluate_patients(fold_id, matrix: cohort.CohortMatrix, patients, schema, stats,
                      recommend_fn, model, retained, flow_stats,
                      grid=None) -> FoldResult:
    """Score held-out patients at every decision point.

    `matrix` is raw; the patients' rows alone are normalized here with the
    training-fold statistics. The outcome model sees identical covariates
    for both policies except for the flow coordinate, and scores the logged
    and recommended rows of the whole fold in one batch (risk is computed
    row by row, so equal rows score bit-identically wherever they sit).
    """
    retained_idx = [schema.index(name) for name in retained]
    normalized = matrix.normalized_rows(patients, stats)
    states, logged = normalized.states, normalized.actions
    starts, lengths = normalized.offsets[:-1], np.diff(normalized.offsets)
    recommended = np.asarray(np.clip(recommend_fn(states, logged),
                                     cohort.FLOW_MIN, cohort.FLOW_MAX), dtype=np.float64)
    covars = np.concatenate([outcome_covariates(states, flows, retained_idx, flow_stats)
                             for flows in (logged, recommended)])
    sums = np.add.reduceat(survival.predict_mortality7(model, covars),
                           np.concatenate([starts, starts + len(states)]))
    m_logged = sums[:len(patients)] / lengths
    m_rl = sums[len(patients):] / lengths

    # static covariates in raw units from each patient's first row; a flag
    # that was never observed reads as absent
    first = matrix.states[matrix.offsets[patients]]
    statics = dict(zip(schema.names, first.T))
    missing = np.full(len(patients), np.nan)
    flags = [name for name, kind in zip(schema.names, schema.kinds)
             if kind == cohort.COMORBIDITY]
    present = {name: np.nan_to_num(statics[name]) != 0.0 for name in flags}
    male = np.nan_to_num(statics.get("male", missing)) != 0.0
    x, t, died7 = survival_columns(normalized, retained_idx, flow_stats)
    scored = [PatientEval(
        patient_id=matrix.patient_ids[patient],
        hospital_id=str(matrix.hospital_ids[patient]),
        logged_flows=logged[start:start + n],
        recommended_flows=recommended[start:start + n],
        mortality_rl=float(m_rl[i]),
        mortality_logged=float(m_logged[i]),
        observed_death7=bool(died7[i]),
        age=float(statics.get("age", missing)[i]),
        male=bool(male[i]),
        bmi=float(statics.get("bmi", missing)[i]),
        comorbidities={name: bool(present[name][i]) for name in flags},
    ) for i, (patient, start, n) in enumerate(zip(patients, starts, lengths))]
    try:
        concordance = survival.concordance_index(model, survival.CoxDesign.of(x, t, died7))
    except ValueError:
        concordance = float("nan")
    return FoldResult(fold_id, scored, model, grid, concordance)


# --- fold orchestration -----------------------------------------------------------

def replay_memory(matrix: cohort.CohortMatrix, patients, stats: cohort.FeatureStats,
                  seed: int) -> ddpg.ReplayMemory:
    """The given patients' one-step transitions as row indices into the raw
    matrix, whose states are normalized with `stats` as they are sampled."""
    transitions = cohort.build_transitions(matrix, patients)
    return ddpg.ReplayMemory(
        matrix.states, transitions.rows, transitions.next_rows,
        matrix.actions[transitions.rows], transitions.rewards, transitions.terminal,
        stats.means, stats.sds, seed)


def run_fold(fold_id, matrix: cohort.CohortMatrix, schema, bundle: ddpg.PolicyBundle,
             fit, test, seed) -> FoldResult:
    """Fit the outcome model on the `fit` patients and score every `test`
    patient (index arrays into the raw `matrix`) with `bundle`'s actor; both
    are normalized with the bundle's feature statistics."""
    stats = cohort.FeatureStats(bundle.feature_names, bundle.feature_means,
                                bundle.feature_sds)
    model, grid, retained, flow_stats = fit_outcome_model(
        matrix.normalized_rows(fit, stats), schema, seed=seed)
    return evaluate_patients(fold_id, matrix, test, schema, stats,
                             actor_policy(bundle.actor), model, retained, flow_stats,
                             grid=grid)


def loho_cross_validate(table: cohort.CohortTable, schema,
                        training_config: ddpg.TrainingConfig,
                        interval_hours: float = 4.0):
    """Train and evaluate once per hospital. Returns a list of FoldRun with
    every test set scored by a policy that never saw its hospital.

    The folds' policies train in lockstep, in fold groups that run in forked
    workers (:func:`ddpg.train_folds`); :func:`run_fold` then fits and scores
    one fold at a time, in fold order, in this process."""
    matrix = cohort.stack_trajectories(table, schema, interval_hours)
    folds = cohort.split_by_hospital(matrix.hospital_ids)
    stats, memories = [], []
    for fold_index, (train, test) in enumerate(folds):
        if not len(train):
            raise cohort.PartitionError(
                f"fold {matrix.hospital_ids[test[0]]}: empty training set")
        stats.append(cohort.compute_feature_stats(table, schema, train))
        memories.append(replay_memory(matrix, train, stats[-1], seed=fold_index))
    results = ddpg.train_folds(memories, training_config)
    del memories    # not kept through scoring
    runs = []
    for fold_index, ((train, test), result) in enumerate(zip(folds, results)):
        bundle = ddpg.PolicyBundle(
            actor=result.actor, critic=result.critic, targets=result.targets,
            config=training_config, interval_hours=matrix.interval_hours,
            feature_names=schema.names, feature_means=stats[fold_index].means,
            feature_sds=stats[fold_index].sds)
        fold = run_fold(str(matrix.hospital_ids[test[0]]), matrix, schema, bundle,
                        train, test, training_config.seed + fold_index)
        runs.append(FoldRun(fold, bundle, result.log))
    return runs


# --- aggregation -------------------------------------------------------------------

# a subgroup's policy difference is significant below this two-sided p
SIGNIFICANCE_P = 0.001


# What a report reads of its folds' patients. Per patient: both mortality
# estimates, the mean recommended and logged flows and their mean difference,
# the observed death and the subgroup covariates (comorbidities: flag name ->
# presence). Per decision point: both flows.
_ReportColumns = namedtuple(
    "_ReportColumns", "m_rl m_lg f_rl f_lg diff died7 age male bmi comorbidities "
                      "rec_flows logged_flows")


def _report_columns(fold_results) -> _ReportColumns:
    """Read each fold's patients once, in fold order. A patient's flow means
    are `np.mean` over its own slice."""
    rows, flags, rec, logged = [], [], [], []
    for fold in fold_results:
        for p in fold.patients:
            rows.append((p.mortality_rl, p.mortality_logged,
                         np.mean(p.recommended_flows), np.mean(p.logged_flows),
                         np.mean(p.recommended_flows - p.logged_flows),
                         p.observed_death7, p.age, p.male, p.bmi))
            flags.append(p.comorbidities)
            rec.append(p.recommended_flows)
            logged.append(p.logged_flows)
    if not rows:
        raise ValueError("no patients to report on")
    present = {name: np.asarray([bool(f.get(name)) for f in flags])
               for name in sorted(set().union(*flags))}
    return _ReportColumns(*map(np.asarray, zip(*rows)), present,
                          np.concatenate(rec), np.concatenate(logged))


def _percentile_ci(samples):
    return float(np.percentile(samples, 2.5)), float(np.percentile(samples, 97.5))


# index draws per bootstrap block: bounds the (resamples, patients) block
BOOTSTRAP_BLOCK = 1 << 16


def _bootstrap_means(arrays, options: EvalOptions):
    """Patient-level bootstrap: the mean of every per-patient array over the
    same resamples, so differences between them are paired. The resamples
    are drawn and averaged a block of rows at a time; consecutive draws from
    one generator give the same indices as a single draw."""
    n = len(arrays[0])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(options.seed, n)))
    means = [np.empty(options.n_bootstrap) for _ in arrays]
    step = max(1, BOOTSTRAP_BLOCK // n)
    for start in range(0, options.n_bootstrap, step):
        rows = min(step, options.n_bootstrap - start)
        idx = rng.integers(0, n, size=(rows, n))
        for arr, out in zip(arrays, means):
            out[start:start + rows] = arr[idx].mean(axis=1)
    return means


@dataclass
class CurvePoint:
    center: float
    low: float
    high: float
    count: int
    observed_mortality: float
    ci_low: float
    ci_high: float
    estimated_mortality: float
    low_support: bool


def _difference_curve(columns: _ReportColumns, options: EvalOptions):
    """Observed seven-day mortality binned by each patient's mean
    (recommended - logged) flow difference. Bins are half-open intervals
    between multiples of the bin width (histogram convention); zero
    difference falls in the [0, width) bin."""
    width = options.curve_bin_width
    observed = columns.died7.astype(float)
    lows = width * np.floor(columns.diff / width)
    points = []
    for low in np.unique(lows):
        mask = lows == low
        count = int(mask.sum())
        values = observed[mask]
        (boot,) = _bootstrap_means([values], options)
        ci_lo, ci_hi = _percentile_ci(boot)
        points.append(CurvePoint(
            center=float(low + width / 2), low=float(low),
            high=float(low + width), count=count,
            observed_mortality=float(values.mean()), ci_low=ci_lo, ci_high=ci_hi,
            estimated_mortality=float(columns.m_lg[mask].mean()),
            low_support=count < options.curve_min_count))
    return points


@dataclass
class SubgroupRow:
    name: str
    count: int
    rl_mortality: float
    rl_mortality_se: float
    logged_mortality: float
    logged_mortality_se: float
    rl_flow: float
    rl_flow_se: float
    logged_flow: float
    logged_flow_se: float
    significant: bool


def _subgroup_row(name, arrays, options: EvalOptions) -> SubgroupRow:
    """One subgroup's row from its slices of the report's policy arrays."""
    m_rl, m_lg, f_rl, f_lg = arrays
    if len(m_rl) == 0:
        return SubgroupRow(name, 0, *([float("nan")] * 8), False)
    b_m_rl, b_m_lg, b_f_rl, b_f_lg = _bootstrap_means(arrays, options)
    sd = float((b_m_rl - b_m_lg).std())
    if sd == 0.0:
        significant = False
    else:
        z = float(m_rl.mean() - m_lg.mean()) / sd
        significant = math.erfc(abs(z) / math.sqrt(2.0)) < SIGNIFICANCE_P
    return SubgroupRow(
        name, len(m_rl),
        float(m_rl.mean()), float(b_m_rl.std()),
        float(m_lg.mean()), float(b_m_lg.std()),
        float(f_rl.mean()), float(b_f_rl.std()),
        float(f_lg.mean()), float(b_f_lg.std()),
        significant)


def _subgroup_rows(columns: _ReportColumns, options: EvalOptions):
    """Overall, sex, age-band, BMI-band and comorbidity rows (comorbidity
    rows may overlap; a patient counts in each flag it carries)."""
    arrays = (columns.m_rl, columns.m_lg, columns.f_rl, columns.f_lg)

    def row(name, member):
        idx = np.flatnonzero(member)
        return _subgroup_row(name, [arr[idx] for arr in arrays], options)

    rows = [row("overall", np.ones(len(columns.male), dtype=bool)),
            row("male", columns.male), row("female", ~columns.male)]
    for name, lo, hi in AGE_BANDS:
        rows.append(row(name, (lo <= columns.age) & (columns.age < hi)))
    for name, lo, hi in BMI_BANDS:
        rows.append(row(name, (lo <= columns.bmi) & (columns.bmi < hi)))
    rows.extend(row(flag, present) for flag, present in columns.comorbidities.items())
    return rows


def _flow_histograms(columns: _ReportColumns, options: EvalOptions):
    """Decision-point histograms: recommended and logged flows over [FLOW_MIN,
    FLOW_MAX], differences over [-FLOW_MAX, FLOW_MAX]. Counts sum to the
    decision-point total."""
    rl, logged = columns.rec_flows, columns.logged_flows
    width = options.hist_bin_width
    flow_edges = np.arange(cohort.FLOW_MIN, cohort.FLOW_MAX + width, width)
    diff_edges = np.arange(-cohort.FLOW_MAX, cohort.FLOW_MAX + width, width)
    rl_counts, _ = np.histogram(rl, bins=flow_edges)
    logged_counts, _ = np.histogram(logged, bins=flow_edges)
    diff_counts, _ = np.histogram(rl - logged, bins=diff_edges)
    return {
        "flow_edges": flow_edges,
        "rl": rl_counts,
        "logged": logged_counts,
        "diff_edges": diff_edges,
        "diff": diff_counts,
    }


@dataclass
class EvalReport:
    n_patients: int
    n_decision_points: int
    rl_mortality: float
    rl_ci: tuple
    logged_mortality: float
    logged_ci: tuple
    reduction: float
    reduction_ci: tuple
    rl_flow: float
    rl_flow_ci: tuple
    logged_flow: float
    logged_flow_ci: tuple
    consistency: float
    consistency_threshold: float
    cosine_similarity: float
    accuracy: float
    concordance: float
    mcnemar_statistic: float
    mcnemar_p: float
    subgroups: list
    curve: list
    histograms: dict


def build_report(fold_results, options: EvalOptions) -> EvalReport:
    """The report over every patient of `fold_results`, a list of
    FoldResult: pooled estimates weigh each patient alike, whatever its
    fold. Each fold's patients are read once."""
    options.validate()
    columns = _report_columns(fold_results)
    m_rl, m_lg, f_rl, f_lg = arrays = (columns.m_rl, columns.m_lg,
                                       columns.f_rl, columns.f_lg)
    b_m_rl, b_m_lg, b_f_rl, b_f_lg = _bootstrap_means(arrays, options)

    predicted_dead = m_lg >= options.mortality_label_threshold
    actual_dead = columns.died7
    pred_alive = (~predicted_dead).astype(float)
    actual_alive = (~actual_dead).astype(float)
    try:
        cosine = survival.cosine_similarity(pred_alive, actual_alive)
    except ValueError:
        cosine = float("nan")
    accuracy = float(np.mean(predicted_dead == actual_dead))
    statistic, p_value = survival.paired_binary_test(predicted_dead, actual_dead)
    concordances = [f.concordance for f in fold_results
                    if not math.isnan(f.concordance)]
    concordance = float(np.mean(concordances)) if concordances else float("nan")
    n_decisions = len(columns.rec_flows)
    agree = np.count_nonzero(np.abs(columns.rec_flows - columns.logged_flows)
                             < options.consistency_threshold)

    return EvalReport(
        n_patients=len(m_rl),
        n_decision_points=n_decisions,
        rl_mortality=float(m_rl.mean()), rl_ci=_percentile_ci(b_m_rl),
        logged_mortality=float(m_lg.mean()), logged_ci=_percentile_ci(b_m_lg),
        reduction=float(m_lg.mean() - m_rl.mean()),
        reduction_ci=_percentile_ci(b_m_lg - b_m_rl),
        rl_flow=float(f_rl.mean()), rl_flow_ci=_percentile_ci(b_f_rl),
        logged_flow=float(f_lg.mean()), logged_flow_ci=_percentile_ci(b_f_lg),
        consistency=agree / n_decisions,
        consistency_threshold=options.consistency_threshold,
        cosine_similarity=cosine,
        accuracy=accuracy,
        concordance=concordance,
        mcnemar_statistic=statistic,
        mcnemar_p=p_value,
        subgroups=_subgroup_rows(columns, options),
        curve=_difference_curve(columns, options),
        histograms=_flow_histograms(columns, options),
    )


# --- report files --------------------------------------------------------------------

def _cell(x) -> str:
    """One CSV cell: a flag as 0/1, an integer as itself, text with its
    commas turned into semicolons, anything else as the repr of a float."""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    if isinstance(x, str):
        return x.replace(",", ";")
    return repr(float(x))


def write_report_files(outdir, report: EvalReport) -> list:
    """Emit the machine-readable CSV set plus a human-readable summary.
    Returns the list of paths written."""
    r, hist = report, report.histograms
    flow_edges, diff_edges = hist["flow_edges"], hist["diff_edges"]
    metrics = (
        ("n_patients", r.n_patients), ("n_decision_points", r.n_decision_points),
        ("consistency_rate", r.consistency), ("mortality_reduction", r.reduction),
        ("mortality_reduction_ci_low", r.reduction_ci[0]),
        ("mortality_reduction_ci_high", r.reduction_ci[1]),
        ("cosine_similarity", r.cosine_similarity), ("accuracy", r.accuracy),
        ("concordance_index", r.concordance), ("mcnemar_statistic", r.mcnemar_statistic),
        ("mcnemar_p", r.mcnemar_p))
    tables = (
        ("pooled.csv", "policy,mortality,mortality_ci_low,mortality_ci_high,"
                       "mean_flow,mean_flow_ci_low,mean_flow_ci_high",
         [("rl", r.rl_mortality, *r.rl_ci, r.rl_flow, *r.rl_flow_ci),
          ("logged", r.logged_mortality, *r.logged_ci, r.logged_flow, *r.logged_flow_ci)]),
        ("metrics.csv", "metric,value", [(name, float(v)) for name, v in metrics]),
        ("subgroups.csv", "subgroup,n,rl_mortality,rl_mortality_se,logged_mortality,"
                          "logged_mortality_se,rl_flow,rl_flow_se,logged_flow,"
                          "logged_flow_se,significant",
         [vars(row).values() for row in r.subgroups]),
        ("curve.csv", "bin_center,bin_low,bin_high,count,observed_mortality,"
                      "ci_low,ci_high,estimated_mortality,low_support",
         [vars(point).values() for point in r.curve]),
        ("hist_flows.csv", "bin_low,bin_high,rl_count,logged_count",
         zip(flow_edges[:-1], flow_edges[1:], hist["rl"], hist["logged"])),
        ("hist_difference.csv", "bin_low,bin_high,count",
         zip(diff_edges[:-1], diff_edges[1:], hist["diff"])),
    )
    paths = []
    for name, header, rows in tables:
        paths.append(os.path.join(outdir, name))
        with open(paths[-1], "w", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    paths.append(os.path.join(outdir, "summary.txt"))
    with open(paths[-1], "w", newline="\n") as fh:
        fh.write(format_summary(report))
    return paths


def format_summary(report: EvalReport) -> str:
    def pct(x):
        return f"{100 * x:.2f}%"

    lines = [
        "Policy evaluation summary",
        "=" * 64,
        f"patients: {report.n_patients}   decision points: {report.n_decision_points}",
        "",
        f"{'':24s}{'Recommended':>16s}{'Logged':>16s}",
        f"{'7-day mortality':24s}{pct(report.rl_mortality):>16s}"
        f"{pct(report.logged_mortality):>16s}",
        f"{'  95% CI':24s}"
        f"{'(' + pct(report.rl_ci[0]) + '-' + pct(report.rl_ci[1]) + ')':>16s}"
        f"{'(' + pct(report.logged_ci[0]) + '-' + pct(report.logged_ci[1]) + ')':>16s}",
        f"{'mean flow (L/min)':24s}{report.rl_flow:>16.2f}{report.logged_flow:>16.2f}",
        "",
        f"mortality reduction: {pct(report.reduction)} "
        f"(95% CI {pct(report.reduction_ci[0])} to {pct(report.reduction_ci[1])})",
        f"consistency (<{report.consistency_threshold:g} L/min): "
        f"{pct(report.consistency)}",
        f"outcome model: cosine {report.cosine_similarity:.4f}, "
        f"accuracy {pct(report.accuracy)}, concordance {report.concordance:.3f}, "
        f"paired chi-squared p {report.mcnemar_p:.3g}",
        "",
        f"{'subgroup':28s}{'n':>6s}{'RL mort':>10s}{'Logged':>10s}"
        f"{'RL flow':>10s}{'Logged':>10s}  sig",
    ]
    for row in report.subgroups:
        if row.count == 0:
            lines.append(f"{row.name:28s}{row.count:>6d}{'-':>10s}{'-':>10s}"
                         f"{'-':>10s}{'-':>10s}")
            continue
        lines.append(
            f"{row.name:28s}{row.count:>6d}{pct(row.rl_mortality):>10s}"
            f"{pct(row.logged_mortality):>10s}{row.rl_flow:>10.2f}"
            f"{row.logged_flow:>10.2f}  {'*' if row.significant else ''}")
    lines.append("")
    return "\n".join(lines)
