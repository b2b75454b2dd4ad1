import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from oxyrl import cohort, ddpg, evaluation, figures, survival
from oxyrl.evaluation import (
    EvalOptions, FoldResult, PatientEval, build_report, mirror_policy,
)


def make_patient(pid="p0", logged=(20.0, 20.0), rec=(20.0, 20.0),
                 m_rl=0.1, m_lg=0.1, dead=False, age=70.0, male=True,
                 bmi=27.0, comorbidities=None, hospital="H1"):
    return PatientEval(
        patient_id=pid, hospital_id=hospital,
        logged_flows=np.asarray(logged, dtype=float),
        recommended_flows=np.asarray(rec, dtype=float),
        mortality_rl=m_rl, mortality_logged=m_lg, observed_death7=dead,
        age=age, male=male, bmi=bmi, comorbidities=comorbidities or {})


def fold_of(patients, fold_id="H1"):
    model = survival.CoxModel(("x",), np.zeros(1), np.array([]), np.array([]))
    return FoldResult(fold_id, patients, model, survival.ElasticNetGrid(), 0.5)


def options(n_boot=50, seed=0):
    return EvalOptions(n_bootstrap=n_boot, seed=seed)


def report_of(patients, opt=None):
    return build_report([fold_of(patients)], opt or options())


# --- consistency ---------------------------------------------------------------

def test_consistency_identical_policies_is_one():
    report = report_of([make_patient(rec=(20.0, 20.0), logged=(20.0, 20.0))])
    assert report.consistency == 1.0


def test_consistency_boundary_is_strict():
    report = report_of([make_patient(rec=(30.0, 30.0), logged=(20.0, 20.0))])
    assert report.consistency == 0.0


def test_consistency_counts_fraction():
    report = report_of([make_patient(rec=(3.0, 12.0, 7.0, 15.0),
                                     logged=(0.0, 0.0, 0.0, 0.0))])
    assert report.consistency == 0.5


def test_summary_names_the_consistency_threshold():
    patients = [make_patient(rec=(3.0, 12.0, 7.0, 15.0), logged=(0.0, 0.0, 0.0, 0.0))]
    assert "consistency (<10 L/min): 50.00%" in evaluation.format_summary(
        report_of(patients))
    report = report_of(patients, EvalOptions(n_bootstrap=50, consistency_threshold=5.0))
    assert report.consistency == 0.25
    assert "consistency (<5 L/min): 25.00%" in evaluation.format_summary(report)


# --- estimates ------------------------------------------------------------------

def test_estimate_mirrors_when_policies_agree():
    patients = [make_patient(pid=f"p{i}", m_rl=0.1 * i, m_lg=0.1 * i)
                for i in range(5)]
    report = report_of(patients)
    assert report.rl_mortality == report.logged_mortality
    assert report.rl_ci == report.logged_ci


def test_bootstrap_cis_are_seed_deterministic():
    rng = np.random.default_rng(0)
    patients = [make_patient(pid=f"p{i}", m_rl=float(rng.random()))
                for i in range(40)]
    a, b, c = (report_of(patients, options(seed=seed)) for seed in (7, 7, 8))
    assert (a.rl_mortality, a.rl_ci) == (b.rl_mortality, b.rl_ci)
    assert a.rl_ci != c.rl_ci


@pytest.mark.parametrize("folds", [[], [fold_of([]), fold_of([], fold_id="H2")]])
def test_report_without_patients_is_an_error(folds):
    with pytest.raises(ValueError, match="^no patients to report on$"):
        build_report(folds, options())


# --- curve ----------------------------------------------------------------------

def test_curve_single_bin_equals_cohort_mortality():
    patients = [make_patient(pid=f"p{i}", rec=(21.0,), logged=(20.0,),
                             dead=(i < 3)) for i in range(10)]
    curve = report_of(patients).curve
    assert len(curve) == 1
    pt = curve[0]
    assert (pt.low, pt.high) == (0.0, 5.0)
    assert pt.count == 10
    assert pt.observed_mortality == pytest.approx(0.3)
    assert not pt.low_support


def test_curve_survivor_bin_has_zero_mortality():
    patients = [make_patient(pid=f"p{i}", rec=(35.0,), logged=(20.0,), dead=False)
                for i in range(12)]
    curve = report_of(patients).curve
    assert (curve[0].low, curve[0].high) == (15.0, 20.0)
    assert curve[0].observed_mortality == 0.0


def test_curve_flags_low_support():
    patients = [make_patient(pid="p0", rec=(0.0,), logged=(20.0,))]
    curve = report_of(patients).curve
    assert curve[0].low_support


def test_curve_zero_difference_lands_in_zero_bin():
    patients = [make_patient(pid=f"p{i}", rec=(20.0 + d,), logged=(20.0,))
                for i, d in enumerate((0.0, 1.0, 2.4, 4.9))]
    curve = report_of(patients).curve
    assert len(curve) == 1
    assert curve[0].low == 0.0 and curve[0].high == 5.0
    # the bin containing zero difference is [0, width)
    assert curve[0].low <= 0.0 < curve[0].high


# --- subgroups ---------------------------------------------------------------------

def build_mixed_patients():
    rng = np.random.default_rng(1)
    patients = []
    for i in range(60):
        age = float(rng.uniform(50, 95))
        patients.append(make_patient(
            pid=f"p{i}", age=age, male=bool(i % 2), bmi=float(rng.uniform(18, 42)),
            m_rl=float(rng.uniform(0, 0.3)), m_lg=float(rng.uniform(0, 0.3)),
            comorbidities={"hypertension": bool(i % 3 == 0),
                           "diabetes": bool(i % 2 == 0)}))
    return patients


def test_subgroup_overall_row_matches_pooled():
    patients = build_mixed_patients()
    report = report_of(patients)
    overall = report.subgroups[0]
    assert overall.name == "overall"
    assert overall.count == 60
    assert overall.rl_mortality == pytest.approx(report.rl_mortality)


def test_subgroup_age_bands_partition_cohort():
    patients = build_mixed_patients()
    rows = report_of(patients).subgroups
    bands = [r for r in rows if r.name.startswith("age")]
    assert sum(r.count for r in bands) == len(patients)


def test_subgroup_comorbidity_rows_overlap():
    patients = build_mixed_patients()
    rows = report_of(patients).subgroups
    by_name = {r.name: r for r in rows}
    total = by_name["hypertension"].count + by_name["diabetes"].count
    assert total > max(by_name["hypertension"].count, by_name["diabetes"].count)
    both = sum(1 for p in patients
               if p.comorbidities["hypertension"] and p.comorbidities["diabetes"])
    assert both > 0


def test_empty_subgroup_emits_null_row():
    patients = [make_patient(age=55.0, male=True)]
    rows = report_of(patients).subgroups
    female = next(r for r in rows if r.name == "female")
    assert female.count == 0
    assert math.isnan(female.rl_mortality)


# --- histograms -----------------------------------------------------------------------

def test_histograms_conserve_mass_and_point_masses():
    patients = [make_patient(pid=f"p{i}", rec=(20.0, 20.0), logged=(37.0, 12.0))
                for i in range(7)]
    report = report_of(patients)
    hist = report.histograms
    assert hist["rl"].sum() == hist["logged"].sum() == report.n_decision_points == 14
    # constant recommended policy: a single nonzero flow bin
    assert (hist["rl"] > 0).sum() == 1
    assert hist["rl"][4] == 14  # [20, 25) bin


def test_difference_histogram_point_mass_at_zero_for_mirror():
    patients = [make_patient(pid=f"p{i}", rec=(17.0, 33.0), logged=(17.0, 33.0))
                for i in range(5)]
    hist = report_of(patients).histograms
    nz = np.flatnonzero(hist["diff"])
    assert len(nz) == 1
    assert hist["diff_edges"][nz[0]] <= 0.0 < hist["diff_edges"][nz[0] + 1]


# --- end-to-end fold machinery -----------------------------------------------------------

def small_cohort(n=140, seed=5):
    schema = cohort.default_schema()
    config = cohort.GeneratorConfig(n_patients=n, seed=seed, horizon_hours=96.0)
    return cohort.generate_synthetic_cohort(config, schema), schema


def outcome_model_setup(records, schema, interval_hours=4.0):
    """Stack the cohort, normalize it with its own statistics and fit the
    outcome model on every patient."""
    stats = cohort.compute_feature_stats(records, schema)
    matrix = cohort.stack_trajectories(records, schema, interval_hours)
    everyone = np.arange(len(records))
    model, grid, retained, flow_stats = evaluation.fit_outcome_model(
        cohort.apply_feature_stats(matrix, stats), schema, seed=0)
    return matrix, everyone, stats, model, grid, retained, flow_stats


def split_designs(monkeypatch, normalized, schema):
    """The fit and validation designs that the outcome model hands to its
    grid search, and the survival columns of every patient."""
    searched = []
    search = survival.grid_search

    def capture(fit, val, grid):
        searched.append((fit, val))
        return search(fit, val, grid)

    monkeypatch.setattr(survival, "grid_search", capture)
    _, _, retained, flow_stats = evaluation.fit_outcome_model(
        normalized, schema, seed=3,
        grid=survival.ElasticNetGrid(l1_values=(0.04,), l2_values=(0.04,)))
    columns = evaluation.survival_columns(
        normalized, [schema.index(name) for name in retained], flow_stats)
    (fit, val), = searched
    return fit, val, columns


def rows_of(x, t, e):
    return sorted(zip(t.tolist(), np.asarray(e).tolist(), map(tuple, x.tolist())))


def design_rows(design):
    events = np.isin(np.arange(len(design.t)), design.events)
    return rows_of(design.x, design.t, events)


def normalized_cohort(n_deaths=None):
    """A 60-patient cohort normalized with its own statistics; with
    `n_deaths`, its first patients die on day two and the rest are
    discharged."""
    records, schema = small_cohort(n=60, seed=9)
    matrix = cohort.apply_feature_stats(
        cohort.stack_trajectories(records, schema, 4.0),
        cohort.compute_feature_stats(records, schema))
    if n_deaths is not None:
        dead = np.arange(matrix.n_patients) < n_deaths
        matrix = replace(matrix, outcomes=np.where(dead, cohort.DIED, cohort.DISCHARGED),
                         event_times=np.where(dead, 48.0, matrix.event_times))
    return matrix, schema


def fit_share(n):
    """Rows of an n-row stratum that land in the fit split."""
    return max(1, min(n - 1, round(0.8 * n)))


@pytest.mark.parametrize("n_deaths", [None, 2, 3, 7])
def test_outcome_model_split_is_stratified(monkeypatch, n_deaths):
    normalized, schema = normalized_cohort(n_deaths)
    fit, val, (x, t, e) = split_designs(monkeypatch, normalized, schema)
    assert sorted(design_rows(fit) + design_rows(val)) == rows_of(x, t, e)
    n_events = int(e.sum())
    assert n_events >= 2
    assert len(fit.events) == fit_share(n_events)
    assert len(fit.t) - len(fit.events) == fit_share(len(e) - n_events)
    assert len(fit.events) and len(val.events)


def test_outcome_model_scores_on_the_fit_split_without_validation_events(monkeypatch):
    # a single event goes to the fit split
    normalized, schema = normalized_cohort(1)
    with pytest.warns(UserWarning, match="validation split has no events"):
        fit, val, _ = split_designs(monkeypatch, normalized, schema)
    assert val is fit
    assert len(fit.events) == 1


def test_null_policy_identities_end_to_end():
    records, schema = small_cohort()
    matrix, everyone, stats, model, grid, retained, flow_stats = \
        outcome_model_setup(records, schema)
    fold = evaluation.evaluate_patients(
        "all", matrix, everyone, schema, stats, mirror_policy(), model, retained,
        flow_stats, grid=grid)
    report = build_report([fold], options())
    assert report.consistency == 1.0
    assert report.reduction == 0.0
    assert report.rl_mortality == report.logged_mortality
    assert report.rl_ci == report.logged_ci
    assert report.rl_flow == report.logged_flow
    for row in report.subgroups:
        if row.count:
            assert row.rl_mortality == row.logged_mortality
            assert not row.significant
    nz = np.flatnonzero(report.histograms["diff"])
    assert len(nz) == 1


def test_zero_flow_coefficient_makes_policies_indistinguishable():
    records, schema = small_cohort(n=60, seed=9)
    matrix, everyone, stats, model, grid, retained, flow_stats = \
        outcome_model_setup(records, schema)
    coef = model.coef.copy()
    coef[-1] = 0.0  # flow coordinate is last
    flat = survival.CoxModel(model.feature_names, coef, model.baseline_times,
                             model.baseline_cumhaz)

    def shifted(states, logged):
        return np.clip(np.asarray(logged) - 12.0, 0.0, 60.0)

    fold = evaluation.evaluate_patients(
        "all", matrix, everyone, schema, stats, shifted, flat, retained, flow_stats)
    for p in fold.patients:
        assert p.mortality_rl == pytest.approx(p.mortality_logged, abs=1e-15)


def test_monotone_sensitivity_with_positive_flow_coefficient():
    records, schema = small_cohort(n=80, seed=11)
    matrix, everyone, stats, model, grid, retained, flow_stats = \
        outcome_model_setup(records, schema)
    coef = model.coef.copy()
    coef[-1] = abs(coef[-1]) or 0.1
    up = survival.CoxModel(model.feature_names, coef, model.baseline_times,
                           model.baseline_cumhaz)

    def lowered(states, logged):
        return np.clip(np.asarray(logged) - 8.0, 0.0, 60.0)

    fold_logged = evaluation.evaluate_patients(
        "all", matrix, everyone, schema, stats, mirror_policy(), up, retained,
        flow_stats)
    fold_lower = evaluation.evaluate_patients(
        "all", matrix, everyone, schema, stats, lowered, up, retained, flow_stats)
    m_logged = np.mean([p.mortality_rl for p in fold_logged.patients])
    m_lower = np.mean([p.mortality_rl for p in fold_lower.patients])
    assert m_lower < m_logged


def test_loho_runs_four_folds_and_partitions(tmp_path):
    records, schema = small_cohort(n=120, seed=13)
    config = ddpg.TrainingConfig(max_iterations=20, consistency_every=10, seed=1)
    runs = evaluation.loho_cross_validate(records, schema, config,
                                          interval_hours=8.0)
    assert len(runs) == 4
    seen = []
    all_ids = sorted(r.patient_id for r in records)
    for run in runs:
        fold_ids = [p.patient_id for p in run.fold.patients]
        seen.extend(fold_ids)
        # holdout contract: the test hospital never appears in training stats
        hospitals = {p.hospital_id for p in run.fold.patients}
        assert hospitals == {run.fold.fold_id}
    assert sorted(seen) == all_ids


def test_loho_memories_index_the_one_raw_matrix(monkeypatch):
    records, schema = small_cohort(n=60, seed=13)
    matrices, memories = [], []
    stack, train_folds = cohort.stack_trajectories, ddpg.train_folds

    def recording_stack(*args, **kwargs):
        matrices.append(stack(*args, **kwargs))
        return matrices[-1]

    def recording_train(fold_memories, config):
        memories.extend(fold_memories)
        return train_folds(fold_memories, config)
    monkeypatch.setattr(cohort, "stack_trajectories", recording_stack)
    monkeypatch.setattr(ddpg, "train_folds", recording_train)
    config = ddpg.TrainingConfig(max_iterations=2, consistency_every=1, seed=1)
    evaluation.loho_cross_validate(records, schema, config, interval_hours=8.0)
    (matrix,) = matrices
    assert len(memories) == 4
    for memory in memories:
        # the raw states are shared, not copied; the rest is per transition
        # or per feature
        assert memory.source is matrix.states
        own = [value for name, value in vars(memory).items()
               if isinstance(value, np.ndarray) and name != "source"]
        assert len(own) == 7 and all(value.ndim == 1 for value in own)


def test_loho_single_hospital_fails_naming_the_fold():
    records, schema = small_cohort(n=30, seed=13)
    records.hospital_ids = np.full(len(records), "H1")
    config = ddpg.TrainingConfig(max_iterations=5, consistency_every=5, seed=1)
    # the one fold tests hospital H1 and has no other hospital to train on
    with pytest.raises(cohort.PartitionError, match=r"^fold H1: empty training set$"):
        evaluation.loho_cross_validate(records, schema, config, interval_hours=8.0)


def test_loho_is_deterministic():
    records, schema = small_cohort(n=80, seed=17)
    config = ddpg.TrainingConfig(max_iterations=15, consistency_every=5, seed=2)
    opt = options(seed=3)
    a = build_report([r.fold for r in evaluation.loho_cross_validate(
        records, schema, config, interval_hours=8.0)], opt)
    b = build_report([r.fold for r in evaluation.loho_cross_validate(
        records, schema, config, interval_hours=8.0)], opt)
    assert a.rl_mortality == b.rl_mortality
    assert a.rl_ci == b.rl_ci
    assert a.consistency == b.consistency


def test_pooled_mortality_is_patient_weighted_fold_mean():
    records, schema = small_cohort(n=100, seed=19)
    config = ddpg.TrainingConfig(max_iterations=10, consistency_every=5, seed=4)
    runs = evaluation.loho_cross_validate(records, schema, config,
                                          interval_hours=8.0)
    report = build_report([r.fold for r in runs], options())
    fold_reports = [build_report([r.fold], options()) for r in runs]
    weighted = sum(f.n_patients * f.rl_mortality for f in fold_reports)
    total = sum(f.n_patients for f in fold_reports)
    assert report.n_patients == total
    assert report.rl_mortality == pytest.approx(weighted / total, abs=1e-12)


# --- report bytes ------------------------------------------------------------------

def mixed_folds():
    """Three folds of seeded patients with varied flows, deaths, subgroups."""
    rng = np.random.default_rng(23)
    folds = []
    for h in range(3):
        patients = []
        for i in range(40):
            n = int(rng.integers(1, 8))
            logged = rng.uniform(0.0, 60.0, n)
            patients.append(make_patient(
                pid=f"h{h}p{i}", hospital=f"H{h}", logged=logged,
                rec=np.clip(logged + rng.normal(-5.0, 8.0, n), 0.0, 60.0),
                m_rl=float(rng.uniform(0, 0.4)), m_lg=float(rng.uniform(0, 0.4)),
                dead=bool(rng.random() < 0.2), age=float(rng.uniform(50, 95)),
                male=bool(rng.random() < 0.6), bmi=float(rng.uniform(18, 42)),
                comorbidities={"hypertension": bool(rng.random() < 0.8),
                               "diabetes": bool(rng.random() < 0.5)}))
        folds.append(fold_of(patients, fold_id=f"H{h}"))
    return folds


def report_digest(folds, opt, outdir):
    """SHA-256 over the report files and the logged-care estimate."""
    report = build_report(folds, opt)
    digest = hashlib.sha256()
    for path in sorted(evaluation.write_report_files(outdir, report)):
        digest.update(path.split("/")[-1].encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    digest.update(repr((report.logged_mortality, report.logged_ci)).encode())
    return digest.hexdigest()


# written by the code that kept a separate bootstrap block in build_report,
# the subgroup rows, the curve and a one-policy estimate, which hashed the
# same (mortality, CI) pair as the report's logged-care fields
REPORT_DIGEST = "786480edbdb868f09f37852116702635d5488d403d6042a7ec04912e475d5e5c"


def test_report_bytes_match_pinned_digest(tmp_path):
    assert report_digest(mixed_folds(), options(n_boot=200, seed=5),
                         tmp_path) == REPORT_DIGEST


class WalkCountingList(list):
    """A list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_build_report_walks_each_fold_once():
    folds = mixed_folds()[:2]
    for fold in folds:
        fold.patients = WalkCountingList(fold.patients)
    build_report(folds, options())
    assert [fold.patients.walks for fold in folds] == [1, 1]


# --- report files and figures -----------------------------------------------------------

def test_report_files_and_figures(tmp_path):
    patients = build_mixed_patients()
    report = build_report([fold_of(patients)], options())
    paths = evaluation.write_report_files(tmp_path, report)
    names = {p.split("/")[-1] for p in paths}
    assert names == {"pooled.csv", "metrics.csv", "subgroups.csv", "curve.csv",
                     "hist_flows.csv", "hist_difference.csv", "summary.txt"}
    pooled = (tmp_path / "pooled.csv").read_text().splitlines()
    assert pooled[0].startswith("policy,mortality")
    assert len(pooled) == 3

    curve_svg = figures.render_curve(report.curve)
    hist = report.histograms
    flows_svg = figures.render_histogram(
        hist["flow_edges"], {"recommended": hist["rl"], "logged": hist["logged"]},
        "Flow rates", "flow (L/min)")
    diff_svg = figures.render_histogram(
        hist["diff_edges"], {"difference": hist["diff"]},
        "Flow difference", "recommended - logged (L/min)")
    for svg, min_bins in ((curve_svg, len([p for p in report.curve if p.count])),
                          (flows_svg, len(hist["rl"])),
                          (diff_svg, len(hist["diff"]))):
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        marked = [el for el in root.iter() if el.get("data-bin") is not None]
        assert len(marked) >= min_bins
