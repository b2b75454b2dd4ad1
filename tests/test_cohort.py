import argparse
import csv
import io
import string
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from _oracles import flow_at_loop, hazard_rate, load_records_loop, transitions_loop
from oxyrl import cli, cohort, evaluation
from oxyrl.cohort import (
    CENSORED, DIED, DISCHARGED, CohortDataWarning, CohortError, CohortFormatError,
    CohortTable, FeatureSchema, GeneratorConfig, GeneratorConfigError,
    MissingFeatureError, PartitionError, PatientRecord, SchemaMismatchError,
    UnusableRecordError,
)


def tiny_schema():
    return FeatureSchema(("age", "hr", "ph"),
                         ("static", "vital", "lab"),
                         ("years", "bpm", "pH"))


def make_record(pid="p0", hospital="H1", outcome=DISCHARGED, event_time=8.0,
                hr=None, ph=None, oxygen=None, age=70.0):
    return PatientRecord(
        patient_id=pid,
        hospital_id=hospital,
        static_covariates={"age": age},
        series={"hr": hr if hr is not None else [(0.0, 80.0), (4.0, 90.0)],
                "ph": ph if ph is not None else [(0.0, 7.4)]},
        oxygen_series=oxygen if oxygen is not None else [(0.0, 10.0)],
        outcome=outcome,
        event_time=event_time,
    )


def table_of(records, schema=None):
    return CohortTable.from_records(records, schema or tiny_schema())


# --- impute_linear -----------------------------------------------------------

def test_impute_midpoint():
    out = cohort.impute_linear([(0.0, 2.0), (4.0, 4.0)], [2.0])
    np.testing.assert_array_equal(out, [3.0])


def test_impute_holds_nearest_outside_window():
    out = cohort.impute_linear([(0.0, 5.0)], [0.0, 8.0])
    np.testing.assert_array_equal(out, [5.0, 5.0])


def test_impute_two_segments_hand_checked():
    out = cohort.impute_linear([(0.0, 1.0), (2.0, 3.0), (6.0, 3.0)], [1.0, 4.0])
    np.testing.assert_array_equal(out, [2.0, 3.0])


def test_impute_exact_on_affine_series():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha, beta = rng.normal(size=2)
        times = np.sort(rng.uniform(0, 24, size=6))
        series = [(t, alpha * t + beta) for t in times]
        grid = np.linspace(times[0], times[-1], 11)
        out = cohort.impute_linear(series, grid)
        np.testing.assert_allclose(out, alpha * grid + beta, atol=1e-12)


def test_impute_empty_series_rejected():
    with pytest.raises(MissingFeatureError):
        cohort.impute_linear([], [0.0])


# --- resample_trajectory -------------------------------------------------------

def test_resample_grid_times():
    traj = cohort.resample_trajectory(table_of([make_record(event_time=8.0)]), 4.0,
                                      tiny_schema())
    np.testing.assert_array_equal(traj.times, [0.0, 4.0, 8.0])


def test_resample_holds_flow_forward():
    traj = cohort.resample_trajectory(table_of([make_record()]), 4.0, tiny_schema())
    np.testing.assert_array_equal(traj.actions, [10.0, 10.0, 10.0])


def test_resample_default_flow_zero_before_first_setting():
    record = make_record(oxygen=[(5.0, 30.0)])
    traj = cohort.resample_trajectory(table_of([record]), 4.0, tiny_schema())
    np.testing.assert_array_equal(traj.actions, [0.0, 0.0, 30.0])


def test_resample_matches_per_feature_imputation():
    record = make_record(
        hr=[(0.0, 70.0), (3.0, 85.0), (7.5, 60.0)],
        ph=[(1.0, 7.3), (6.0, 7.5)],
        event_time=8.0,
    )
    schema = tiny_schema()
    traj = cohort.resample_trajectory(table_of([record]), 4.0, schema)
    grid = traj.times
    np.testing.assert_array_equal(traj.states[:, schema.index("age")], 70.0)
    np.testing.assert_array_equal(
        traj.states[:, schema.index("hr")],
        cohort.impute_linear(record.series["hr"], grid))
    np.testing.assert_array_equal(
        traj.states[:, schema.index("ph")],
        cohort.impute_linear(record.series["ph"], grid))


def test_resample_fills_missing_feature_with_zero():
    # resampling leaves a never-observed feature NaN; normalization maps it
    # to 0, the training mean
    record = make_record(ph=[])
    record.series.pop("ph")
    schema = tiny_schema()
    traj = cohort.resample_trajectory(table_of([record]), 4.0, schema)
    assert np.isnan(traj.states[:, schema.index("ph")]).all()
    matrix = cohort.stack_trajectories(table_of([record]), schema, 4.0)
    stats = cohort.FeatureStats(schema.names, np.array([70.0, 85.0, 7.4]),
                                np.array([10.0, 5.0, 0.1]))
    normalized = cohort.apply_feature_stats(matrix, stats)
    np.testing.assert_array_equal(normalized.states[:, schema.index("ph")], 0.0)


@settings(max_examples=200, deadline=None)
@given(settings_at=st.lists(st.integers(0, 48), unique=True, max_size=8),
       flows=st.lists(st.floats(0.0, 60.0), min_size=8, max_size=8),
       n_steps=st.integers(1, 14))
def test_held_flows_match_loop(settings_at, flows, n_steps):
    # settings on a half-hour lattice and a 2 h grid, so settings often
    # fall exactly on grid times; an empty series is included
    series = [(0.5 * t, v) for t, v in zip(sorted(settings_at), flows)]
    grid = np.arange(n_steps) * 2.0
    expected = np.array([flow_at_loop(series, t) for t in grid])
    np.testing.assert_array_equal(cohort.held_flows(series, grid), expected)


def test_resample_rejects_record_with_no_features():
    record = make_record(hr=[], ph=[])
    record.series = {}
    record.static_covariates = {}
    with pytest.raises(UnusableRecordError):
        cohort.resample_trajectory(table_of([record]), 4.0, tiny_schema())


# --- build_transitions ----------------------------------------------------------

def matrix_of(*patients):
    """CohortMatrix from (states, actions, outcome) per patient."""
    lengths = [len(actions) for _, actions, _ in patients]
    return cohort.CohortMatrix(
        interval_hours=4.0,
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        states=np.concatenate([np.asarray(states, dtype=float)
                               for states, _, _ in patients]),
        actions=np.concatenate([np.asarray(a, dtype=float) for _, a, _ in patients]),
        patient_ids=tuple(f"p{i}" for i in range(len(patients))),
        hospital_ids=np.array(["H1"] * len(patients)),
        outcomes=np.array([outcome for _, _, outcome in patients]),
        event_times=np.array([4.0 * (n - 1) for n in lengths]))


def matrix_3step(outcome):
    states = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
    return matrix_of((states, [5.0, 10.0, 15.0], outcome))


def test_transitions_died_rewards():
    ts = cohort.build_transitions(matrix_3step(DIED), [0])
    assert ts.rewards.tolist() == [0.0, -15.0]
    assert ts.terminal.tolist() == [False, True]
    assert ts.rows.tolist() == [0, 1] and ts.next_rows.tolist() == [1, 2]


def test_transitions_discharged_rewards():
    ts = cohort.build_transitions(matrix_3step(DISCHARGED), [0])
    assert ts.rewards.tolist() == [0.0, 15.0]


def test_transitions_censored_reward_zero():
    ts = cohort.build_transitions(matrix_3step(CENSORED), [0])
    assert ts.rewards.tolist() == [0.0, 0.0]
    assert ts.terminal[-1]


def test_transitions_single_step_degenerate():
    matrix = matrix_of(([[1.0, 2.0]], [7.0], DISCHARGED))
    ts = cohort.build_transitions(matrix, [0])
    assert len(ts) == 1
    assert ts.rewards[0] == 15.0
    assert ts.terminal[0]
    np.testing.assert_array_equal(matrix.states[ts.next_rows[0]],
                                  matrix.states[ts.rows[0]])


def test_transitions_chain_and_reward_sum():
    rng = np.random.default_rng(1)
    patients = []
    for outcome in (DIED, DISCHARGED, CENSORED):
        n = rng.integers(2, 8)
        patients.append((rng.normal(size=(n, 3)), rng.uniform(0, 60, n), outcome))
    matrix = matrix_of(*patients)
    for i, (states, _, _) in enumerate(patients):
        ts = cohort.build_transitions(matrix, [i])
        assert len(ts) == len(states) - 1
        np.testing.assert_array_equal(ts.next_rows[:-1], ts.rows[1:])
        total = ts.rewards.sum()
        assert total in (15.0, -15.0, 0.0)
        assert np.all(ts.rewards[~ts.terminal] == 0.0)
        assert ts.terminal.tolist() == [False] * (len(ts) - 1) + [True]
    everyone = cohort.build_transitions(matrix, [0, 1, 2])
    assert len(everyone) == sum(len(states) - 1 for states, _, _ in patients)


def test_seven_day_reward_scheme_is_declared_stub():
    with pytest.raises(NotImplementedError):
        cohort.build_transitions(matrix_3step(DIED), [0], reward_scheme="seven_day")


@st.composite
def small_cohorts(draw):
    """Records on the tiny schema; any feature may go unobserved (for one
    patient or the whole cohort) and short stays give single-step patients."""
    drop_everywhere = draw(st.sampled_from((None, "hr", "ph")))
    records = []
    for i in range(draw(st.integers(1, 6))):
        event_time = draw(st.floats(0.001, 20.0))

        def series():
            times = draw(st.lists(st.floats(0.0, event_time), unique=True,
                                  max_size=4))
            return [(t, draw(st.floats(-50.0, 150.0))) for t in sorted(times)]

        statics = {"age": draw(st.floats(40.0, 95.0))} if draw(st.booleans()) else {}
        observed = {name: series() for name in ("hr", "ph")
                    if name != drop_everywhere}
        observed = {name: obs for name, obs in observed.items() if obs}
        if not statics and not observed:
            statics = {"age": 70.0}
        oxygen = [(t, draw(st.floats(0.0, 60.0))) for t in sorted(draw(
            st.lists(st.floats(0.0, event_time), unique=True, max_size=4)))]
        records.append(PatientRecord(f"p{i}", f"H{i % 2}", statics, observed,
                                     oxygen, draw(st.sampled_from(
                                         (DIED, DISCHARGED, CENSORED))), event_time))
    return records


@settings(max_examples=60, deadline=None)
@given(records=small_cohorts())
def test_stacked_cohort_matches_per_record_resampling(records):
    schema = tiny_schema()
    table = table_of(records)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CohortDataWarning)
        stats = cohort.compute_feature_stats(table, schema)
    matrix = cohort.stack_trajectories(table, schema, 4.0)
    normalized = cohort.apply_feature_stats(matrix, stats)

    assert matrix.offsets[0] == 0 and matrix.offsets[-1] == len(matrix.states)
    assert np.all(np.diff(matrix.offsets) >= 1)
    everyone = np.arange(len(records))
    memory = evaluation.replay_memory(normalized, everyone, seed=0)
    expected = []
    for i, record in enumerate(records):
        traj = cohort.resample_trajectory(table, 4.0, schema, i)
        rows = slice(matrix.offsets[i], matrix.offsets[i + 1])
        assert len(traj.times) == rows.stop - rows.start
        z = (traj.states - stats.means) / stats.sds
        z[np.isnan(z)] = 0.0
        np.testing.assert_allclose(normalized.states[rows], z, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(matrix.actions[rows], traj.actions)
        expected.extend(transitions_loop(normalized.states[rows], traj.actions,
                                         cohort.TERMINAL_REWARD[record.outcome]))
    assert len(memory) == len(expected)
    for k, (state, action, reward, next_state, terminal) in enumerate(expected):
        np.testing.assert_array_equal(memory.states[k], state)
        assert memory.actions[k] == action
        assert memory.rewards[k] == reward
        np.testing.assert_array_equal(memory.next_states[k], next_state)
        assert memory.terminal[k] == terminal


# --- CSV round trip --------------------------------------------------------------

def records_equal(a, b):
    return (a.patient_id == b.patient_id and a.hospital_id == b.hospital_id
            and a.static_covariates == b.static_covariates
            and a.series == b.series and a.oxygen_series == b.oxygen_series
            and a.outcome == b.outcome and a.event_time == b.event_time)


def test_cohort_csv_round_trip(tmp_path):
    schema = tiny_schema()
    records = [
        make_record("p0", "H1", DISCHARGED),
        make_record("p1", "H2", DIED, event_time=6.0,
                    oxygen=[(0.0, 5.0), (4.0, 20.0)]),
        make_record("p2", "H3", CENSORED),
    ]
    path = tmp_path / "cohort.csv"
    cohort.write_cohort_csv(path, table_of(records), schema)
    loaded = cohort.load_cohort(path, schema)
    assert len(loaded) == 3
    for a, b in zip(records, loaded):
        b.validate()
        assert records_equal(a, b)


def test_pointwise_names_follow_feature_kinds():
    for schema in (cohort.default_schema(), tiny_schema()):
        expected = {name for name in schema.names
                    if schema.kind_of(name) in (cohort.STATIC, cohort.COMORBIDITY)}
        assert expected
        assert schema.pointwise_names == expected
        for name in schema.names:
            assert schema.is_pointwise(name) == (name in expected)


def test_malformed_header_is_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,hospital_id,time_hours,value\n")
    with pytest.raises(SchemaMismatchError):
        cohort.load_cohort(path, tiny_schema())


def test_unknown_field_is_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,hospital_id,time_hours,field,value\n"
        "p0,H1,0.0,outcome,1\n"
        "p0,H1,0.0,event_time,8.0\n"
        "p0,H1,0.0,not_a_feature,1.0\n")
    with pytest.raises(SchemaMismatchError):
        cohort.load_cohort(path, tiny_schema())


def test_out_of_range_flow_rejected_with_bound_in_message(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "cohort.csv"
    cohort.write_cohort_csv(path, table_of([make_record()]), schema)
    with open(path, "a", newline="") as fh:
        fh.write("p0,H1,4.0,oxygen_flow,75.0\n")
    with pytest.warns(CohortDataWarning, match=r"\[0, 60\]"):
        loaded = cohort.load_cohort(path, schema)
    assert loaded[0].oxygen_series == [(0.0, 10.0)]


def test_non_monotone_time_rejected(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "cohort.csv"
    cohort.write_cohort_csv(path, table_of([make_record()]), schema)
    with open(path, "a", newline="") as fh:
        fh.write("p0,H1,2.0,hr,99.0\n")  # earlier than the last hr row
    with pytest.warns(CohortDataWarning, match="non-monotone"):
        loaded = cohort.load_cohort(path, schema)
    assert loaded[0].series["hr"] == [(0.0, 80.0), (4.0, 90.0)]


def test_unparseable_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,hospital_id,time_hours,field,value\n"
        "p0,H1,0.0,outcome,1\n"
        "p0,H1,zero,hr,80.0\n")
    with pytest.raises(CohortFormatError, match="line 3"):
        cohort.load_cohort(path, tiny_schema())


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["time_hours", "value"])
@pytest.mark.parametrize("field", ["hr", "event_time"])
def test_non_finite_numeric_names_line(tmp_path, token, column, field):
    row = {"time_hours": "4.0", "value": "8.0"}
    row[column] = token
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,hospital_id,time_hours,field,value\n"
        "p0,H1,8.0,outcome,1\n"
        "p0,H1,0.0,ph,7.4\n"
        f"p0,H1,{row['time_hours']},{field},{row['value']}\n")
    with pytest.raises(CohortFormatError, match="line 4"):
        cohort.load_cohort(path, tiny_schema())


def test_missing_outcome_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,hospital_id,time_hours,field,value\n"
        "p0,H1,0.0,hr,80.0\n")
    with pytest.raises(CohortFormatError, match="outcome"):
        cohort.load_cohort(path, tiny_schema())


def tables_equal(a, b):
    """Same schema and bit-identical columns."""
    if a.schema != b.schema or a.patient_ids != b.patient_ids:
        return False
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("hospital_ids", "outcomes", "event_times", "offsets", "codes",
                     "times", "values"))


# labels draw from characters that csv must quote
LABELS = st.text("aZ09 _,\"'\n\r;", max_size=4)


@st.composite
def loadable_tables(draw, finite=st.floats(allow_nan=False, allow_infinity=False)):
    """Tables that the loader accepts as they are: unique ids, 0-5
    observations per feature at strictly increasing times up to the event
    time, flows in range, statics present or absent, and short stays that
    resample to a single step. Observed values are drawn from `finite`."""
    schema = tiny_schema()
    ids = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    records = []
    for pid in ids:
        event_time = draw(st.one_of(st.floats(0.0, 3.9), st.floats(0.0, 1e3)))

        def times():
            return sorted(draw(st.lists(st.floats(0.0, event_time), unique=True,
                                        max_size=5)))
        statics = {"age": draw(finite)} if draw(st.booleans()) else {}
        series = {name: [(t, draw(finite)) for t in times()] for name in ("hr", "ph")}
        oxygen = [(t, draw(st.floats(cohort.FLOW_MIN, cohort.FLOW_MAX))) for t in times()]
        records.append(PatientRecord(pid, draw(LABELS), statics, series, oxygen,
                                     draw(st.sampled_from(cohort.OUTCOMES)), event_time))
    return CohortTable.from_records(records, schema)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=loadable_tables())
@example(table=table_of([make_record(pid="\r", hospital="\r")]))
def test_written_table_loads_back_bit_for_bit(tmp_path, table):
    path = tmp_path / "cohort.csv"
    cohort.write_cohort_csv(path, table, table.schema)
    assert tables_equal(cohort.load_cohort(path, table.schema), table)
    # the writer quotes as csv.writer does under a "\r\n" terminator, which
    # also quotes a lone "\r", and ends its lines in "\n"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))

    def rendered(row):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        return buf.getvalue()[:-2] + "\n"
    assert "".join(map(rendered, rows)).encode() == path.read_bytes()


def _cell(rows, i, k, value):
    if len(rows[i]) > k:
        rows[i][k] = value


# row mutations: each takes the data rows, a row index and a variant in 0-2
def _drop_column(rows, i, v):
    rows[i] = rows[i][:-1]


def _add_column(rows, i, v):
    rows[i] = rows[i] + ["1.0"]


def _garble_number(rows, i, v):
    _cell(rows, i, 2 + 2 * (i % 2), ("1.2.3", "", "zero")[v])


def _non_finite(rows, i, v):
    _cell(rows, i, 2 + 2 * (i % 2), ("nan", "inf", "-inf")[v])


def _flow_out_of_range(rows, i, v):
    rows[i] = rows[i][:3] + ["oxygen_flow", ("60.5", "-1.0", "1e9")[v]]


def _repeat_row(rows, i, v):
    rows.insert(i, list(rows[i]))


def _reverse_times(rows, i, v):
    rows[i:i + 2 + v] = rows[i:i + 2 + v][::-1]


def _negative_time(rows, i, v):
    _cell(rows, i, 2, ("-0.5", "-0.0", "-1e-300")[v])


def _after_event(rows, i, v):
    _cell(rows, i, 2, ("1e6", "96.5", "24.0")[v])


def _interleave(rows, i, v):
    rows.insert((7 * i + v) % len(rows), rows.pop(i))


def _move_to_end(rows, i, v):
    rows.extend(rows[i:i + 1 + v])
    del rows[i:i + 1 + v]


def _blank_line(rows, i, v):
    rows.insert(i, [])


def _repeat_static(rows, i, v):
    rows.insert(i + v, rows[i][:2] + ["0.0", ("age", "male", "copd_asthma")[v], "55.5"])


def _event_time(rows, i, v):
    rows[i] = rows[i][:3] + ["event_time", ("-2.0", "0.0", "3.5")[v]]


def _drop_row(rows, i, v):
    del rows[i]


def _other_hospital(rows, i, v):
    _cell(rows, i, 1, "H9")


def _outcome_code(rows, i, v):
    rows[i] = rows[i][:3] + ["outcome", ("7", "1.9", "-1")[v]]


MUTATIONS = (_drop_column, _add_column, _garble_number, _non_finite,
             _flow_out_of_range, _repeat_row, _reverse_times, _negative_time,
             _after_event, _interleave, _move_to_end, _blank_line, _repeat_static,
             _event_time, _drop_row, _other_hospital, _outcome_code)


def load_outcome(loader, path, schema):
    """(table or (error type, message), CohortDataWarning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(path, schema)
        except CohortError as err:
            result = (type(err), str(err))
    messages = [str(w.message) for w in caught if w.category is CohortDataWarning]
    return result, messages


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 30), n_patients=st.integers(1, 4),
       mutations=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6),
                                    st.integers(0, 2)), min_size=1, max_size=6))
# the first patient's rejected row comes last in the file, yet warns first
@example(seed=0, n_patients=2, mutations=[(_move_to_end, 9, 0), (_negative_time, 42, 0)])
# a negative event time raises after the patient's rows have warned
@example(seed=0, n_patients=1, mutations=[(_event_time, 1, 0)])
def test_loader_matches_record_loader_on_mutated_rows(tmp_path, seed, n_patients,
                                                      mutations):
    schema = cohort.default_schema()
    config = GeneratorConfig(n_patients=n_patients, seed=seed, horizon_hours=12.0)
    path = tmp_path / "cohort.csv"
    cohort.write_cohort_csv(path, cohort.generate_synthetic_cohort(config, schema), schema)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    for mutate, where, variant in mutations:
        if rows:
            mutate(rows, where % len(rows), variant)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])

    expected, expected_warnings = load_outcome(load_records_loop, path, schema)
    got, got_warnings = load_outcome(cohort.load_cohort, path, schema)
    assert got_warnings == expected_warnings
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert tables_equal(got, CohortTable.from_records(expected, schema))


def test_schema_file_round_trip(tmp_path):
    schema = cohort.default_schema()
    path = tmp_path / "schema.txt"
    cohort.write_schema(path, schema)
    assert cohort.read_schema(path) == schema


# --- normalization ----------------------------------------------------------------

def test_constant_feature_normalizes_to_zero_with_warning():
    records = [make_record(pid=f"p{i}", age=70.0) for i in range(3)]
    schema = tiny_schema()
    with pytest.warns(CohortDataWarning, match="zero variance"):
        stats = cohort.compute_feature_stats(table_of(records), schema)
    normalized = cohort.apply_feature_stats(
        cohort.stack_trajectories(table_of(records), schema, 4.0), stats)
    np.testing.assert_array_equal(normalized.states[:, schema.index("age")], 0.0)
    assert stats.sds[schema.index("age")] == 1.0


def test_normalize_then_invert_round_trips():
    rng = np.random.default_rng(3)
    records = [
        make_record(pid=f"p{i}", age=float(rng.uniform(50, 90)),
                    hr=[(0.0, rng.uniform(60, 100)), (4.0, rng.uniform(60, 100))],
                    ph=[(0.0, rng.uniform(7.2, 7.6))])
        for i in range(5)
    ]
    schema = tiny_schema()
    stats = cohort.compute_feature_stats(table_of(records), schema)
    matrix = cohort.stack_trajectories(table_of(records), schema, 4.0)
    normalized = cohort.apply_feature_stats(matrix, stats)
    restored = normalized.states * stats.sds + stats.means
    np.testing.assert_allclose(restored, matrix.states, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(table=loadable_tables(st.floats(-1e3, 1e3)),
       interval=st.sampled_from((0.5, 2.0, 4.0)))
def test_normalize_then_invert_recovers_observed_states(table, interval):
    schema = table.schema
    with warnings.catch_warnings():
        # features never observed, or observed at one value, warn here
        warnings.simplefilter("ignore", CohortDataWarning)
        stats = cohort.compute_feature_stats(table, schema)
    try:
        matrix = cohort.stack_trajectories(table, schema, interval)
    except cohort.UnusableRecordError:
        assume(False)   # a patient with no observed state feature
    normalized = cohort.apply_feature_stats(matrix, stats)
    restored = normalized.states * stats.sds + stats.means
    observed = ~np.isnan(matrix.states)
    np.testing.assert_allclose(restored[observed], matrix.states[observed],
                               rtol=0, atol=1e-9)
    # a never-observed cell reads the mean exactly
    means = np.broadcast_to(stats.means, matrix.states.shape)
    assert np.array_equal(restored[~observed], means[~observed])


def test_validation_fold_mean_not_zero_under_train_stats():
    rng = np.random.default_rng(4)
    train = [make_record(pid=f"t{i}", age=float(rng.normal(70, 10))) for i in range(20)]
    val = [make_record(pid=f"v{i}", age=float(rng.normal(80, 10))) for i in range(20)]
    schema = tiny_schema()
    stats = cohort.compute_feature_stats(table_of(train), schema)
    val_n = cohort.apply_feature_stats(
        cohort.stack_trajectories(table_of(val), schema, 4.0), stats)
    mean_age = val_n.states[val_n.offsets[:-1], schema.index("age")].mean()
    assert abs(mean_age) > 0.05


# --- hospital folds -----------------------------------------------------------------

def test_split_four_hospitals():
    records = [make_record(pid=f"p{h}{i}", hospital=f"H{h}")
               for h in range(1, 5) for i in range(10)]
    folds = cohort.split_by_hospital([r.hospital_id for r in records])
    assert len(folds) == 4
    seen = []
    for label, (train, test) in zip(("H1", "H2", "H3", "H4"), folds):
        assert len(train) == 30 and len(test) == 10
        assert {records[i].hospital_id for i in test} == {label}
        assert label not in {records[i].hospital_id for i in train}
        seen.extend(records[i].patient_id for i in test)
    assert sorted(seen) == sorted(r.patient_id for r in records)


def test_split_unknown_label_rejected():
    records = [make_record(hospital="H9")]
    with pytest.raises(PartitionError, match="H9"):
        cohort.split_by_hospital([r.hospital_id for r in records],
                                 labels=("H1", "H2", "H3", "H4"))


def test_split_empty_hospital_warns():
    records = [make_record(pid=f"p{i}", hospital="H1") for i in range(3)]
    with pytest.warns(CohortDataWarning, match="empty test fold"):
        folds = cohort.split_by_hospital([r.hospital_id for r in records],
                                         labels=("H1", "H2"))
    assert len(folds[1][1]) == 0
    assert folds[1][0].tolist() == [0, 1, 2]


# --- synthetic generator ---------------------------------------------------------------

def test_generator_same_seed_byte_identical(tmp_path):
    schema = cohort.default_schema()
    paths = []
    for run in range(2):
        cfg = GeneratorConfig(n_patients=40, seed=9)
        records = cohort.generate_synthetic_cohort(cfg, schema)
        p = tmp_path / f"run{run}.csv"
        cohort.write_cohort_csv(p, records, schema)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generator_rejects_non_positive_n():
    with pytest.raises(GeneratorConfigError):
        cohort.generate_synthetic_cohort(GeneratorConfig(n_patients=0))


@pytest.mark.parametrize("hospitals, weights, ok", [
    (("A", "B"), (1.0, 3.0), True),
    (("A", "B", "C", "D", "E"), (0.2, 0.2, 0.0, 0.3, 0.3), True),
    (("A",), (1.0,), False),
    (("A", "B", "C"), (0.5, 0.5), False),
    (("A", "B"), (1.5, -0.5), False),
    (("A", "B"), (0.0, 0.0), False),
])
def test_generator_hospital_labels_and_weights(hospitals, weights, ok):
    config = GeneratorConfig(n_patients=20, seed=3, hospitals=hospitals,
                             hospital_weights=weights)
    if not ok:
        with pytest.raises(GeneratorConfigError):
            config.validate()
        return
    drawn = {r.hospital_id for r in cohort.generate_synthetic_cohort(config)}
    assert drawn == {h for h, w in zip(hospitals, weights) if w > 0}


def test_generated_records_satisfy_invariants():
    records = cohort.generate_synthetic_cohort(GeneratorConfig(n_patients=30, seed=5))
    assert len(records) == 30
    for r in records:
        r.validate()
        assert r.hospital_id in cohort.DEFAULT_HOSPITALS


def test_generated_age_moments():
    records = cohort.generate_synthetic_cohort(GeneratorConfig(n_patients=4000, seed=7))
    ages = np.array([r.static_covariates["age"] for r in records])
    assert abs(ages.mean() - 69.7) < 0.5
    assert abs(ages.std() - 10.8) < 0.5
    assert ages.min() >= 50.0


def test_hazard_is_u_shaped_with_configured_minimum():
    cfg = GeneratorConfig(n_patients=1)
    statics = {name: mean for name, (mean, _) in cfg.covariate_moments.items()}
    # anchor ages hit the profile doses exactly; other ages interpolate
    for age, expected in ((55.0, cfg.optimal_dose_profile["age_lt_65"]),
                          (70.0, cfg.optimal_dose_profile["age_65_75"]),
                          (85.0, cfg.optimal_dose_profile["age_ge_75"]),
                          (77.5, None)):
        statics["age"] = age
        best = cohort.optimal_dose(cfg, age)
        if expected is not None:
            assert best == expected
        at_best = hazard_rate(cfg, statics, best)
        assert hazard_rate(cfg, statics, best - 5.0) > at_best
        assert hazard_rate(cfg, statics, best + 5.0) > at_best
        # configured dose is the exact minimizer of the bowl
        eps = 1e-3
        assert hazard_rate(cfg, statics, best - eps) > at_best
        assert hazard_rate(cfg, statics, best + eps) > at_best


@settings(max_examples=200, deadline=None)
@given(age=st.floats(50.0, 100.0), shifts=st.lists(st.floats(-3.0, 3.0), min_size=16,
                                                  max_size=16),
       doses=st.lists(st.floats(cohort.FLOW_MIN, cohort.FLOW_MAX), min_size=1,
                      max_size=30),
       dose_coef=st.floats(0.0, 0.2), over=st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
       under=st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
       margin=st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
# under-dose curvature below the over-dose one, with a grace margin; at
# 42.1368549193868 L/min squaring by multiplication moves the hazard's last bit
@example(age=70.0, shifts=[0.0] * 16, doses=[0.0, 20.0, 24.5, 26.0, 42.1368549193868],
         dose_coef=0.05, over=0.035, under=0.025, margin=3.0)
# the default bowl with a margin short of the linear tilt
@example(age=61.0, shifts=[1.0] * 16, doses=[0.0, 14.0, 15.2, 60.0],
         dose_coef=0.05, over=0.025, under=0.035, margin=0.5)
def test_patient_hazard_matches_scalar_formula(age, shifts, doses, dose_coef, over,
                                               under, margin):
    cfg = GeneratorConfig(n_patients=1, dose_coef=dose_coef, over_dose_curvature=over,
                          under_dose_curvature=under, under_dose_margin=margin)
    statics = {name: mean + shift * sd for shift, (name, (mean, sd))
               in zip(shifts, cfg.covariate_moments.items())}
    statics["age"] = age
    doses = np.asarray(doses)
    expected = np.array([hazard_rate(cfg, statics, dose) for dose in doses])
    got = cohort.patient_hazard(cfg, statics)(doses)
    assert got.tobytes() == expected.tobytes()


def test_dose_independent_hazard_mortality_invariant_to_bias():
    # Monte-Carlo: with the dose terms switched off, dosing bias cannot move
    # mortality beyond sampling noise.
    def mortality(seed, bias):
        cfg = GeneratorConfig(n_patients=10000, seed=seed, dose_coef=0.0,
                              under_dose_curvature=0.0, over_dose_curvature=0.0,
                              behavior_bias=bias)
        records = cohort.generate_synthetic_cohort(cfg)
        return np.mean([r.outcome == DIED for r in records])

    p_low = mortality(21, 0.0)
    p_high = mortality(22, 15.0)
    se = np.sqrt(p_low * (1 - p_low) / 10000 + p_high * (1 - p_high) / 10000)
    assert abs(p_low - p_high) <= 2.0 * se


def test_optimal_policy_beats_biased_behavior_policy():
    # ground-truth separation: always-optimal dosing vs. +5 L/min biased care
    behav = GeneratorConfig(n_patients=10000, seed=11)
    ideal = GeneratorConfig(n_patients=10000, seed=11, behavior_bias=0.0,
                            patient_noise_sd=0.0, step_noise_sd=0.0,
                            step_noise_heavy_rate=0.0)
    p_b = np.mean([r.outcome == DIED
                   for r in cohort.generate_synthetic_cohort(behav)])
    p_i = np.mean([r.outcome == DIED
                   for r in cohort.generate_synthetic_cohort(ideal)])
    se = np.sqrt(p_b * (1 - p_b) / 10000 + p_i * (1 - p_i) / 10000)
    assert p_i < p_b - 3.0 * se


def generator_configs():
    """GeneratorConfigs over the default table names, with alphanumeric
    hospital labels and finite floats."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    default = GeneratorConfig(n_patients=1)
    scalars = {key: st.integers() if isinstance(getattr(default, key), int) else finite
               for key in cohort._SCALAR_KEYS}

    def table(names, values):
        return st.fixed_dictionaries({name: values for name in names})
    label = st.text(string.ascii_letters + string.digits, min_size=1, max_size=5)
    return st.builds(
        GeneratorConfig, **scalars,
        hospitals=st.lists(label, min_size=1, max_size=6).map(tuple),
        hospital_weights=st.lists(finite, min_size=1, max_size=6).map(tuple),
        optimal_dose_profile=table(cohort.DEFAULT_OPTIMAL_DOSES, finite),
        covariate_moments=table(cohort.DEFAULT_MOMENTS, st.tuples(finite, finite)),
        hazard_coefficients=table(cohort.DEFAULT_HAZARD_COEFFICIENTS, finite))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=generator_configs())
def test_generator_config_file_round_trip(tmp_path, config):
    # generator.cfg is read back by the one config reader, as
    # `oxyrl generate --config` does
    path = tmp_path / "generator.cfg"
    cohort.write_generator_config(path, config)
    values = cli.read_config_file(path)
    assert cli._build_generator_config(argparse.Namespace(), values) == config
