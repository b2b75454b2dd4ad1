"""Patient-trajectory data model and synthetic cohort generation.

A cohort is one columnar :class:`CohortTable`: per-patient id, hospital,
outcome and event time, plus one row per observation (static covariate,
lab or vital value, oxygen-flow setting) ordered by patient, schema feature
and time. The generator and the CSV loader fill it; each patient is
resampled once, in raw units, onto a uniform time grid, and the
trajectories are stacked into one :class:`CohortMatrix`. Everything
downstream works on that matrix through patient index arrays: per-fold
normalization, hospital folds, and the one-step transitions consumed by the
policy learner, which are row indices into it. A :class:`PatientRecord` is
the one-patient unit built by hand or read back from a table.

The synthetic generator replaces unavailable hospital data: covariates are
drawn to configured moments, a behavior policy doses with noise around a
per-archetype optimal flow plus a configurable bias, and death times follow
a proportional-hazards law whose dose response is U-shaped, so the
hazard-minimizing flow rate is known exactly and can serve as ground truth.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

FLOW_MIN = 0.0
FLOW_MAX = 60.0

DISCHARGED = "discharged"
DIED = "died"
CENSORED = "censored"
OUTCOMES = (DISCHARGED, DIED, CENSORED)

# terminal rewards; non-terminal steps earn exactly zero
TERMINAL_REWARD = {DISCHARGED: 15.0, DIED: -15.0, CENSORED: 0.0}

OUTCOME_CODE = {DISCHARGED: 1, DIED: 0, CENSORED: 2}
CODE_OUTCOME = {v: k for k, v in OUTCOME_CODE.items()}

STATIC = "static"
LAB = "lab"
VITAL = "vital"
COMORBIDITY = "comorbidity"
FEATURE_KINDS = (STATIC, LAB, VITAL, COMORBIDITY)

CSV_HEADER = ["patient_id", "hospital_id", "time_hours", "field", "value"]
FIELD_OXYGEN = "oxygen_flow"
FIELD_OUTCOME = "outcome"
FIELD_EVENT_TIME = "event_time"


class CohortError(Exception):
    """Base for cohort-layer failures."""


class SchemaMismatchError(CohortError):
    pass


class CohortFormatError(CohortError):
    pass


class MissingFeatureError(CohortError):
    pass


class UnusableRecordError(CohortError):
    pass


class PartitionError(CohortError):
    pass


class GeneratorConfigError(CohortError):
    pass


class CohortDataWarning(UserWarning):
    """Row-level diagnostic emitted while loading or normalizing."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered state-feature layout. Oxygen flow is the action, never a
    state feature."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    units: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise SchemaMismatchError("feature names must be unique")
        if not (len(self.names) == len(self.kinds) == len(self.units)):
            raise SchemaMismatchError("schema fields must have equal length")
        for kind in self.kinds:
            if kind not in FEATURE_KINDS:
                raise SchemaMismatchError(f"unknown feature kind {kind!r}")
        if FIELD_OXYGEN in self.names:
            raise SchemaMismatchError("oxygen flow is the action, not a state feature")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def kind_of(self, name: str) -> str:
        return self.kinds[self.index(name)]

    @functools.cached_property
    def pointwise_names(self) -> frozenset:
        """Names of the features carried as a single per-patient value."""
        return frozenset(name for name, kind in zip(self.names, self.kinds)
                         if kind in (STATIC, COMORBIDITY))

    def is_pointwise(self, name: str) -> bool:
        """True for features carried as a single per-patient value."""
        return name in self.pointwise_names


def write_schema(path, schema: FeatureSchema) -> None:
    with open(path, "w", newline="\n") as fh:
        for name, kind, unit in zip(schema.names, schema.kinds, schema.units):
            fh.write(f"{name},{kind},{unit}\n")


def read_schema(path) -> FeatureSchema:
    names, kinds, units = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise SchemaMismatchError(f"schema line {lineno}: expected name,kind,unit")
            names.append(parts[0])
            kinds.append(parts[1])
            units.append(parts[2])
    return FeatureSchema(tuple(names), tuple(kinds), tuple(units))


@dataclass
class PatientRecord:
    """One encounter: static covariates, timed series, oxygen flow, outcome."""

    patient_id: str
    hospital_id: str
    static_covariates: dict[str, float]
    series: dict[str, list[tuple[float, float]]]
    oxygen_series: list[tuple[float, float]]
    outcome: str
    event_time: float

    def validate(self) -> None:
        if self.outcome not in OUTCOMES:
            raise CohortFormatError(f"unknown outcome {self.outcome!r}")
        if self.event_time < 0:
            raise CohortFormatError("event_time must be non-negative")
        for name, obs in self.series.items():
            last = -np.inf
            for t, _ in obs:
                if t < 0 or t <= last:
                    raise CohortFormatError(
                        f"series {name!r}: times must be non-negative, strictly increasing")
                last = t
            if obs and obs[-1][0] > self.event_time:
                raise CohortFormatError(
                    f"series {name!r}: observation after event_time")
        last = -np.inf
        for t, flow in self.oxygen_series:
            if t < 0 or t <= last:
                raise CohortFormatError("oxygen series times must be strictly increasing")
            if not (FLOW_MIN <= flow <= FLOW_MAX):
                raise CohortFormatError(
                    f"flow {flow} outside [{FLOW_MIN:g}, {FLOW_MAX:g}]")
            last = t
        if self.oxygen_series and self.oxygen_series[-1][0] > self.event_time:
            raise CohortFormatError("oxygen observation after event_time")


def _segment_rows(offsets, patients):
    """Rows offsets[p]:offsets[p + 1] of each given patient, concatenated in
    order, plus each patient's start within that concatenation and its row
    count."""
    patients = np.asarray(patients, dtype=np.intp)
    first = offsets[patients]
    lengths = offsets[patients + 1] - first
    starts = np.cumsum(lengths) - lengths
    rows = np.arange(lengths.sum()) + np.repeat(first - starts, lengths)
    return rows, starts, lengths


@dataclass
class CohortTable:
    """The cohort in columns. Per patient: id, hospital, outcome and event
    time. Per observation: the feature's code (its index in `schema`, or
    len(schema) for oxygen flow), time and value, ordered by patient, then
    code, then time. Patient i owns observations offsets[i]:offsets[i + 1];
    a pointwise feature has at most one observation, at time 0."""

    schema: FeatureSchema
    patient_ids: tuple[str, ...]
    hospital_ids: np.ndarray     # (n_patients,)
    outcomes: np.ndarray         # (n_patients,)
    event_times: np.ndarray      # (n_patients,)
    offsets: np.ndarray          # (n_patients + 1,)
    codes: np.ndarray            # (n_obs,)
    times: np.ndarray            # (n_obs,)
    values: np.ndarray           # (n_obs,)

    def __len__(self):
        return len(self.patient_ids)

    def __getitem__(self, i) -> PatientRecord:
        """Patient i as a record (a copy: editing it leaves the table)."""
        i = range(len(self))[i]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        names = self.schema.names
        statics, series, oxygen = {}, {}, []
        for code, t, v in zip(self.codes[lo:hi].tolist(), self.times[lo:hi].tolist(),
                              self.values[lo:hi].tolist()):
            if code == len(names):
                oxygen.append((t, v))
            elif self.schema.is_pointwise(names[code]):
                statics[names[code]] = v
            else:
                series.setdefault(names[code], []).append((t, v))
        return PatientRecord(self.patient_ids[i], str(self.hospital_ids[i]), statics,
                             series, oxygen, str(self.outcomes[i]),
                             float(self.event_times[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_records(cls, records, schema: FeatureSchema) -> CohortTable:
        """The records' schema features and oxygen flows, in record order
        (other keys are dropped, as the CSV writer drops them)."""
        columns = _Columns(schema)
        for r in records:
            for j, name in enumerate(schema.names):
                if schema.is_pointwise(name):
                    if name in r.static_covariates:
                        columns.add(j, 0.0, r.static_covariates[name])
                else:
                    for t, v in r.series.get(name, []):
                        columns.add(j, t, v)
            for t, v in r.oxygen_series:
                columns.add(len(schema), t, v)
            columns.end_patient(r.patient_id, r.hospital_id, r.outcome, r.event_time)
        return columns.table()


class _Columns:
    """Typed buffers that a CohortTable is filled into patient by patient,
    each patient's observations already in table order."""

    def __init__(self, schema: FeatureSchema):
        self.schema = schema
        self.ids, self.hospitals, self.outcomes = [], [], []
        self.event_times = array("d")
        self.offsets = array("q", [0])
        self.codes = array("q")
        self.times = array("d")
        self.values = array("d")

    def add(self, code, t, value):
        self.codes.append(code)
        self.times.append(t)
        self.values.append(value)

    def end_patient(self, patient_id, hospital_id, outcome, event_time):
        self.ids.append(patient_id)
        self.hospitals.append(hospital_id)
        self.outcomes.append(outcome)
        self.event_times.append(event_time)
        self.offsets.append(len(self.codes))

    def table(self) -> CohortTable:
        """The table, on views of the buffers."""
        return CohortTable(
            self.schema, tuple(self.ids), np.asarray(self.hospitals, dtype=str),
            np.asarray(self.outcomes, dtype=str), np.frombuffer(self.event_times),
            np.frombuffer(self.offsets, dtype=np.int64),
            np.frombuffer(self.codes, dtype=np.int64), np.frombuffer(self.times),
            np.frombuffer(self.values))


def _check_schema(table: CohortTable, schema: FeatureSchema) -> None:
    if table.schema != schema:
        raise SchemaMismatchError("the cohort table was built on another schema")


@dataclass
class Trajectory:
    """Resampled record: uniform grid times, raw states (NaN where a feature
    was never observed), held flows."""

    times: np.ndarray            # (T,)
    states: np.ndarray           # (T, n_features)
    actions: np.ndarray          # (T,)


@dataclass
class CohortMatrix:
    """Every patient's trajectory stacked row-wise, states in raw units
    (apply_feature_stats returns a normalized copy). Patient i owns rows
    offsets[i]:offsets[i + 1]; patients are addressed by index arrays."""

    interval_hours: float
    offsets: np.ndarray          # (n_patients + 1,)
    states: np.ndarray           # (n_rows, n_features)
    actions: np.ndarray          # (n_rows,)
    patient_ids: tuple[str, ...]
    hospital_ids: np.ndarray     # (n_patients,)
    outcomes: np.ndarray         # (n_patients,)
    event_times: np.ndarray      # (n_patients,)

    @property
    def n_patients(self) -> int:
        return len(self.offsets) - 1

    def segments(self, patients):
        """Rows of the given patients, concatenated in order, plus each
        patient's start within that concatenation and its row count."""
        return _segment_rows(self.offsets, patients)


@dataclass
class IndexedTransitions:
    """One-step transitions as row indices into a CohortMatrix, in
    patient-then-time order."""

    rows: np.ndarray             # state row
    next_rows: np.ndarray        # next-state row
    rewards: np.ndarray
    terminal: np.ndarray

    def __len__(self):
        return len(self.rows)


# --- imputation and resampling ----------------------------------------------

def impute_linear(series, grid):
    """Value at each grid time by linear interpolation between the bracketing
    observations; the nearest observed value is held flat outside the
    observation window."""
    if not len(series):
        raise MissingFeatureError("cannot impute an empty series")
    times, values = np.asarray(series, dtype=np.float64).T
    return np.interp(np.asarray(grid, dtype=np.float64), times, values)


def held_flows(oxygen_series, grid) -> np.ndarray:
    """Flow in force at each grid time: the last setting at or before it,
    0 before any."""
    times, values = np.asarray(oxygen_series, dtype=np.float64).reshape(-1, 2).T
    return _held(times, values, np.asarray(grid, dtype=np.float64))


def _held(times, values, grid):
    if not len(times):
        return np.zeros(len(grid))
    last = np.searchsorted(times, grid, side="right") - 1
    return np.where(last >= 0, values[np.maximum(last, 0)], 0.0)


def resample_trajectory(table: CohortTable, interval_hours: float,
                        schema: FeatureSchema, patient: int = 0) -> Trajectory:
    """Assemble one patient's raw states on the uniform grid [0, event_time]
    at the given interval. Features with no observations are NaN."""
    if interval_hours <= 0:
        raise ValueError("interval_hours must be positive")
    _check_schema(table, schema)
    n_steps = int(np.floor(table.event_times[patient] / interval_hours + 1e-9)) + 1
    grid = np.arange(n_steps, dtype=np.float64) * interval_hours

    lo, hi = table.offsets[patient], table.offsets[patient + 1]
    times, values = table.times[lo:hi], table.values[lo:hi]
    bounds = np.searchsorted(table.codes[lo:hi], np.arange(len(schema) + 2))
    observed = 0
    states = np.full((n_steps, len(schema)), np.nan)
    for j, name in enumerate(schema.names):
        first, end = bounds[j], bounds[j + 1]
        if first == end:
            continue
        if schema.is_pointwise(name):
            if np.isfinite(values[first]):
                states[:, j] = values[first]
                observed += 1
        else:
            states[:, j] = np.interp(grid, times[first:end], values[first:end])
            observed += 1
    if observed == 0:
        raise UnusableRecordError(
            f"patient {table.patient_ids[patient]}: no observed state features")
    oxygen = slice(bounds[-2], bounds[-1])
    return Trajectory(grid, states, _held(times[oxygen], values[oxygen], grid))


def stack_trajectories(table: CohortTable, schema: FeatureSchema,
                       interval_hours: float) -> CohortMatrix:
    """Resample every patient once and stack the trajectories in table
    order."""
    trajectories = [resample_trajectory(table, interval_hours, schema, i)
                    for i in range(len(table))]
    lengths = [len(t.times) for t in trajectories]
    return CohortMatrix(
        interval_hours=float(interval_hours),
        offsets=np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)]),
        states=np.concatenate(
            [np.empty((0, len(schema)))] + [t.states for t in trajectories]),
        actions=np.concatenate([np.empty(0)] + [t.actions for t in trajectories]),
        patient_ids=table.patient_ids,
        hospital_ids=table.hospital_ids,
        outcomes=table.outcomes,
        event_times=table.event_times,
    )


def build_transitions(matrix: CohortMatrix, patients,
                      reward_scheme: str = "terminal") -> IndexedTransitions:
    """Compile the given patients' trajectories into one-step transitions.
    Consecutive step pairs get reward zero; each patient's final transition
    is terminal and carries the outcome reward. A single-step patient gives
    one terminal transition whose next state is its only state."""
    if reward_scheme == "seven_day":
        raise NotImplementedError(
            "seven_day reward scheme is a declared stub; only 'terminal' is implemented")
    if reward_scheme != "terminal":
        raise ValueError(f"unknown reward scheme {reward_scheme!r}")
    patients = np.asarray(patients, dtype=np.intp)
    first = matrix.offsets[patients]
    steps = matrix.offsets[patients + 1] - first
    counts = np.maximum(steps - 1, 1)
    ends = np.cumsum(counts)
    rows = np.arange(counts.sum()) + np.repeat(first - (ends - counts), counts)
    next_rows = rows + np.repeat(steps > 1, counts)
    terminal = np.zeros(len(rows), dtype=bool)
    terminal[ends - 1] = True
    rewards = np.zeros(len(rows))
    rewards[ends - 1] = [TERMINAL_REWARD[o] for o in matrix.outcomes[patients]]
    return IndexedTransitions(rows, next_rows, rewards, terminal)


# --- normalization -----------------------------------------------------------

@dataclass
class FeatureStats:
    """Per-feature mean/SD computed on a training fold."""

    names: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray


def compute_feature_stats(table: CohortTable, schema: FeatureSchema,
                          patients=None) -> FeatureStats:
    """Mean and SD of every feature over the observations of the given
    patients (all by default), pooled in patient order."""
    _check_schema(table, schema)
    codes, values = table.codes, table.values
    if patients is not None:
        rows = _segment_rows(table.offsets, patients)[0]
        codes, values = codes[rows], values[rows]
    order = np.argsort(codes, kind="stable")
    values = values[order]
    bounds = np.searchsorted(codes[order], np.arange(len(schema) + 1))
    means = np.zeros(len(schema))
    sds = np.ones(len(schema))
    for j, name in enumerate(schema.names):
        pool = values[bounds[j]:bounds[j + 1]]
        if not len(pool):
            warnings.warn(f"feature {name!r}: no observations, stats left at (0, 1)",
                          CohortDataWarning)
            continue
        means[j] = pool.mean()
        sd = pool.std()
        if sd == 0.0:
            warnings.warn(f"feature {name!r}: zero variance, SD clamped to 1",
                          CohortDataWarning)
            sd = 1.0
        sds[j] = sd
    return FeatureStats(schema.names, means, sds)


def apply_feature_stats(matrix: CohortMatrix, stats: FeatureStats) -> CohortMatrix:
    """Z-score the states with previously computed statistics (used verbatim
    on validation folds); never-observed values become 0, the mean."""
    z = matrix.states - stats.means
    z /= stats.sds
    z[np.isnan(z)] = 0.0
    return replace(matrix, states=z)


# --- folds -------------------------------------------------------------------

def split_by_hospital(hospital_ids, labels=None):
    """One (train, test) pair of patient index arrays per hospital: fold i
    tests hospital i and trains on the rest. Folds partition the cohort."""
    hospital_ids = np.asarray(hospital_ids, dtype=str)
    if labels is None:
        labels = sorted(set(hospital_ids.tolist()))
    labels = list(labels)
    known = np.isin(hospital_ids, labels)
    if not known.all():
        raise PartitionError(
            f"unknown hospital label {str(hospital_ids[np.argmin(known)])!r}")
    folds = []
    for label in labels:
        in_test = hospital_ids == label
        if not in_test.any():
            warnings.warn(f"hospital {label!r} has no records; empty test fold",
                          CohortDataWarning)
        folds.append((np.flatnonzero(~in_test), np.flatnonzero(in_test)))
    return folds


# --- CSV ingestion -----------------------------------------------------------

def _csv_cells(*cells) -> str:
    """The cells joined and quoted as csv.writer writes them within a row.
    Its "\r\n" terminator makes it quote a cell holding a lone "\r", which
    the reader would otherwise take for a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2]


def write_cohort_csv(path, table: CohortTable, schema: FeatureSchema) -> None:
    """Long-format writer: one row per (patient, time, field, value), with
    outcome and event time first; floats are written as their repr."""
    _check_schema(table, schema)
    fields = [_csv_cells("", name, "") for name in (*schema.names, FIELD_OXYGEN)]
    with open(path, "w", newline="") as fh:
        fh.write(_csv_cells(*CSV_HEADER) + "\n")
        for i, patient_id in enumerate(table.patient_ids):
            prefix = _csv_cells(patient_id, table.hospital_ids[i], "")
            event = repr(float(table.event_times[i]))
            lo, hi = table.offsets[i], table.offsets[i + 1]
            lines = [f"{prefix}{event},{FIELD_OUTCOME},{OUTCOME_CODE[table.outcomes[i]]}\n",
                     f"{prefix}{event},{FIELD_EVENT_TIME},{event}\n"]
            lines += [f"{prefix}{t!r}{fields[code]}{v!r}\n" for code, t, v in zip(
                table.codes[lo:hi].tolist(), table.times[lo:hi].tolist(),
                table.values[lo:hi].tolist())]
            fh.write("".join(lines))


def load_cohort(path, schema: FeatureSchema) -> CohortTable:
    """Read a long-format cohort CSV into a validated table.

    Malformed headers, unknown fields, unparseable numerics and structurally
    incomplete patients raise; rows with out-of-range flow or non-monotone
    times are rejected individually with a warning naming the line.
    """
    field_codes = {name: code for code, name in
                   enumerate((*schema.names, FIELD_OXYGEN, FIELD_OUTCOME, FIELD_EVENT_TIME))}
    outcome_code, event_code = len(schema) + 1, len(schema) + 2
    patients: dict[str, int] = {}    # first-seen order
    hospitals, outcomes, event_times = [], [], []
    patient_col, code_col, line_col = array("q"), array("q"), array("q")
    time_col, value_col = array("d"), array("d")
    isfinite = math.isfinite
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise SchemaMismatchError(
                f"malformed header {header!r}; expected {CSV_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CohortFormatError(f"line {lineno}: expected 5 columns")
            pid, hospital, time_s, fieldname, value_s = row
            code = field_codes.get(fieldname)
            if code is None:
                raise SchemaMismatchError(
                    f"line {lineno}: field {fieldname!r} not in schema")
            try:
                t = float(time_s)
                value = float(value_s)
            except ValueError:
                raise CohortFormatError(
                    f"line {lineno}: unparseable numeric {time_s!r}/{value_s!r}") from None
            if not (isfinite(t) and isfinite(value)):
                raise CohortFormatError(
                    f"line {lineno}: non-finite numeric {time_s!r}/{value_s!r}")
            p = patients.setdefault(pid, len(patients))
            if p == len(hospitals):
                hospitals.append(hospital)
                outcomes.append(None)
                event_times.append(None)
            elif hospitals[p] != hospital:
                raise CohortFormatError(
                    f"line {lineno}: patient {pid} has conflicting hospitals")
            if code == outcome_code:
                outcome = int(value)
                if outcome not in CODE_OUTCOME:
                    raise CohortFormatError(f"line {lineno}: unknown outcome code {outcome}")
                outcomes[p] = CODE_OUTCOME[outcome]
            elif code == event_code:
                event_times[p] = value
            else:
                patient_col.append(p)
                code_col.append(code)
                line_col.append(lineno)
                time_col.append(t)
                value_col.append(value)
    # views on the buffers, permuted in place below
    columns = [np.frombuffer(col, dtype=np.int64) for col in (patient_col, code_col, line_col)]
    columns += [np.frombuffer(col, dtype=np.float64) for col in (time_col, value_col)]
    return _accept_rows(schema, tuple(patients), hospitals, outcomes, event_times,
                        *columns)


def _accept_rows(schema, ids, hospitals, outcomes, event_times,
                 patient, code, line, time, value) -> CohortTable:
    """Apply the loader's row rules to the observation rows (given in file
    order, and reordered in place) and keep the accepted ones as a table.

    Patient by patient in first-seen order: a patient without outcome or
    event time raises; each rejected row warns, in file order; a negative
    event time raises. An oxygen row outside [FLOW_MIN, FLOW_MAX] is
    rejected. A series row is rejected as non-monotone when its time is
    negative or not after the last accepted time of its series, else when
    it falls after the event time. The last row of a pointwise feature
    wins, at time 0."""
    n_codes = len(schema) + 1
    missing = np.array([o is None or e is None for o, e in zip(outcomes, event_times)],
                       dtype=bool)
    event = np.array([np.nan if e is None else e for e in event_times], dtype=np.float64)
    order = np.argsort(patient * n_codes + code, kind="stable")
    for column in (patient, code, line, time, value):
        column[:] = column[order]
    del order

    pointwise = np.array([schema.is_pointwise(name) for name in schema.names] + [False])[code]
    bad_flow = (code == len(schema)) & ~((value >= FLOW_MIN) & (value <= FLOW_MAX))
    series = ~pointwise & ~bad_flow
    row_event = event[patient]
    # The rows now run by (patient, code), in file order within a group. A
    # row's last accepted time is the largest in-window time before it in
    # its group: an in-window row not above it is rejected and leaves it as
    # it is. Dense time ranks turn that running maximum into an exact
    # integer cumulative maximum whose groups cannot mix.
    group = patient * n_codes + code
    stride = len(group) + 1
    rank = np.unique(time, return_inverse=True)[1] + 1
    in_window = series & (time >= 0) & (time <= row_event)
    running = np.maximum.accumulate(group * stride + np.where(in_window, rank, 0))
    last = np.concatenate(([0], running[:-1])) - group * stride
    last[np.diff(group, prepend=-1) != 0] = 0
    non_monotone = series & ((time < 0) | (rank <= last))
    after_event = series & ~non_monotone & (time > row_event)
    del running, last, rank

    bad = missing | (event < 0)
    stop = int(np.argmax(bad)) if bad.any() else len(ids)
    # a negative event time raises after its patient's warnings
    warned = stop + 1 if stop < len(ids) and not missing[stop] else stop
    rejected = np.flatnonzero((bad_flow | non_monotone | after_event) & (patient < warned))
    names = (*schema.names, FIELD_OXYGEN)
    for i in rejected[np.lexsort((line[rejected], patient[rejected]))]:
        t, v = float(time[i]), float(value[i])
        if bad_flow[i]:
            message = (f"flow {v:g} outside [{FLOW_MIN:g}, {FLOW_MAX:g}], "
                       f"row rejected")
        elif non_monotone[i]:
            message = f"non-monotone time {t:g} for {names[code[i]]!r}, row rejected"
        else:
            message = (f"observation at {t:g} after event_time "
                       f"{float(event[patient[i]]):g}, row rejected")
        warnings.warn(f"line {line[i]}: {message}", CohortDataWarning)
    if stop < len(ids):
        if missing[stop]:
            raise CohortFormatError(f"patient {ids[stop]}: missing outcome or event_time")
        raise CohortFormatError("event_time must be non-negative")

    kept = ((pointwise & (np.diff(group, append=-1) != 0))
            | (series & ~non_monotone & ~after_event))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(patient[kept],
                                                         minlength=len(ids)))))
    return CohortTable(
        schema, ids, np.asarray(hospitals, dtype=str), np.asarray(outcomes, dtype=str),
        event, offsets, code[kept],
        np.where(pointwise[kept], 0.0, time[kept]), value[kept])


# --- synthetic generator ------------------------------------------------------

DEFAULT_HOSPITALS = ("H1", "H2", "H3", "H4")

# archetype thresholds on age (years); each archetype has its own
# hazard-minimizing flow rate, and the per-patient optimum interpolates
# smoothly between the archetype anchor ages
ARCHETYPE_BOUNDS = (65.0, 75.0)
ARCHETYPES = ("age_lt_65", "age_65_75", "age_ge_75")
ARCHETYPE_ANCHOR_AGES = (55.0, 70.0, 85.0)


def default_schema() -> FeatureSchema:
    rows = [
        ("age", STATIC, "years"),
        ("male", STATIC, "flag"),
        ("bmi", STATIC, "kg/m2"),
        ("hypertension", COMORBIDITY, "flag"),
        ("diabetes", COMORBIDITY, "flag"),
        ("heart_failure", COMORBIDITY, "flag"),
        ("copd_asthma", COMORBIDITY, "flag"),
        ("ph", LAB, "pH"),
        ("anion_gap", LAB, "mEq/L"),
        ("serum_calcium", LAB, "mg/dL"),
        ("potassium", LAB, "mEq/L"),
        ("rdw_cv", LAB, "%"),
        ("wbc", LAB, "1e3/uL"),
        ("hco3", LAB, "mEq/L"),
        ("sbp", VITAL, "mmHg"),
        ("temperature", VITAL, "degC"),
    ]
    return FeatureSchema(*map(tuple, zip(*rows)))


# (mean, sd) for continuous features; (prevalence, 0) for flags. The age row
# is the pre-truncation parameterization: draws below 50 are rejected, which
# lands the realized moments near (69.7, 10.8).
DEFAULT_MOMENTS = {
    "age": (68.0, 12.3),
    "male": (0.645, 0.0),
    "bmi": (28.61, 6.74),
    "hypertension": (0.8518, 0.0),
    "diabetes": (0.5143, 0.0),
    "heart_failure": (0.2979, 0.0),
    "copd_asthma": (0.1592, 0.0),
    "ph": (7.40, 0.07),
    "anion_gap": (12.0, 3.0),
    "serum_calcium": (8.8, 0.7),
    "potassium": (4.1, 0.5),
    "rdw_cv": (14.5, 2.0),
    "wbc": (9.0, 3.5),
    "hco3": (24.0, 4.0),
    "sbp": (123.4, 18.0),
    "temperature": (37.0, 0.6),
}

# sign pattern anchored to the fitted survival-model coefficients, scaled
# down uniformly so dose effects dominate the synthetic mortality mix
DEFAULT_HAZARD_COEFFICIENTS = {
    "age": 0.01,
    "male": 0.075,
    "bmi": 0.005,
    "hypertension": 0.05,
    "diabetes": 0.06,
    "heart_failure": 0.09,
    "copd_asthma": 0.075,
    "ph": -0.93,
    "anion_gap": 0.015,
    "serum_calcium": -0.095,
    "potassium": 0.075,
    "rdw_cv": 0.03,
    "wbc": 0.005,
    "hco3": -0.005,
    "sbp": -0.0025,
    "temperature": 0.04,
}

DEFAULT_OPTIMAL_DOSES = {"age_lt_65": 10.0, "age_65_75": 25.0, "age_ge_75": 40.0}


@dataclass
class GeneratorConfig:
    n_patients: int
    seed: int = 0
    hospitals: tuple[str, ...] = DEFAULT_HOSPITALS
    hospital_weights: tuple[float, ...] = (0.35, 0.30, 0.20, 0.15)
    horizon_hours: float = 96.0
    dose_interval_hours: float = 4.0
    # flow settings persist across several decision epochs, so an observed
    # level reflects sustained exposure rather than a momentary excursion
    dose_block_hours: float = 24.0
    behavior_bias: float = 5.0
    patient_noise_sd: float = 3.0
    step_noise_sd: float = 2.5
    # occasional wide excursions (mean-zero) keep the whole plausible dose
    # range observed on both sides of the optimum
    step_noise_heavy_sd: float = 12.0
    step_noise_heavy_rate: float = 0.10
    step_noise_heavy_mean: float = 0.0
    dose_coef: float = 0.05
    # the bowl is steeper on the deficit side (hypoxemia outpaces oxygen
    # excess); an optional grace margin can delay the extra penalty
    over_dose_curvature: float = 0.025
    under_dose_curvature: float = 0.035
    under_dose_margin: float = 0.0
    baseline_hazard: float = 2.5e-6    # per hour, for a mean patient at optimum
    optimal_dose_profile: dict = field(
        default_factory=lambda: dict(DEFAULT_OPTIMAL_DOSES))
    covariate_moments: dict = field(default_factory=lambda: dict(DEFAULT_MOMENTS))
    hazard_coefficients: dict = field(
        default_factory=lambda: dict(DEFAULT_HAZARD_COEFFICIENTS))
    lab_cadence_hours: float = 12.0
    vital_cadence_hours: float = 4.0
    obs_noise_frac: float = 0.1

    def validate(self) -> None:
        if self.n_patients <= 0:
            raise GeneratorConfigError("n_patients must be positive")
        if len(self.hospitals) < 2:
            raise GeneratorConfigError("at least 2 hospital labels required")
        if len(self.hospital_weights) != len(self.hospitals):
            raise GeneratorConfigError("need one hospital weight per hospital label")
        if min(self.hospital_weights) < 0 or not sum(self.hospital_weights) > 0:
            raise GeneratorConfigError(
                "hospital weights must be non-negative with a positive sum")
        if self.horizon_hours <= 0 or self.dose_interval_hours <= 0:
            raise GeneratorConfigError("horizon and dose interval must be positive")
        if self.under_dose_curvature < 0 or self.over_dose_curvature < 0:
            raise GeneratorConfigError("dose curvatures must be non-negative")
        for archetype in ARCHETYPES:
            if archetype not in self.optimal_dose_profile:
                raise GeneratorConfigError(f"missing optimal dose for {archetype}")


def archetype_of(age: float) -> str:
    if age < ARCHETYPE_BOUNDS[0]:
        return ARCHETYPES[0]
    if age < ARCHETYPE_BOUNDS[1]:
        return ARCHETYPES[1]
    return ARCHETYPES[2]


def optimal_dose(config: GeneratorConfig, age: float) -> float:
    """Ground-truth hazard-minimizing flow rate for a patient of this age:
    piecewise-linear through the archetype anchors, flat beyond them."""
    anchors = [config.optimal_dose_profile[a] for a in ARCHETYPES]
    return float(np.interp(age, ARCHETYPE_ANCHOR_AGES, anchors))


def _dose_vertex(config: GeneratorConfig, age: float) -> float:
    # The hazard carries both a linear dose term and a piecewise quadratic
    # bowl; shift the bowl's vertex so the configured profile is the exact
    # minimizer (the linear slope tilts the minimizer slightly down-dose,
    # onto the under-dose branch).
    target = optimal_dose(config, age)
    beta = config.dose_coef
    k_over = config.over_dose_curvature
    k_under = config.under_dose_curvature
    if k_over > 0 and beta / (2.0 * k_over) <= config.under_dose_margin:
        return target + beta / (2.0 * k_over)
    if k_under > 0:
        extra = max(k_under - k_over, 0.0)
        return target + (beta + 2.0 * extra * config.under_dose_margin) / (2.0 * k_under)
    if k_over > 0:
        return target + beta / (2.0 * k_over)
    return target


def patient_hazard(config: GeneratorConfig, statics: dict):
    """Death hazard (per hour) of a patient with the given static covariates
    as a function of a constant dose: maps an array of doses to an array of
    hazards."""
    eta0 = sum(
        coef * (statics[name] - config.covariate_moments[name][0])
        for name, coef in config.hazard_coefficients.items())
    vertex = _dose_vertex(config, statics["age"])
    extra = max(config.under_dose_curvature - config.over_dose_curvature, 0.0)

    def hazard(doses):
        doses = np.asarray(doses, dtype=np.float64)
        delta = doses - vertex
        # float_power squares with the C library's pow, as `x ** 2` on a
        # float64 scalar does; `** 2` on an array multiplies, which can
        # differ in the last bit
        eta = eta0 + (config.dose_coef * doses
                      + config.over_dose_curvature * np.float_power(delta, 2))
        deficit = -(delta + config.under_dose_margin)
        eta = np.where(deficit > 0, eta + extra * np.float_power(deficit, 2), eta)
        return config.baseline_hazard * np.exp(eta)
    return hazard


def _draw_statics(config: GeneratorConfig, schema: FeatureSchema, rng) -> dict:
    statics = {}
    for name in schema.names:
        mean, sd = config.covariate_moments[name]
        kind = schema.kind_of(name)
        if kind == COMORBIDITY or (kind == STATIC and name == "male"):
            statics[name] = float(rng.random() < mean)
        elif name == "age":
            age = rng.normal(mean, sd)
            while age < 50.0:
                age = rng.normal(mean, sd)
            statics[name] = age
        else:
            statics[name] = rng.normal(mean, sd)
    return statics


def _simulate_death_time(config, statics, dose_times, doses, rng):
    """Inversion sampling through the piecewise-constant dose hazard."""
    target = rng.exponential(1.0)
    acc = 0.0
    ends = dose_times[1:] + [config.horizon_hours]
    lams = patient_hazard(config, statics)(doses).tolist()
    for t_start, t_end, lam in zip(dose_times, ends, lams):
        width = t_end - t_start
        if acc + lam * width >= target:
            return t_start + (target - acc) / lam
        acc += lam * width
    return None


def generate_synthetic_cohort(config: GeneratorConfig,
                              schema: FeatureSchema | None = None) -> CohortTable:
    """Reproducible hazard-driven cohort. Each patient draws from its own
    seed substream, so generation order and parallelism cannot change the
    output."""
    config.validate()
    if schema is None:
        schema = default_schema()
    weights = np.asarray(config.hospital_weights, dtype=np.float64)
    weights = weights / weights.sum()

    streams = np.random.SeedSequence(config.seed).spawn(config.n_patients)
    n_dose_steps = int(np.ceil(config.horizon_hours / config.dose_interval_hours))
    dose_times = [k * config.dose_interval_hours for k in range(n_dose_steps)]
    steps_per_block = max(
        1, int(round(config.dose_block_hours / config.dose_interval_hours)))
    n_blocks = -(-n_dose_steps // steps_per_block)
    rate = config.step_noise_heavy_rate
    regular_mean = 0.0
    if rate < 1.0:
        regular_mean = -rate * config.step_noise_heavy_mean / (1.0 - rate)
    # (code, name, cadence, noise SD) per feature; pointwise ones have no
    # cadence
    features = []
    for code, (name, kind) in enumerate(zip(schema.names, schema.kinds)):
        if kind in (STATIC, COMORBIDITY):
            features.append((code, name, None, None))
        else:
            cadence = config.lab_cadence_hours if kind == LAB else config.vital_cadence_hours
            features.append((code, name, cadence,
                             config.obs_noise_frac * config.covariate_moments[name][1]))

    columns = _Columns(schema)
    for i in range(config.n_patients):
        rng = np.random.default_rng(streams[i])
        hospital = config.hospitals[rng.choice(len(weights), p=weights)]
        statics = _draw_statics(config, schema, rng)

        target_dose = optimal_dose(config, statics["age"])
        patient_shift = rng.normal(0.0, config.patient_noise_sd)
        heavy = rng.random(n_blocks) < rate
        block_mean = np.where(heavy, config.step_noise_heavy_mean, regular_mean)
        block_sd = np.where(heavy, config.step_noise_heavy_sd, config.step_noise_sd)
        block_doses = np.clip(
            target_dose + config.behavior_bias + patient_shift
            + block_mean + block_sd * rng.normal(0.0, 1.0, size=n_blocks),
            FLOW_MIN, FLOW_MAX)
        doses = np.repeat(block_doses, steps_per_block)[:n_dose_steps]

        death = _simulate_death_time(config, statics, dose_times, doses, rng)
        if death is not None:
            outcome, event_time = DIED, float(death)
        else:
            outcome, event_time = DISCHARGED, float(config.horizon_hours)
        event_time = max(event_time, 1e-3)

        normal, exponential = rng.normal, rng.exponential
        for code, name, cadence, noise_sd in features:
            if cadence is None:
                columns.add(code, 0.0, statics[name])
                continue
            t = 0.0
            while t <= event_time:
                columns.add(code, t, statics[name] + normal(0.0, noise_sd))
                t += max(exponential(cadence), 1e-3)
        for t, dose in zip(dose_times, doses.tolist()):
            if t > event_time:
                break
            columns.add(len(schema), t, dose)
        columns.end_patient(f"p{i:05d}", hospital, outcome, event_time)
    return columns.table()


# --- generator config file (flat key = value) ---------------------------------

# generator.cfg key order (`oxyrl generate --config` reads the file back)
_SCALAR_KEYS = (
    "n_patients", "seed", "horizon_hours", "dose_interval_hours",
    "dose_block_hours", "behavior_bias", "patient_noise_sd", "step_noise_sd",
    "step_noise_heavy_sd", "step_noise_heavy_rate", "step_noise_heavy_mean",
    "dose_coef", "under_dose_curvature", "over_dose_curvature",
    "under_dose_margin", "baseline_hazard", "lab_cadence_hours",
    "vital_cadence_hours", "obs_noise_frac",
)


def write_generator_config(path, config: GeneratorConfig) -> None:
    with open(path, "w", newline="\n") as fh:
        for key in _SCALAR_KEYS:
            fh.write(f"{key} = {getattr(config, key)!r}\n")
        fh.write(f"hospitals = {','.join(config.hospitals)}\n")
        fh.write("hospital_weights = "
                 + ",".join(repr(w) for w in config.hospital_weights) + "\n")
        for arch, dose in config.optimal_dose_profile.items():
            fh.write(f"optimal_dose.{arch} = {dose!r}\n")
        for name, (mean, sd) in config.covariate_moments.items():
            fh.write(f"mean.{name} = {mean!r}\n")
            fh.write(f"sd.{name} = {sd!r}\n")
        for name, coef in config.hazard_coefficients.items():
            fh.write(f"coef.{name} = {coef!r}\n")
