"""Patient-trajectory data model and synthetic cohort generation.

A cohort is a list of :class:`PatientRecord`: static covariates plus
irregularly sampled lab/vital series, an oxygen-flow series, and a terminal
outcome. Each record is resampled once, in raw units, onto a uniform time
grid, and the trajectories are stacked into one :class:`CohortMatrix`.
Everything downstream works on that matrix through patient index arrays:
per-fold normalization, hospital folds, and the one-step transitions
consumed by the policy learner, which are row indices into it.

The synthetic generator replaces unavailable hospital data: covariates are
drawn to configured moments, a behavior policy doses with noise around a
per-archetype optimal flow plus a configurable bias, and death times follow
a proportional-hazards law whose dose response is U-shaped, so the
hazard-minimizing flow rate is known exactly and can serve as ground truth.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
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
        patients = np.asarray(patients, dtype=np.intp)
        first = self.offsets[patients]
        lengths = self.offsets[patients + 1] - first
        starts = np.cumsum(lengths) - lengths
        rows = np.arange(lengths.sum()) + np.repeat(first - starts, lengths)
        return rows, starts, lengths


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
    times = np.asarray([t for t, _ in series], dtype=np.float64)
    values = np.asarray([v for _, v in series], dtype=np.float64)
    return np.interp(np.asarray(grid, dtype=np.float64), times, values)


def held_flows(oxygen_series, grid) -> np.ndarray:
    """Flow in force at each grid time: the last setting at or before it,
    0 before any."""
    grid = np.asarray(grid, dtype=np.float64)
    if not oxygen_series:
        return np.zeros(len(grid))
    times = np.asarray([t for t, _ in oxygen_series], dtype=np.float64)
    values = np.asarray([v for _, v in oxygen_series], dtype=np.float64)
    last = np.searchsorted(times, grid, side="right") - 1
    return np.where(last >= 0, values[np.maximum(last, 0)], 0.0)


def resample_trajectory(record: PatientRecord, interval_hours: float,
                        schema: FeatureSchema) -> Trajectory:
    """Assemble raw states on the uniform grid [0, event_time] at the given
    interval. Features with no observations are NaN."""
    if interval_hours <= 0:
        raise ValueError("interval_hours must be positive")
    n_steps = int(np.floor(record.event_time / interval_hours + 1e-9)) + 1
    grid = np.arange(n_steps, dtype=np.float64) * interval_hours

    observed = 0
    states = np.full((n_steps, len(schema)), np.nan)
    for j, name in enumerate(schema.names):
        if schema.is_pointwise(name):
            value = record.static_covariates.get(name)
            if value is not None and np.isfinite(value):
                states[:, j] = value
                observed += 1
        else:
            obs = record.series.get(name, [])
            if obs:
                states[:, j] = impute_linear(obs, grid)
                observed += 1
    if observed == 0:
        raise UnusableRecordError(
            f"patient {record.patient_id}: no observed state features")
    return Trajectory(grid, states, held_flows(record.oxygen_series, grid))


def stack_trajectories(records, schema: FeatureSchema,
                       interval_hours: float) -> CohortMatrix:
    """Resample every record once and stack the trajectories in record
    order."""
    trajectories = [resample_trajectory(r, interval_hours, schema) for r in records]
    lengths = [len(t.times) for t in trajectories]
    return CohortMatrix(
        interval_hours=float(interval_hours),
        offsets=np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)]),
        states=np.concatenate(
            [np.empty((0, len(schema)))] + [t.states for t in trajectories]),
        actions=np.concatenate([np.empty(0)] + [t.actions for t in trajectories]),
        patient_ids=tuple(r.patient_id for r in records),
        hospital_ids=np.asarray([r.hospital_id for r in records], dtype=str),
        outcomes=np.asarray([r.outcome for r in records], dtype=str),
        event_times=np.asarray([r.event_time for r in records], dtype=np.float64),
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


def _record_values(record: PatientRecord, schema: FeatureSchema, name: str):
    if schema.is_pointwise(name):
        v = record.static_covariates.get(name)
        return [] if v is None else [v]
    return [v for _, v in record.series.get(name, [])]


def compute_feature_stats(records, schema: FeatureSchema) -> FeatureStats:
    means = np.zeros(len(schema))
    sds = np.ones(len(schema))
    for j, name in enumerate(schema.names):
        pool = []
        for record in records:
            pool.extend(_record_values(record, schema, name))
        if not pool:
            warnings.warn(f"feature {name!r}: no observations, stats left at (0, 1)",
                          CohortDataWarning)
            continue
        arr = np.asarray(pool, dtype=np.float64)
        means[j] = arr.mean()
        sd = arr.std()
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

def _fmt(x: float) -> str:
    return repr(float(x))


def write_cohort_csv(path, records, schema: FeatureSchema) -> None:
    """Long-format writer: one row per (patient, time, field, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            base = [r.patient_id, r.hospital_id]
            writer.writerow(base + [_fmt(r.event_time), FIELD_OUTCOME,
                                    str(OUTCOME_CODE[r.outcome])])
            writer.writerow(base + [_fmt(r.event_time), FIELD_EVENT_TIME,
                                    _fmt(r.event_time)])
            for name in schema.names:
                if schema.is_pointwise(name):
                    if name in r.static_covariates:
                        writer.writerow(base + ["0.0", name,
                                                _fmt(r.static_covariates[name])])
                else:
                    for t, v in r.series.get(name, []):
                        writer.writerow(base + [_fmt(t), name, _fmt(v)])
            for t, v in r.oxygen_series:
                writer.writerow(base + [_fmt(t), FIELD_OXYGEN, _fmt(v)])


def load_cohort(path, schema: FeatureSchema):
    """Read a long-format cohort CSV into validated records.

    Malformed headers, unknown fields, unparseable numerics and structurally
    incomplete patients raise; rows with out-of-range flow or non-monotone
    times are rejected individually with a warning naming the line.
    """
    known_fields = set(schema.names) | {FIELD_OXYGEN, FIELD_OUTCOME, FIELD_EVENT_TIME}
    raw: dict[str, dict] = {}  # insertion order is first-seen patient order
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
            if fieldname not in known_fields:
                raise SchemaMismatchError(
                    f"line {lineno}: field {fieldname!r} not in schema")
            try:
                t = float(time_s)
                value = float(value_s)
            except ValueError:
                raise CohortFormatError(
                    f"line {lineno}: unparseable numeric {time_s!r}/{value_s!r}") from None
            if not (math.isfinite(t) and math.isfinite(value)):
                raise CohortFormatError(
                    f"line {lineno}: non-finite numeric {time_s!r}/{value_s!r}")
            entry = raw.setdefault(pid, {
                "hospital": hospital, "rows": [], "outcome": None, "event_time": None})
            if entry["hospital"] != hospital:
                raise CohortFormatError(
                    f"line {lineno}: patient {pid} has conflicting hospitals")
            if fieldname == FIELD_OUTCOME:
                code = int(value)
                if code not in CODE_OUTCOME:
                    raise CohortFormatError(f"line {lineno}: unknown outcome code {code}")
                entry["outcome"] = CODE_OUTCOME[code]
            elif fieldname == FIELD_EVENT_TIME:
                entry["event_time"] = value
            else:
                entry["rows"].append((lineno, t, fieldname, value))

    records = []
    for pid, entry in raw.items():
        if entry["outcome"] is None or entry["event_time"] is None:
            raise CohortFormatError(f"patient {pid}: missing outcome or event_time")
        event_time = entry["event_time"]
        statics: dict[str, float] = {}
        series: dict[str, list] = {}
        oxygen: list = []
        last_time: dict[str, float] = {}
        for lineno, t, name, value in entry["rows"]:
            if name == FIELD_OXYGEN and not (FLOW_MIN <= value <= FLOW_MAX):
                warnings.warn(
                    f"line {lineno}: flow {value:g} outside [{FLOW_MIN:g}, {FLOW_MAX:g}], "
                    f"row rejected", CohortDataWarning)
                continue
            if name != FIELD_OXYGEN and schema.is_pointwise(name):
                statics[name] = value
                continue
            prev = last_time.get(name)
            if t < 0 or (prev is not None and t <= prev):
                warnings.warn(
                    f"line {lineno}: non-monotone time {t:g} for {name!r}, row rejected",
                    CohortDataWarning)
                continue
            if t > event_time:
                warnings.warn(
                    f"line {lineno}: observation at {t:g} after event_time "
                    f"{event_time:g}, row rejected", CohortDataWarning)
                continue
            last_time[name] = t
            if name == FIELD_OXYGEN:
                oxygen.append((t, value))
            else:
                series.setdefault(name, []).append((t, value))
        record = PatientRecord(pid, entry["hospital"], statics, series, oxygen,
                               entry["outcome"], event_time)
        record.validate()
        records.append(record)
    return records


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


def hazard_rate(config: GeneratorConfig, statics: dict, dose: float) -> float:
    """Instantaneous death hazard (per hour) for a patient with the given
    static covariates receiving a constant dose."""
    eta = sum(
        coef * (statics[name] - config.covariate_moments[name][0])
        for name, coef in config.hazard_coefficients.items())
    vertex = _dose_vertex(config, statics["age"])
    delta = dose - vertex
    eta += config.dose_coef * dose + config.over_dose_curvature * delta ** 2
    deficit = -(delta + config.under_dose_margin)
    if deficit > 0:
        extra = config.under_dose_curvature - config.over_dose_curvature
        eta += max(extra, 0.0) * deficit ** 2
    return config.baseline_hazard * float(np.exp(eta))


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
    for k, t_start in enumerate(dose_times):
        t_end = dose_times[k + 1] if k + 1 < len(dose_times) else config.horizon_hours
        lam = hazard_rate(config, statics, doses[k])
        width = t_end - t_start
        if acc + lam * width >= target:
            return t_start + (target - acc) / lam
        acc += lam * width
    return None


def generate_synthetic_cohort(config: GeneratorConfig, schema: FeatureSchema | None = None):
    """Reproducible hazard-driven cohort. Each patient draws from its own
    seed substream, so generation order and parallelism cannot change the
    output."""
    config.validate()
    if schema is None:
        schema = default_schema()
    weights = np.asarray(config.hospital_weights, dtype=np.float64)
    weights = weights / weights.sum()

    streams = np.random.SeedSequence(config.seed).spawn(config.n_patients)
    records = []
    n_dose_steps = int(np.ceil(config.horizon_hours / config.dose_interval_hours))
    dose_times = [k * config.dose_interval_hours for k in range(n_dose_steps)]
    for i in range(config.n_patients):
        rng = np.random.default_rng(streams[i])
        hospital = config.hospitals[rng.choice(len(weights), p=weights)]
        statics = _draw_statics(config, schema, rng)

        target_dose = optimal_dose(config, statics["age"])
        patient_shift = rng.normal(0.0, config.patient_noise_sd)
        steps_per_block = max(
            1, int(round(config.dose_block_hours / config.dose_interval_hours)))
        n_blocks = -(-n_dose_steps // steps_per_block)
        heavy = rng.random(n_blocks) < config.step_noise_heavy_rate
        rate = config.step_noise_heavy_rate
        regular_mean = 0.0
        if rate < 1.0:
            regular_mean = -rate * config.step_noise_heavy_mean / (1.0 - rate)
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

        series = {}
        static_values = {}
        for name in schema.names:
            kind = schema.kind_of(name)
            if kind in (STATIC, COMORBIDITY):
                static_values[name] = statics[name]
                continue
            cadence = config.lab_cadence_hours if kind == LAB else config.vital_cadence_hours
            noise_sd = config.obs_noise_frac * config.covariate_moments[name][1]
            t, obs = 0.0, []
            while t <= event_time:
                obs.append((t, statics[name] + rng.normal(0.0, noise_sd)))
                t += max(rng.exponential(cadence), 1e-3)
            series[name] = obs

        oxygen = [(t, float(d)) for t, d in zip(dose_times, doses) if t <= event_time]
        record = PatientRecord(f"p{i:05d}", hospital, static_values, series,
                               oxygen, outcome, event_time)
        record.validate()
        records.append(record)
    return records


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
