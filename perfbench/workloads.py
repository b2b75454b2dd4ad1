"""The benchmark's workloads: what set-up writes, which CLI commands are
timed, and the checks each command's outputs must pass.

Every input derives from the workload seed; the program only receives the
generated files and the seed flags written into its command lines.

Why these three:

- ``train``: the actor-critic loop alone. ``ddpg`` and ``nn`` do nearly all
  of the work and ``survival`` none, so it shows a change to the training
  step and predicts no change from a Cox change.
- ``loho``: the headline command. It writes a cohort (generator and CSV
  writer), reads it back and runs four folds of training, Cox grid and
  scoring one after another, so it is the only workload that shows the fold
  orchestration and a change that trades the write path for the read path.
  Every pass of a run regenerates the same cohort from the seed's
  generator config, so the passes repeat identical work.
- ``evaluate``: CSV ingest of a large cohort plus the 25-cell Cox grid, with
  the network used for inference only. It shows a loader or Cox change and
  predicts no change from a training-step change. Its Cox work varies
  threefold with the seed and a fresh 2,000-patient cohort per pass does
  not fit in the time a run may take, so it cannot be made steady across
  seeds: it is not in ``BENCHMARK.json`` and serves traced runs and manual
  comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

GRID_CELLS = 25

REPORT_FILES = ("pooled.csv", "metrics.csv", "subgroups.csv", "curve.csv",
                "hist_flows.csv", "hist_difference.csv", "summary.txt")
FIGURE_FILES = ("curve.svg", "hist_flows.svg", "hist_difference.svg")


@dataclass(frozen=True)
class Sizes:
    patients: int         # patients in the cohort the timed part consumes
    iterations: int       # training iterations (per fold for loho)
    interval_hours: float
    checkpoint_patients: int = 0    # evaluate: cohort the checkpoint is trained on
    checkpoint_iterations: int = 0


FULL = {
    "train": Sizes(400, 4000, 4.0),
    "loho": Sizes(1000, 750, 8.0),
    "evaluate": Sizes(2000, 0, 4.0, checkpoint_patients=200,
                      checkpoint_iterations=200),
}

TINY = {
    "train": Sizes(40, 60, 4.0),
    "loho": Sizes(400, 30, 8.0),
    "evaluate": Sizes(80, 0, 4.0, checkpoint_patients=40,
                      checkpoint_iterations=30),
}

NAMES = tuple(FULL)


def _train_argv(out, cohort_dir, seed, iterations, interval):
    return ["train", "--out", out,
            "--cohort", os.path.join(cohort_dir, "cohort.csv"),
            "--schema", os.path.join(cohort_dir, "schema.txt"),
            "--seed", str(seed), "--interval-hours", repr(interval),
            "--max-iterations", str(iterations), "--patience", str(iterations)]


def setup_commands(name: str, seed: int, sizes: Sizes, setup_dir: str):
    """CLI commands that build the workload's inputs under `setup_dir`."""
    cohort_dir = os.path.join(setup_dir, "cohort")
    if name == "train":
        return [["generate", "--out", cohort_dir, "--seed", str(seed),
                 "--n-patients", str(sizes.patients)]]
    if name == "evaluate":
        # the checkpoint is trained on a separate, smaller cohort from the
        # same generator, as a policy is trained once and then evaluated
        policy_cohort = os.path.join(setup_dir, "policy_cohort")
        return [
            ["generate", "--out", cohort_dir, "--seed", str(seed),
             "--n-patients", str(sizes.patients)],
            ["generate", "--out", policy_cohort, "--seed", str(seed + 1),
             "--n-patients", str(sizes.checkpoint_patients)],
            _train_argv(os.path.join(setup_dir, "policy"), policy_cohort, seed,
                        sizes.checkpoint_iterations, sizes.interval_hours),
        ]
    if name == "loho":
        return []
    raise ValueError(f"unknown workload {name!r}")


def write_setup_files(name: str, seed: int, sizes: Sizes, setup_dir: str) -> None:
    """Inputs that are plain files rather than CLI outputs."""
    if name == "loho":
        with open(os.path.join(setup_dir, "generator.cfg"), "w") as fh:
            fh.write(f"n_patients = {sizes.patients}\nseed = {seed}\n")


def timed_commands(name: str, seed: int, sizes: Sizes, setup_dir: str,
                   out_dir: str):
    """The CLI commands whose run time is the workload's `wall_s`."""
    cohort_dir = os.path.join(setup_dir, "cohort")
    if name == "train":
        return [_train_argv(os.path.join(out_dir, "policy"), cohort_dir, seed,
                            sizes.iterations, sizes.interval_hours)]
    if name == "evaluate":
        return [["evaluate", "--out", os.path.join(out_dir, "report"),
                 "--cohort", os.path.join(cohort_dir, "cohort.csv"),
                 "--schema", os.path.join(cohort_dir, "schema.txt"),
                 "--checkpoint", os.path.join(setup_dir, "policy", "policy.ckpt"),
                 "--seed", str(seed)]]
    if name == "loho":
        generated = os.path.join(out_dir, "cohort")
        return [
            ["generate", "--out", generated,
             "--config", os.path.join(setup_dir, "generator.cfg")],
            ["loho", "--out", os.path.join(out_dir, "loho"),
             "--cohort", os.path.join(generated, "cohort.csv"),
             "--schema", os.path.join(generated, "schema.txt"),
             "--seed", str(seed), "--interval-hours", repr(sizes.interval_hours),
             "--max-iterations", str(sizes.iterations),
             "--patience", str(sizes.iterations)],
        ]
    raise ValueError(f"unknown workload {name!r}")


def timed_cohort(name: str, setup_dir: str, out_dir: str) -> str:
    """Path of the cohort CSV that the timed part reads."""
    base = out_dir if name == "loho" else setup_dir
    return os.path.join(base, "cohort", "cohort.csv")


# --- checks ------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def cohort_census(path: str, interval_hours: float):
    """Patients per hospital and decision points per hospital, read from the
    CSV's event_time rows: a patient observed until time T is scored on the
    grid 0, h, 2h, ... <= T. Also returns the number of data rows."""
    patients: dict[str, int] = {}
    decisions: dict[str, int] = {}
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows += 1
            if row[3] == "event_time":
                hospital = row[1]
                steps = math.floor(float(row[4]) / interval_hours + 1e-9) + 1
                patients[hospital] = patients.get(hospital, 0) + 1
                decisions[hospital] = decisions.get(hospital, 0) + steps
    return patients, decisions, rows


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _require_files(directory, names):
    for name in names:
        path = os.path.join(directory, name)
        _require(os.path.isfile(path) and os.path.getsize(path) > 0,
                 f"missing or empty output {path}")


def _data_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _check_report(directory, n_patients, n_decisions, with_grid=True):
    _require_files(directory, REPORT_FILES)
    values = {}
    with open(os.path.join(directory, "metrics.csv")) as fh:
        next(fh)
        for line in fh:
            key, _, value = line.strip().partition(",")
            values[key] = float(value)
    _require(values.get("n_patients") == n_patients,
             f"{directory}: n_patients {values.get('n_patients')} != {n_patients}")
    _require(values.get("n_decision_points") == n_decisions,
             f"{directory}: n_decision_points {values.get('n_decision_points')}"
             f" != {n_decisions}")
    if with_grid:
        _require_files(directory, ("gridsearch.csv", "cox_model.txt"))
        cells = _data_rows(os.path.join(directory, "gridsearch.csv"))
        _require(cells == GRID_CELLS,
                 f"{directory}: gridsearch.csv has {cells} cells, not {GRID_CELLS}")


def _check_policy(directory, iterations):
    _require_files(directory, ("policy.ckpt", "training_log.csv"))
    rows = _data_rows(os.path.join(directory, "training_log.csv"))
    _require(rows == iterations,
             f"{directory}: training_log.csv has {rows} rows, not {iterations}")


def check_command(name: str, index: int, sizes: Sizes, setup_dir: str, out_dir: str):
    """Check the outputs of timed command `index`; raises CheckFailed."""
    if name == "train":
        _check_policy(os.path.join(out_dir, "policy"), sizes.iterations)
        return
    cohort_csv = timed_cohort(name, setup_dir, out_dir)
    patients, decisions, _ = cohort_census(cohort_csv, sizes.interval_hours)
    if name == "evaluate":
        directory = os.path.join(out_dir, "report")
        _check_report(directory, sum(patients.values()), sum(decisions.values()))
        _require_files(directory, FIGURE_FILES)
        return
    if index == 0:   # loho's generate
        _require_files(os.path.join(out_dir, "cohort"),
                       ("cohort.csv", "schema.txt", "generator.cfg"))
        _require(sum(patients.values()) == sizes.patients,
                 f"generated {sum(patients.values())} patients, not {sizes.patients}")
        return
    loho_dir = os.path.join(out_dir, "loho")
    for hospital in sorted(patients):
        fold_dir = os.path.join(loho_dir, f"fold_{hospital}")
        _check_policy(fold_dir, sizes.iterations)
        _check_report(fold_dir, patients[hospital], decisions[hospital])
    pooled = os.path.join(loho_dir, "pooled")
    _check_report(pooled, sum(patients.values()), sum(decisions.values()),
                  with_grid=False)
    _require_files(pooled, FIGURE_FILES)


def tree_digest(directory: str) -> tuple[str, int]:
    """SHA-256 over every file under `directory` (relative path and bytes,
    in sorted order), and the total bytes hashed."""
    h = hashlib.sha256()
    size = 0
    paths = []
    for root, _, files in os.walk(directory):
        paths.extend(os.path.join(root, f) for f in files)
    for path in sorted(paths):
        rel = os.path.relpath(path, directory).replace(os.sep, "/")
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size
