import hashlib
import math
import os
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

from oxyrl import cli, cohort, ddpg, evaluation


def run(argv):
    return cli.main(argv)


def read_all_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = run(["generate", "--out", str(out), "--n-patients", "90",
                "--seed", "21", "--horizon-hours", "96.0"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("trained")
    code = run(["train", "--out", str(out),
                "--cohort", str(cohort_dir / "cohort.csv"),
                "--schema", str(cohort_dir / "schema.txt"),
                "--seed", "3", "--max-iterations", "12",
                "--consistency-every", "4"])
    assert code == 0
    return out


# --- generate -------------------------------------------------------------------

def test_generate_round_trips_through_loader(cohort_dir):
    schema = cohort.read_schema(cohort_dir / "schema.txt")
    records = cohort.load_cohort(cohort_dir / "cohort.csv", schema)
    assert len(records) == 90
    for r in records:
        r.validate()


# SHA-256 over the name, a NUL byte and the bytes of each file `generate`
# writes for the `cohort_dir` fixture, in the order of GENERATED_FILES. The
# other digests see only what the loader parses back; this one pins the
# writer's formatting and quoting as well.
GENERATED_FILES = ("cohort.csv", "schema.txt", "generator.cfg")
GENERATE_DIGEST = "a716508fcc62f9f73c3f6ef1b50655849e11b7ef379b71522f3042de953124f2"


def test_generate_outputs_match_pinned_digest(cohort_dir):
    digest = hashlib.sha256()
    for name in GENERATED_FILES:
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update((cohort_dir / name).read_bytes())
    assert digest.hexdigest() == GENERATE_DIGEST


def test_generate_same_seed_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["generate", "--out", str(out), "--n-patients", "30",
                    "--seed", "9"]) == 0
        outs.append(read_all_bytes(out))
    assert outs[0] == outs[1]
    assert sorted(os.listdir(tmp_path)) == ["a", "b"]


def test_generate_rejects_zero_patients(tmp_path, capsys):
    out = tmp_path / "empty"
    code = run(["generate", "--out", str(out), "--n-patients", "0"])
    assert code == 1
    assert "[config]" in capsys.readouterr().err
    assert not (out / "cohort.csv").exists()


def test_generate_honors_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_patients = 7\nseed = 2\n")
    out = tmp_path / "out"
    assert run(["generate", "--out", str(out), "--config", str(cfg),
                "--n-patients", "5"]) == 0
    schema = cohort.read_schema(out / "schema.txt")
    assert len(cohort.load_cohort(out / "cohort.csv", schema)) == 5


def test_generate_reads_back_its_generator_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("hospitals = A,B,C\nhospital_weights = 2.0,1.0,1.0\n"
                   "mean.age = 72.5\nsd.bmi = 5.0\ncoef.ph = -1.2\n"
                   "optimal_dose.age_ge_75 = 35.0\n")
    first = tmp_path / "first"
    assert run(["generate", "--out", str(first), "--config", str(cfg),
                "--n-patients", "40", "--seed", "5", "--horizon-hours", "48.0"]) == 0
    again = tmp_path / "again"
    assert run(["generate", "--out", str(again),
                "--config", str(first / "generator.cfg")]) == 0
    assert read_all_bytes(again) == read_all_bytes(first)
    assert "mean.age = 72.5\n" in (again / "generator.cfg").read_text()


@pytest.mark.parametrize("line", [
    "n_patients 5", "nosuch = 1", "coef.nosuch = 1.0", "mean.nosuch = 1.0",
    "optimal_dose.age_lt_6 = 10.0", "n_patients = abc", "horizon_hours = nan",
    "mean.age = inf",
])
def test_generate_bad_config_line_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"# a comment\nseed = 3\n{line}\n")
    out = tmp_path / "out"
    assert run(["generate", "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[config]" in err and "config line 3" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "loho"])
def test_every_command_reads_its_config_in_config_stage(tmp_path, capsys, command):
    # the inputs do not exist either: the config stage comes first
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("patience = often\n")
    inputs = {"train": ["--cohort", "x.csv", "--schema", "x.txt"],
              "evaluate": ["--cohort", "x.csv", "--schema", "x.txt",
                           "--checkpoint", "x.ckpt"],
              "loho": ["--cohort", "x.csv", "--schema", "x.txt"]}
    out = tmp_path / "out"
    for config in (cfg, tmp_path / "missing.cfg"):
        assert run([command, "--out", str(out), "--config", str(config),
                    *inputs.get(command, [])]) == 1
        assert "[config]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--behavior-bias nan"), ("train", "--interval-hours nan"),
    ("evaluate", "--consistency-threshold inf"), ("loho", "--curve-bin-width nan"),
])
def test_non_finite_flag_is_config_error(tmp_path, capsys, cohort_dir, trained_dir,
                                         command, flag):
    inputs = ["--cohort", str(cohort_dir / "cohort.csv"),
              "--schema", str(cohort_dir / "schema.txt")]
    inputs = {"generate": ["--n-patients", "20"], "train": inputs,
              "evaluate": [*inputs, "--checkpoint", str(trained_dir / "policy.ckpt")],
              "loho": inputs}[command]
    out = tmp_path / "out"
    assert run([command, "--out", str(out), *inputs, *flag.split()]) == 1
    err = capsys.readouterr().err
    assert "[config]" in err and "must be finite" in err
    assert not out.exists()


def with_entry_set(config, value):
    """(name, copy of `config`) for every float field of `config` and, for a
    generator config, every hospital weight and every entry of its three
    tables, the copy holding `value` there."""
    for f in fields(config):
        if isinstance(getattr(config, f.name), float):
            yield f.name, replace(config, **{f.name: value})
    if not isinstance(config, cohort.GeneratorConfig):
        return
    weights = config.hospital_weights
    for i in range(len(weights)):
        yield f"hospital_weights[{i}]", replace(
            config, hospital_weights=weights[:i] + (value,) + weights[i + 1:])
    for table in ("optimal_dose_profile", "hazard_coefficients"):
        entries = getattr(config, table)
        for key in entries:
            yield f"{table}.{key}", replace(config, **{table: {**entries, key: value}})
    moments = config.covariate_moments
    for key, (mean, sd) in moments.items():
        for name, pair in ((f"mean.{key}", (value, sd)), (f"sd.{key}", (mean, value))):
            yield name, replace(config, covariate_moments={**moments, key: pair})


@pytest.mark.parametrize("config", [
    ddpg.TrainingConfig(), evaluation.EvalOptions(), cohort.GeneratorConfig(n_patients=5),
], ids=lambda config: type(config).__name__)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validators_reject_non_finite_values(config, value):
    # the library twin of the CLI's own check, for scripts that build configs
    accepted = []
    for name, changed in with_entry_set(config, value):
        try:
            changed.validate()
        except (ValueError, cohort.GeneratorConfigError):
            continue
        accepted.append(name)
    assert accepted == []


def moments_with(key, sd):
    return {**cohort.DEFAULT_MOMENTS, key: (cohort.DEFAULT_MOMENTS[key][0], sd)}


# (field the message names, config holding a value that is finite but out of
# range); every one of these used to pass validate() and then stop inside
# numpy, run unbounded, or run at all
OUT_OF_RANGE = [
    ("patient_noise_sd", cohort.GeneratorConfig(n_patients=5, patient_noise_sd=-1.0)),
    ("step_noise_sd", cohort.GeneratorConfig(n_patients=5, step_noise_sd=-1.0)),
    ("step_noise_heavy_sd", cohort.GeneratorConfig(n_patients=5, step_noise_heavy_sd=-1.0)),
    ("obs_noise_frac", cohort.GeneratorConfig(n_patients=5, obs_noise_frac=-0.5)),
    ("sd.bmi", cohort.GeneratorConfig(n_patients=5,
                                      covariate_moments=moments_with("bmi", -5.0))),
    ("lab_cadence_hours", cohort.GeneratorConfig(n_patients=5, lab_cadence_hours=0.0)),
    ("lab_cadence_hours", cohort.GeneratorConfig(n_patients=5, lab_cadence_hours=-1.0)),
    ("vital_cadence_hours", cohort.GeneratorConfig(n_patients=5, vital_cadence_hours=0.0)),
    ("dose_block_hours", cohort.GeneratorConfig(n_patients=5, dose_block_hours=-4.0)),
    ("dose_block_hours", cohort.GeneratorConfig(n_patients=5, dose_block_hours=0.0)),
    ("step_noise_heavy_rate", cohort.GeneratorConfig(n_patients=5,
                                                     step_noise_heavy_rate=1.5)),
    ("step_noise_heavy_rate", cohort.GeneratorConfig(n_patients=5,
                                                     step_noise_heavy_rate=-0.1)),
    ("baseline_hazard", cohort.GeneratorConfig(n_patients=5, baseline_hazard=-1.0)),
    ("seed", cohort.GeneratorConfig(n_patients=5, seed=-1)),
    ("seed", ddpg.TrainingConfig(seed=-1)),
    ("seed", evaluation.EvalOptions(seed=-1)),
]


@pytest.mark.parametrize("name, config", OUT_OF_RANGE,
                         ids=[f"{type(c).__name__}.{n}" for n, c in OUT_OF_RANGE])
def test_validators_reject_out_of_range_values(name, config):
    with pytest.raises((ValueError, cohort.GeneratorConfigError), match=name):
        config.validate()


def test_validators_accept_zero_noise():
    cohort.GeneratorConfig(n_patients=5, patient_noise_sd=0.0, step_noise_sd=0.0,
                           step_noise_heavy_sd=0.0, step_noise_heavy_rate=0.0,
                           obs_noise_frac=0.0, baseline_hazard=0.0, seed=0).validate()
    cohort.GeneratorConfig(n_patients=5, step_noise_heavy_rate=1.0).validate()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--patient-noise-sd -1"), ("generate", "--obs-noise-frac -0.5"),
    ("generate", "--lab-cadence-hours -1"), ("generate", "--step-noise-heavy-rate 1.5"),
    ("generate", "--baseline-hazard -1"), ("generate", "--dose-block-hours -4"),
    ("generate", "--seed -1"), ("train", "--seed -1"), ("evaluate", "--seed -1"),
    ("loho", "--seed -1"),
])
def test_out_of_range_flag_is_config_error(tmp_path, capsys, cohort_dir, trained_dir,
                                           command, flag):
    inputs = ["--cohort", str(cohort_dir / "cohort.csv"),
              "--schema", str(cohort_dir / "schema.txt"), "--max-iterations", "2"]
    inputs = {"generate": ["--n-patients", "5"], "train": inputs, "loho": inputs,
              "evaluate": [*inputs[:4], "--n-bootstrap", "10",
                           "--checkpoint", str(trained_dir / "policy.ckpt")]}[command]
    out = tmp_path / "out"
    assert run([command, "--out", str(out), *inputs, *flag.split()]) == 1
    err = capsys.readouterr().err
    assert "[config]" in err and flag.split()[0][2:].replace("-", "_") in err
    assert not out.exists()


def test_out_of_range_config_table_entry_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("sd.bmi = -5.0\n")
    out = tmp_path / "out"
    assert run(["generate", "--out", str(out), "--config", str(cfg),
                "--n-patients", "5"]) == 1
    err = capsys.readouterr().err
    assert "[config]" in err and "sd.bmi" in err
    assert not out.exists()


# --- train -----------------------------------------------------------------------

def test_train_checkpoint_reproduces_recommendations(trained_dir):
    bundle = ddpg.load_policy(trained_dir / "policy.ckpt")
    reloaded = ddpg.load_policy(trained_dir / "policy.ckpt")
    rng = np.random.default_rng(0)
    states = rng.normal(size=(100, len(bundle.feature_names)))
    np.testing.assert_array_equal(bundle.actor.act(states),
                                  reloaded.actor.act(states))


def test_train_log_has_exactly_max_iterations_rows(trained_dir):
    lines = (trained_dir / "training_log.csv").read_text().splitlines()
    assert lines[0] == "iteration,td_mse,consistency_mse"
    assert len(lines) == 13


def test_train_missing_schema_is_stage_labeled(tmp_path, cohort_dir, capsys):
    code = run(["train", "--out", str(tmp_path),
                "--cohort", str(cohort_dir / "cohort.csv"),
                "--schema", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "[load]" in capsys.readouterr().err


# SHA-256 over the name and bytes of each file the `trained_dir` fixture
# writes, pinned to the output of the engine whose single-output heads sum
# each row's products
TRAIN_DIGEST = "da9d0d8b6480b7e9a57d8843c21bf9726b826bd0873743d99cb46165e5c5ae7b"


def test_train_outputs_match_pinned_digest(trained_dir):
    digest = hashlib.sha256()
    for name in ("policy.ckpt", "training_log.csv"):
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update((trained_dir / name).read_bytes())
    assert digest.hexdigest() == TRAIN_DIGEST


def poisoned_replay_memory(monkeypatch, fold_seed):
    """Make the replay memory with sampler seed `fold_seed` hold an infinite
    reward in every row."""
    original = evaluation.replay_memory

    def poisoned(matrix, patients, stats, seed):
        memory = original(matrix, patients, stats, seed)
        if seed == fold_seed:
            memory.rewards = np.full(len(memory), np.inf)
        return memory
    monkeypatch.setattr(evaluation, "replay_memory", poisoned)


def test_train_failure_leaves_no_output_directory(tmp_path, cohort_dir, capsys,
                                                  monkeypatch):
    poisoned_replay_memory(monkeypatch, fold_seed=0)
    out = tmp_path / "a" / "policy"
    code = run(["train", "--out", str(out),
                "--cohort", str(cohort_dir / "cohort.csv"),
                "--schema", str(cohort_dir / "schema.txt"), "--max-iterations", "3"])
    assert code == 1
    assert "[train]" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_train_byte_deterministic(tmp_path, cohort_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["train", "--out", str(out),
                    "--cohort", str(cohort_dir / "cohort.csv"),
                    "--schema", str(cohort_dir / "schema.txt"),
                    "--seed", "4", "--max-iterations", "6"]) == 0
        outs.append(read_all_bytes(out))
    assert outs[0] == outs[1]
    assert sorted(os.listdir(tmp_path)) == ["a", "b"]


# --- evaluate ---------------------------------------------------------------------

EXPECTED_REPORT_FILES = {
    "pooled.csv", "metrics.csv", "subgroups.csv", "curve.csv",
    "hist_flows.csv", "hist_difference.csv", "summary.txt",
    "gridsearch.csv", "cox_model.txt", "curve.svg", "hist_flows.svg",
    "hist_difference.svg",
}


def eval_args(out, cohort_dir, ckpt):
    return ["evaluate", "--out", str(out),
            "--cohort", str(cohort_dir / "cohort.csv"),
            "--schema", str(cohort_dir / "schema.txt"),
            "--checkpoint", str(ckpt),
            "--seed", "6", "--n-bootstrap", "80"]


def test_evaluate_writes_report_set(tmp_path, cohort_dir, trained_dir):
    out = tmp_path / "report"
    assert run(eval_args(out, cohort_dir, trained_dir / "policy.ckpt")) == 0
    assert set(os.listdir(out)) == EXPECTED_REPORT_FILES
    assert os.listdir(tmp_path) == ["report"]


def test_evaluate_byte_deterministic(tmp_path, cohort_dir, trained_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(eval_args(out, cohort_dir, trained_dir / "policy.ckpt")) == 0
        outs.append(read_all_bytes(out))
    assert outs[0] == outs[1]


# SHA-256 over the relative path and bytes of every file `eval_args` writes
# for the `trained_dir` checkpoint on the `cohort_dir` fixture, taken as
# LOHO_DIGEST is
EVALUATE_DIGEST = "ff80449c24898918e1e893bd97d3c93113af925e3ef55e75abcf83c646dd8bec"


def test_evaluate_outputs_match_pinned_digest(tmp_path, cohort_dir, trained_dir):
    out = tmp_path / "report"
    assert run(eval_args(out, cohort_dir, trained_dir / "policy.ckpt")) == 0
    files = read_all_bytes(out)
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.replace(os.sep, "/").encode())
        digest.update(b"\0")
        digest.update(files[name])
    assert digest.hexdigest() == EVALUATE_DIGEST


def test_evaluate_truncated_checkpoint_is_load_error(tmp_path, cohort_dir, trained_dir,
                                                    capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes((trained_dir / "policy.ckpt").read_bytes()[:120])
    out = tmp_path / "report"
    assert run(eval_args(out, cohort_dir, ckpt)) == 1
    err = capsys.readouterr().err
    assert "[load]" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_misshaped_checkpoint_is_load_error(tmp_path, cohort_dir, trained_dir,
                                                     capsys):
    # same value count, transposed declared shape
    text = (trained_dir / "policy.ckpt").read_text()
    n_features = len(ddpg.load_policy(trained_dir / "policy.ckpt").feature_names)
    header = f"array 0:W 2 {n_features} {ddpg.STATE_HIDDEN}\n"
    assert header in text
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(text.replace(
        header, f"array 0:W 2 {ddpg.STATE_HIDDEN} {n_features}\n", 1))
    assert run(eval_args(tmp_path / "report", cohort_dir, ckpt)) == 1
    err = capsys.readouterr().err
    assert "[load]" in err and "shape" in err


def test_evaluate_figures_are_valid_svg(tmp_path, cohort_dir, trained_dir):
    out = tmp_path / "report"
    assert run(eval_args(out, cohort_dir, trained_dir / "policy.ckpt")) == 0
    for name in ("curve.svg", "hist_flows.svg", "hist_difference.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag.endswith("svg")
        assert any(el.get("data-bin") is not None for el in root.iter())


# --- loho -------------------------------------------------------------------------

def loho_args(out, cohort_dir, extra=()):
    return ["loho", "--out", str(out),
            "--cohort", str(cohort_dir / "cohort.csv"),
            "--schema", str(cohort_dir / "schema.txt"),
            "--seed", "2", "--max-iterations", "8",
            "--consistency-every", "4", "--n-bootstrap", "60", *extra]


def test_loho_emits_fold_dirs_and_pooled(tmp_path, cohort_dir):
    out = tmp_path / "loho"
    assert run(loho_args(out, cohort_dir)) == 0
    assert os.listdir(tmp_path) == ["loho"]
    entries = set(os.listdir(out))
    assert entries == {"fold_H1", "fold_H2", "fold_H3", "fold_H4", "pooled"}
    for fold in ("fold_H1", "fold_H2", "fold_H3", "fold_H4"):
        files = set(os.listdir(out / fold))
        assert {"policy.ckpt", "training_log.csv", "cox_model.txt",
                "gridsearch.csv", "pooled.csv"} <= files
    grid_lines = (out / "fold_H1" / "gridsearch.csv").read_text().splitlines()
    assert len(grid_lines) == 26  # header + 25 cells


def test_loho_pooled_matches_fold_weighted_mean(tmp_path, cohort_dir):
    out = tmp_path / "loho"
    assert run(loho_args(out, cohort_dir)) == 0

    def mortality_and_n(directory):
        lines = (directory / "pooled.csv").read_text().splitlines()
        rl = lines[1].split(",")
        metrics = dict(line.split(",") for line
                       in (directory / "metrics.csv").read_text().splitlines()[1:])
        return float(rl[1]), int(float(metrics["n_patients"]))

    weighted = 0.0
    total = 0
    for fold in ("fold_H1", "fold_H2", "fold_H3", "fold_H4"):
        m, n = mortality_and_n(out / fold)
        weighted += m * n
        total += n
    pooled, pooled_n = mortality_and_n(out / "pooled")
    assert pooled_n == total
    assert abs(pooled - weighted / total) < 1e-12


def test_loho_rejects_single_hospital(tmp_path, cohort_dir, capsys):
    schema = cohort.read_schema(cohort_dir / "schema.txt")
    table = cohort.load_cohort(cohort_dir / "cohort.csv", schema)
    table.hospital_ids = np.full(len(table), "H1")
    solo = tmp_path / "solo.csv"
    cohort.write_cohort_csv(solo, table, schema)
    code = run(["loho", "--out", str(tmp_path / "out"), "--cohort", str(solo),
                "--schema", str(cohort_dir / "schema.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[folds]" in err and "at least 2 hospitals" in err
    assert not (tmp_path / "out").exists()


def test_loho_rejects_unknown_flag_before_any_output(tmp_path, cohort_dir, capsys):
    out = tmp_path / "loho"
    with pytest.raises(SystemExit) as exited:
        run(loho_args(out, cohort_dir, extra=("--parallel-folds",)))
    assert exited.value.code != 0
    assert "unrecognized arguments: --parallel-folds" in capsys.readouterr().err
    assert not out.exists()


def test_loho_training_failure_names_fold_and_leaves_no_output(tmp_path, cohort_dir,
                                                               capsys, monkeypatch):
    poisoned_replay_memory(monkeypatch, fold_seed=2)
    out = tmp_path / "loho"
    assert run(loho_args(out, cohort_dir)) == 1
    err = capsys.readouterr().err
    assert "[folds]" in err and "fold 2, iteration 1:" in err
    assert not out.exists()


# SHA-256 over the relative path and bytes of every file a `loho` run on the
# `cohort_dir` fixture writes, pinned to the output of the engine whose
# single-output heads sum each row's products; folds H1 and H2 stop early at
# iteration 12, H3 and H4 run to the cap of 16
LOHO_DIGEST = "196678b4efa1f2c31bd20a26b517ddf3d8a4a2f3a53020d46213bbb49ac07419"


def test_loho_outputs_match_pinned_digest(tmp_path, cohort_dir):
    out = tmp_path / "loho"
    assert run(loho_args(out, cohort_dir, extra=("--max-iterations", "16",
                                                 "--patience", "8"))) == 0
    files = read_all_bytes(out)
    rows = {name: blob.count(b"\n") - 1 for name, blob in files.items()
            if name.endswith("training_log.csv")}
    assert sorted(rows.values()) == [12, 12, 16, 16]
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.replace(os.sep, "/").encode())
        digest.update(b"\0")
        digest.update(files[name])
    assert digest.hexdigest() == LOHO_DIGEST


@pytest.mark.parametrize("hospitals", [("A", "B"), ("V", "W", "X", "Y", "Z")])
def test_loho_runs_one_fold_per_hospital(tmp_path, hospitals):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"hospitals = {','.join(hospitals)}\n"
                   f"hospital_weights = {','.join(['1.0'] * len(hospitals))}\n")
    cohort_out = tmp_path / "cohort"
    assert run(["generate", "--out", str(cohort_out), "--config", str(cfg),
                "--n-patients", "60", "--seed", "4", "--horizon-hours", "48.0"]) == 0
    schema = cohort.read_schema(cohort_out / "schema.txt")
    records = cohort.load_cohort(cohort_out / "cohort.csv", schema)
    assert {r.hospital_id for r in records} == set(hospitals)
    out = tmp_path / "loho"
    assert run(loho_args(out, cohort_out)) == 0
    assert set(os.listdir(out)) == {f"fold_{h}" for h in hospitals} | {"pooled"}
    metrics = dict(line.split(",") for line
                   in (out / "pooled" / "metrics.csv").read_text().splitlines()[1:])
    assert int(float(metrics["n_patients"])) == len(records)


# --- staged outputs ----------------------------------------------------------------

def test_failed_generate_keeps_the_earlier_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "cohort"
    assert run(["generate", "--out", str(out), "--n-patients", "20", "--seed", "1"]) == 0
    before = read_all_bytes(out)

    def broken(path, table, schema):
        with open(path, "w") as fh:
            fh.write("patient_id,hosp")
        raise OSError("disk full")
    monkeypatch.setattr(cohort, "write_cohort_csv", broken)
    assert run(["generate", "--out", str(out), "--n-patients", "30", "--seed", "2"]) == 1
    assert "[generate]" in capsys.readouterr().err
    assert read_all_bytes(out) == before
    assert os.listdir(tmp_path) == ["cohort"]


KILLED_GENERATE = """
import os, signal, sys
from oxyrl import cli, cohort

def killed(path, table, schema):
    with open(path, "w") as fh:
        fh.write("patient_id,hosp")
    os.kill(os.getpid(), signal.SIGKILL)

cohort.write_cohort_csv = killed
cli.main(["generate", "--out", sys.argv[1], "--n-patients", "20", "--seed", "2"])
"""


@pytest.mark.parametrize("populated", [False, True])
def test_killed_generate_leaves_out_as_it_was(tmp_path, populated):
    out = tmp_path / "cohort"
    if populated:
        assert run(["generate", "--out", str(out), "--n-patients", "20",
                    "--seed", "1"]) == 0
    before = read_all_bytes(out)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    killed = subprocess.run([sys.executable, "-c", KILLED_GENERATE, str(out)],
                            env=env, capture_output=True, timeout=120)
    assert killed.returncode == -signal.SIGKILL, killed.stderr.decode()
    assert out.exists() == populated
    assert read_all_bytes(out) == before
    left = [name for name in os.listdir(tmp_path) if name != "cohort"]
    assert len(left) <= 1 and all(name.startswith(".cohort.") for name in left)


@pytest.mark.parametrize("command, stage", [
    ("generate", "generate"), ("train", "write"), ("evaluate", "evaluate"),
    ("loho", "report"),
])
def test_out_naming_a_file_is_stage_error(tmp_path, capsys, cohort_dir, trained_dir,
                                          command, stage):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    inputs = ["--cohort", str(cohort_dir / "cohort.csv"),
              "--schema", str(cohort_dir / "schema.txt"), "--max-iterations", "3"]
    argv = {"generate": ["generate", "--out", str(out), "--n-patients", "20"],
            "train": ["train", "--out", str(out), *inputs],
            "evaluate": eval_args(out, cohort_dir, trained_dir / "policy.ckpt"),
            "loho": loho_args(out, cohort_dir)}[command]
    assert run(argv) == 1
    assert f"[{stage}]" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"
    assert os.listdir(tmp_path) == ["taken"]


# --- argument parsing ----------------------------------------------------------------

def parser_spec(parser):
    """One `options=dest[:type][!]` token per action, in order; `!` marks a
    required option."""
    return [f"{'/'.join(a.option_strings)}={a.dest}"
            f"{':' + a.type.__name__ if a.type else ''}{'!' if a.required else ''}"
            for a in parser._actions]


COMMON_SPEC = ["-h/--help=help", "--config=config", "--seed=seed:int", "--out=out!"]
TRAIN_SPEC = ["--discount=discount:float", "--batch-size=batch_size:int",
              "--critic-lr=critic_lr:float", "--actor-lr=actor_lr:float",
              "--polyak=polyak:float", "--max-iterations=max_iterations:int",
              "--patience=patience:int", "--consistency-every=consistency_every:int",
              "--interval-hours=interval_hours:float"]
EVAL_SPEC = ["--consistency-threshold=consistency_threshold:float",
             "--curve-bin-width=curve_bin_width:float",
             "--curve-min-count=curve_min_count:int",
             "--hist-bin-width=hist_bin_width:float", "--n-bootstrap=n_bootstrap:int",
             "--mortality-label-threshold=mortality_label_threshold:float"]
PARSER_SPEC = {
    "generate": [*COMMON_SPEC, "--n-patients=n_patients:int",
                 *(f"--{key.replace('_', '-')}={key}:float" for key in (
                     "horizon_hours", "dose_interval_hours", "dose_block_hours",
                     "behavior_bias", "patient_noise_sd", "step_noise_sd",
                     "step_noise_heavy_sd", "step_noise_heavy_rate",
                     "step_noise_heavy_mean", "dose_coef", "over_dose_curvature",
                     "under_dose_curvature", "under_dose_margin", "baseline_hazard",
                     "lab_cadence_hours", "vital_cadence_hours", "obs_noise_frac"))],
    "train": [*COMMON_SPEC, "--cohort=cohort!", "--schema=schema!", *TRAIN_SPEC],
    "evaluate": [*COMMON_SPEC, "--cohort=cohort!", "--schema=schema!",
                 "--checkpoint=checkpoint!", *EVAL_SPEC],
    "loho": [*COMMON_SPEC, "--cohort=cohort!", "--schema=schema!", *TRAIN_SPEC,
             *EVAL_SPEC],
}


def test_parser_builds_the_pinned_options():
    parser = cli.build_parser()
    assert parser_spec(parser) == ["-h/--help=help", "=command!"]
    commands = parser._subparsers._group_actions[0]
    assert [(a.dest, a.help) for a in commands._choices_actions] == [
        ("generate", "write a synthetic cohort"), ("train", "train the dosing policy"),
        ("evaluate", "score a trained policy"),
        ("loho", "leave-one-hospital-out validation")]
    assert {name: parser_spec(sub) for name, sub in commands.choices.items()} == PARSER_SPEC
    assert list(commands.choices) == list(PARSER_SPEC)
