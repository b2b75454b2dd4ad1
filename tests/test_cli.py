import hashlib
import os
import xml.etree.ElementTree as ET

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
    "optimal_dose.age_lt_6 = 10.0", "n_patients = abc",
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


def test_evaluate_byte_deterministic(tmp_path, cohort_dir, trained_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(eval_args(out, cohort_dir, trained_dir / "policy.ckpt")) == 0
        outs.append(read_all_bytes(out))
    assert outs[0] == outs[1]


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
