"""Command-line pipeline: generate a synthetic cohort, train the dosing
policy, and evaluate it against logged care.

Every subcommand is byte-deterministic given its inputs and seed. Options
resolve with precedence flag > config file > default, where the config file
is flat `key = value` text over the keys in DEFAULTS and DOTTED.

A subcommand writes its files into a hidden staging directory beside `--out`
and renames them into `--out` only once every one is written. A command that
fails leaves `--out` as it was; one that is killed leaves at most that
hidden `.<name>.*` directory. Writers called as library functions write
their paths in place.

Each command runs as labelled stages (`_stage`): `generate` as config and
generate, `train` as config, load, impute, train and write, `evaluate` as
config, load and evaluate, `loho` as config, load, folds and report. An
error in a stage stops the command with exit code 1 and prints
`error [<stage>] <cause>`.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import cohort, ddpg, evaluation, figures, survival


class StageError(Exception):
    """Failure wrapped with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


# The settable keys. Every scalar key is also a flag (dashes for
# underscores); the generator's tuple keys and the dotted keys exist only in
# config files. A value takes the type of its key's default, and a tuple
# default takes comma-separated items.
_GENERATOR = cohort.GeneratorConfig(n_patients=1)
GENERATOR_KEYS = tuple(f.name for f in fields(_GENERATOR)
                       if not isinstance(getattr(_GENERATOR, f.name), dict))
TRAIN_KEYS = tuple(f.name for f in fields(ddpg.TrainingConfig))
EVAL_KEYS = tuple(f.name for f in fields(evaluation.EvalOptions))
DEFAULTS = {
    **{key: getattr(_GENERATOR, key) for key in GENERATOR_KEYS},
    **{key: getattr(ddpg.TrainingConfig(), key) for key in TRAIN_KEYS},
    **{key: getattr(evaluation.EvalOptions(), key) for key in EVAL_KEYS},
    "interval_hours": 4.0,
}

# `<table>.<name> = float` sets one entry of a generator table; the names are
# those of the default table
DOTTED = {"mean": cohort.DEFAULT_MOMENTS, "sd": cohort.DEFAULT_MOMENTS,
          "coef": cohort.DEFAULT_HAZARD_COEFFICIENTS,
          "optimal_dose": cohort.DEFAULT_OPTIMAL_DOSES}


def _parse(default, raw):
    if isinstance(default, tuple):
        return tuple(_parse(default[0], item.strip()) for item in raw.split(","))
    return type(default)(raw)


def _finite(key, value):
    """`value`, unless it is or holds a NaN or an infinity: those pass the
    `x <= 0` checks of the option validators. Flags and config-file values
    both go through here."""
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(item, float) and not math.isfinite(item) for item in items):
        raise ValueError(f"{key} must be finite, not {value!r}")
    return value


def read_config_file(path):
    """Flat `key = value` lines; '#' starts a comment. A malformed line, a
    key outside DEFAULTS and DOTTED, or a value its type cannot parse or
    that is not finite raises ValueError naming the line."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, raw = line.partition("=")
            if not eq:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, raw = key.strip(), raw.strip()
            table, _, name = key.partition(".")
            default = 0.0 if name in DOTTED.get(table, ()) else DEFAULTS.get(key)
            if default is None:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = _finite(key, _parse(default, raw))
            except ValueError:
                raise ValueError(f"config line {lineno}: {key} cannot be "
                                 f"{raw!r}") from None
    return values


def _configure(target, keys, args, values):
    """Set each of `keys` on `target` from its flag, else from the config
    file's `values`, else leave the target's default."""
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(target, key, _finite(key, flag))
        elif key in values:
            setattr(target, key, values[key])
    return target


def _build_generator_config(args, values) -> cohort.GeneratorConfig:
    config = _configure(cohort.GeneratorConfig(n_patients=1), GENERATOR_KEYS,
                        args, values)
    for key, value in values.items():
        table, _, name = key.partition(".")
        if table == "optimal_dose":
            config.optimal_dose_profile[name] = value
        elif table == "coef":
            config.hazard_coefficients[name] = value
        elif table == "mean":
            config.covariate_moments[name] = (value, config.covariate_moments[name][1])
        elif table == "sd":
            config.covariate_moments[name] = (config.covariate_moments[name][0], value)
    return config


def _training_config(args, values) -> tuple[ddpg.TrainingConfig, float]:
    config = _configure(ddpg.TrainingConfig(), TRAIN_KEYS, args, values)
    config.validate()
    resampling = argparse.Namespace(interval_hours=DEFAULTS["interval_hours"])
    interval = _configure(resampling, ("interval_hours",), args, values).interval_hours
    if interval <= 0:
        raise ValueError("interval_hours must be positive")
    return config, interval


@contextlib.contextmanager
def _staged(out):
    """A fresh directory to write a command's files into, in the nearest
    existing ancestor of `out`'s real path, so that nothing on `out`'s path
    exists before the command succeeds and the renames stay on one
    filesystem, even where `out` is a symlink. On a clean exit `out` and the
    staged subdirectories are made with `os.makedirs` (a renamed staging
    directory would keep its 0700 mode) before any file is renamed into
    place; files in `out` that the command does not write stay. The staging
    directory is removed on every exit."""
    real = os.path.realpath(out)
    parent = os.path.dirname(real)
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    stage = tempfile.mkdtemp(prefix=f".{os.path.basename(real)}.", dir=parent)
    try:
        yield stage
        moves = []
        for root, _, files in os.walk(stage):
            target = os.path.normpath(os.path.join(out, os.path.relpath(root, stage)))
            os.makedirs(target, exist_ok=True)
            moves.extend((os.path.join(root, name), os.path.join(target, name))
                         for name in files)
        for source, target in moves:
            os.replace(source, target)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# --- subcommands ----------------------------------------------------------------

@contextlib.contextmanager
def _stage(name, *errors):
    """Run the block as pipeline stage `name`: an exception of one of
    `errors` (of any kind when none are named) leaves as a StageError."""
    try:
        yield
    except errors or Exception as err:
        raise StageError(name, err) from err


def _config_values(args):
    return read_config_file(args.config) if args.config else {}


def cmd_generate(args) -> int:
    with _stage("config", OSError, ValueError, cohort.GeneratorConfigError):
        config = _build_generator_config(args, _config_values(args))
        config.validate()
    with _stage("generate"):
        schema = cohort.default_schema()
        table = cohort.generate_synthetic_cohort(config, schema)
        with _staged(args.out) as out:
            cohort.write_schema(os.path.join(out, "schema.txt"), schema)
            cohort.write_cohort_csv(os.path.join(out, "cohort.csv"), table, schema)
            cohort.write_generator_config(os.path.join(out, "generator.cfg"), config)
    print(f"wrote {len(table)} patients to {args.out}")
    return 0


def _load_inputs(args):
    with _stage("load", OSError, cohort.CohortError):
        schema = cohort.read_schema(args.schema)
        table = cohort.load_cohort(args.cohort, schema)
    if not len(table):
        raise StageError("load", ValueError("cohort file holds no patients"))
    return schema, table


def _write_policy(outdir, bundle, log):
    ddpg.save_policy(os.path.join(outdir, "policy.ckpt"), bundle)
    ddpg.write_training_log(os.path.join(outdir, "training_log.csv"), log)


def _write_fold(outdir, fold, report):
    evaluation.write_report_files(outdir, report)
    survival.write_grid_report(os.path.join(outdir, "gridsearch.csv"), fold.grid)
    survival.save_cox_model(os.path.join(outdir, "cox_model.txt"), fold.cox)


def cmd_train(args) -> int:
    with _stage("config", OSError, ValueError):
        config, interval = _training_config(args, _config_values(args))
    schema, table = _load_inputs(args)
    with _stage("impute", cohort.CohortError):
        stats = cohort.compute_feature_stats(table, schema)
        memory = evaluation.replay_memory(cohort.stack_trajectories(table, schema, interval),
                                          np.arange(len(table)), stats, seed=0)
    with _stage("train", ddpg.TrainingAbortedError, ValueError):
        result = ddpg.train(memory, config)
    with _stage("write"), _staged(args.out) as out:
        _write_policy(out, ddpg.PolicyBundle(
            actor=result.actor, critic=result.critic, targets=result.targets,
            config=config, interval_hours=interval, feature_names=schema.names,
            feature_means=stats.means, feature_sds=stats.sds), result.log)
    print(f"trained {result.log.n_iterations} iterations "
          f"({result.log.stop_reason}); checkpoint in {args.out}")
    return 0


def _write_figures(outdir, report):
    with open(os.path.join(outdir, "curve.svg"), "w", newline="\n") as fh:
        fh.write(figures.render_curve(report.curve))
    hist = report.histograms
    with open(os.path.join(outdir, "hist_flows.svg"), "w", newline="\n") as fh:
        fh.write(figures.render_histogram(
            hist["flow_edges"],
            {"recommended": hist["rl"], "logged": hist["logged"]},
            "Oxygen flow rates", "flow (L/min)"))
    with open(os.path.join(outdir, "hist_difference.svg"), "w", newline="\n") as fh:
        fh.write(figures.render_histogram(
            hist["diff_edges"], {"difference": hist["diff"]},
            "Flow difference", "recommended - logged (L/min)"))


def cmd_evaluate(args) -> int:
    with _stage("config", OSError, ValueError):
        options = _configure(evaluation.EvalOptions(), EVAL_KEYS, args, _config_values(args))
        options.validate()
    schema, table = _load_inputs(args)
    with _stage("load", OSError, ValueError):
        bundle = ddpg.load_policy(args.checkpoint)
        if bundle.feature_names != schema.names:
            raise ValueError("checkpoint features do not match the schema")
    with _stage("evaluate"):
        matrix = cohort.stack_trajectories(table, schema, bundle.interval_hours)
        everyone = np.arange(matrix.n_patients)
        fold = evaluation.run_fold("all", matrix, schema, bundle, everyone, everyone,
                                   options.seed)
        report = evaluation.build_report([fold], options)
        with _staged(args.out) as out:
            _write_fold(out, fold, report)
            _write_figures(out, report)
    print(f"evaluated {report.n_patients} patients; report in {args.out}")
    return 0


def cmd_loho(args) -> int:
    with _stage("config", OSError, ValueError):
        values = _config_values(args)
        config, interval = _training_config(args, values)
        options = _configure(evaluation.EvalOptions(), EVAL_KEYS, args, values)
        options.validate()
    schema, table = _load_inputs(args)
    with _stage("folds"):
        n_hospitals = len(set(table.hospital_ids.tolist()))
        if n_hospitals < 2:
            raise ValueError(f"leave-one-hospital-out needs a cohort spanning at least "
                             f"2 hospitals, found {n_hospitals}")
        runs = evaluation.loho_cross_validate(table, schema, config,
                                              interval_hours=interval)
    with _stage("report"), _staged(args.out) as out:
        for run in runs:
            fold_dir = os.path.join(out, f"fold_{run.fold.fold_id}")
            os.mkdir(fold_dir)
            _write_policy(fold_dir, run.bundle, run.training_log)
            _write_fold(fold_dir, run.fold, evaluation.build_report([run.fold], options))
        pooled_dir = os.path.join(out, "pooled")
        os.mkdir(pooled_dir)
        report = evaluation.build_report([run.fold for run in runs], options)
        evaluation.write_report_files(pooled_dir, report)
        _write_figures(pooled_dir, report)
    print(f"leave-one-hospital-out complete: {len(runs)} folds; "
          f"pooled report in {os.path.join(args.out, 'pooled')}")
    return 0


# --- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oxyrl",
        description="offline dosing-policy pipeline on patient trajectories")
    sub = parser.add_subparsers(dest="command", required=True)
    run_keys = (*TRAIN_KEYS, "interval_hours")
    # (name, function, help, required input files, option keys)
    for name, fn, text, inputs, keys in (
            ("generate", cmd_generate, "write a synthetic cohort", (), GENERATOR_KEYS),
            ("train", cmd_train, "train the dosing policy", ("cohort", "schema"), run_keys),
            ("evaluate", cmd_evaluate, "score a trained policy",
             ("cohort", "schema", "checkpoint"), EVAL_KEYS),
            ("loho", cmd_loho, "leave-one-hospital-out validation",
             ("cohort", "schema"), (*run_keys, *EVAL_KEYS))):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", help="flat key = value options file")
        command.add_argument("--seed", type=int, help="master random seed")
        command.add_argument("--out", required=True, help="output directory")
        for flag in inputs:
            command.add_argument(f"--{flag}", required=True)
        for key in keys:
            if key != "seed" and not isinstance(DEFAULTS[key], tuple):
                command.add_argument(f"--{key.replace('_', '-')}", dest=key,
                                     type=type(DEFAULTS[key]))
        command.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as err:
        print(f"error {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error [io] {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
