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
TRAIN_KEYS = ("discount", "batch_size", "critic_lr", "actor_lr", "polyak",
              "max_iterations", "patience", "consistency_every", "seed")
EVAL_KEYS = ("consistency_threshold", "curve_bin_width", "curve_min_count",
             "hist_bin_width", "n_bootstrap", "mortality_label_threshold", "seed")
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

def cmd_generate(args) -> int:
    try:
        values = read_config_file(args.config) if args.config else {}
        config = _build_generator_config(args, values)
        config.validate()
    except (OSError, ValueError, cohort.GeneratorConfigError) as err:
        raise StageError("config", err) from err
    try:
        schema = cohort.default_schema()
        table = cohort.generate_synthetic_cohort(config, schema)
        with _staged(args.out) as out:
            cohort.write_schema(os.path.join(out, "schema.txt"), schema)
            cohort.write_cohort_csv(os.path.join(out, "cohort.csv"), table, schema)
            cohort.write_generator_config(os.path.join(out, "generator.cfg"), config)
    except Exception as err:
        raise StageError("generate", err) from err
    print(f"wrote {len(table)} patients to {args.out}")
    return 0


def _load_inputs(args):
    try:
        schema = cohort.read_schema(args.schema)
        table = cohort.load_cohort(args.cohort, schema)
    except (OSError, cohort.CohortError) as err:
        raise StageError("load", err) from err
    if not len(table):
        raise StageError("load", ValueError("cohort file holds no patients"))
    return schema, table


def cmd_train(args) -> int:
    try:
        values = read_config_file(args.config) if args.config else {}
        config, interval = _training_config(args, values)
    except (OSError, ValueError) as err:
        raise StageError("config", err) from err
    schema, table = _load_inputs(args)
    try:
        stats = cohort.compute_feature_stats(table, schema)
        memory = evaluation.replay_memory(cohort.stack_trajectories(table, schema, interval),
                                          np.arange(len(table)), stats, seed=0)
    except cohort.CohortError as err:
        raise StageError("impute", err) from err
    try:
        result = ddpg.train(memory, config)
    except (ddpg.TrainingAbortedError, ValueError) as err:
        raise StageError("train", err) from err
    try:
        bundle = ddpg.PolicyBundle(
            actor=result.actor, critic=result.critic, targets=result.targets,
            config=config, interval_hours=interval, feature_names=schema.names,
            feature_means=stats.means, feature_sds=stats.sds)
        with _staged(args.out) as out:
            ddpg.save_policy(os.path.join(out, "policy.ckpt"), bundle)
            ddpg.write_training_log(os.path.join(out, "training_log.csv"), result.log)
    except Exception as err:
        raise StageError("write", err) from err
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
    try:
        values = read_config_file(args.config) if args.config else {}
        options = _configure(evaluation.EvalOptions(), EVAL_KEYS, args, values)
        options.validate()
    except (OSError, ValueError) as err:
        raise StageError("config", err) from err
    schema, table = _load_inputs(args)
    try:
        bundle = ddpg.load_policy(args.checkpoint)
    except (OSError, ValueError) as err:
        raise StageError("load", err) from err
    if bundle.feature_names != schema.names:
        raise StageError("load", ValueError(
            "checkpoint features do not match the schema"))
    try:
        stats = cohort.FeatureStats(schema.names, bundle.feature_means,
                                    bundle.feature_sds)
        matrix = cohort.stack_trajectories(table, schema, bundle.interval_hours)
        model, grid, retained, flow_stats = evaluation.fit_outcome_model(
            cohort.apply_feature_stats(matrix, stats), schema, seed=options.seed)
        fold = evaluation.evaluate_patients(
            "all", matrix, np.arange(matrix.n_patients), schema, stats,
            evaluation.actor_policy(bundle.actor), model, retained, flow_stats,
            grid=grid)
        report = evaluation.build_report([fold], options)
        with _staged(args.out) as out:
            evaluation.write_report_files(out, report)
            survival.write_grid_report(os.path.join(out, "gridsearch.csv"), grid)
            survival.save_cox_model(os.path.join(out, "cox_model.txt"), model)
            _write_figures(out, report)
    except Exception as err:
        raise StageError("evaluate", err) from err
    print(f"evaluated {report.n_patients} patients; report in {args.out}")
    return 0


def cmd_loho(args) -> int:
    try:
        values = read_config_file(args.config) if args.config else {}
        config, interval = _training_config(args, values)
        options = _configure(evaluation.EvalOptions(), EVAL_KEYS, args, values)
        options.validate()
    except (OSError, ValueError) as err:
        raise StageError("config", err) from err
    schema, table = _load_inputs(args)
    n_hospitals = len(set(table.hospital_ids.tolist()))
    if n_hospitals < 2:
        raise StageError("folds", ValueError(
            f"leave-one-hospital-out needs a cohort spanning at least 2 hospitals, "
            f"found {n_hospitals}"))
    try:
        runs = evaluation.loho_cross_validate(table, schema, config,
                                              interval_hours=interval)
    except Exception as err:
        raise StageError("folds", err) from err
    try:
        with _staged(args.out) as out:
            for run in runs:
                fold_dir = os.path.join(out, f"fold_{run.fold.fold_id}")
                os.mkdir(fold_dir)
                ddpg.save_policy(os.path.join(fold_dir, "policy.ckpt"), run.bundle)
                ddpg.write_training_log(os.path.join(fold_dir, "training_log.csv"),
                                        run.training_log)
                survival.save_cox_model(os.path.join(fold_dir, "cox_model.txt"),
                                        run.fold.cox)
                survival.write_grid_report(os.path.join(fold_dir, "gridsearch.csv"),
                                           run.fold.grid)
                evaluation.write_report_files(
                    fold_dir, evaluation.build_report([run.fold], options))
            pooled_dir = os.path.join(out, "pooled")
            os.mkdir(pooled_dir)
            report = evaluation.build_report([run.fold for run in runs], options)
            evaluation.write_report_files(pooled_dir, report)
            _write_figures(pooled_dir, report)
    except Exception as err:
        raise StageError("report", err) from err
    print(f"leave-one-hospital-out complete: {len(runs)} folds; "
          f"pooled report in {os.path.join(args.out, 'pooled')}")
    return 0


# --- argument parsing ----------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="flat key = value options file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", required=True, help="output directory")


def _add_keys(parser, keys):
    for key in keys:
        if key != "seed" and not isinstance(DEFAULTS[key], tuple):
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                                type=type(DEFAULTS[key]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oxyrl",
        description="offline dosing-policy pipeline on patient trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic cohort")
    _add_common(p_gen)
    _add_keys(p_gen, GENERATOR_KEYS)
    p_gen.set_defaults(fn=cmd_generate)

    p_train = sub.add_parser("train", help="train the dosing policy")
    _add_common(p_train)
    p_train.add_argument("--cohort", required=True)
    p_train.add_argument("--schema", required=True)
    _add_keys(p_train, (*TRAIN_KEYS, "interval_hours"))
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a trained policy")
    _add_common(p_eval)
    p_eval.add_argument("--cohort", required=True)
    p_eval.add_argument("--schema", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    _add_keys(p_eval, EVAL_KEYS)
    p_eval.set_defaults(fn=cmd_evaluate)

    p_loho = sub.add_parser("loho", help="leave-one-hospital-out validation")
    _add_common(p_loho)
    p_loho.add_argument("--cohort", required=True)
    p_loho.add_argument("--schema", required=True)
    _add_keys(p_loho, (*TRAIN_KEYS, "interval_hours", *EVAL_KEYS))
    p_loho.set_defaults(fn=cmd_loho)
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
