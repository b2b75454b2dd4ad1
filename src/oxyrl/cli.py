"""Command-line pipeline: generate a synthetic cohort, train the dosing
policy, and evaluate it against logged care.

Every subcommand is byte-deterministic given its inputs and seed. Options
resolve with precedence flag > config file > default, where the config file
is flat `key = value` text mirroring the flag names.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import cohort, ddpg, evaluation, figures, survival


class StageError(Exception):
    """Failure wrapped with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


GENERATOR_KEYS = {k: v for k, v in cohort._SCALAR_KEYS.items() if k != "seed"}

TRAIN_KEYS = {
    "discount": float, "batch_size": int, "critic_lr": float, "actor_lr": float,
    "polyak": float, "max_iterations": int, "patience": int,
    "consistency_every": int, "interval_hours": float,
}

EVAL_KEYS = {
    "consistency_threshold": float, "curve_bin_width": float,
    "curve_min_count": int, "hist_bin_width": float, "n_bootstrap": int,
    "mortality_label_threshold": float,
}

ALL_KEYS = {**GENERATOR_KEYS, **TRAIN_KEYS, **EVAL_KEYS, "seed": int}

DOTTED_PREFIXES = ("mean.", "sd.", "coef.", "optimal_dose.")


def read_config_file(path):
    """Flat `key = value` lines; '#' starts a comment. Dotted keys override
    generator moments, hazard coefficients and the optimal-dose profile."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key in ALL_KEYS:
                values[key] = ALL_KEYS[key](raw)
            elif key in ("hospitals",):
                values[key] = tuple(v.strip() for v in raw.split(","))
            elif key == "hospital_weights":
                values[key] = tuple(float(v) for v in raw.split(","))
            elif key.startswith(DOTTED_PREFIXES):
                values[key] = float(raw)
            else:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return values


def resolve(args, file_values, key, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        return file_values[key]
    return default


def _build_generator_config(args, file_values) -> cohort.GeneratorConfig:
    config = cohort.GeneratorConfig(n_patients=1)
    for key, kind in GENERATOR_KEYS.items():
        setattr(config, key, kind(resolve(args, file_values, key,
                                          getattr(config, key))))
    config.seed = int(resolve(args, file_values, "seed", config.seed))
    if "hospitals" in file_values:
        config.hospitals = file_values["hospitals"]
    if "hospital_weights" in file_values:
        config.hospital_weights = file_values["hospital_weights"]
    for key, value in file_values.items():
        if key.startswith("optimal_dose."):
            config.optimal_dose_profile[key.split(".", 1)[1]] = value
        elif key.startswith("mean."):
            name = key.split(".", 1)[1]
            _, sd = config.covariate_moments.get(name, (0.0, 1.0))
            config.covariate_moments[name] = (value, sd)
        elif key.startswith("sd."):
            name = key.split(".", 1)[1]
            mean, _ = config.covariate_moments.get(name, (0.0, 1.0))
            config.covariate_moments[name] = (mean, value)
        elif key.startswith("coef."):
            config.hazard_coefficients[key.split(".", 1)[1]] = value
    return config


def _build_training_config(args, file_values) -> tuple[ddpg.TrainingConfig, float]:
    config = ddpg.TrainingConfig()
    for key in ("discount", "batch_size", "critic_lr", "actor_lr", "polyak",
                "max_iterations", "patience", "consistency_every"):
        setattr(config, key, TRAIN_KEYS[key](
            resolve(args, file_values, key, getattr(config, key))))
    config.seed = int(resolve(args, file_values, "seed", config.seed))
    interval = float(resolve(args, file_values, "interval_hours", 4.0))
    if interval <= 0:
        raise ValueError("interval_hours must be positive")
    config.validate()
    return config, interval


def _build_eval_options(args, file_values) -> evaluation.EvalOptions:
    options = evaluation.EvalOptions()
    for key, kind in EVAL_KEYS.items():
        setattr(options, key, kind(resolve(args, file_values, key,
                                           getattr(options, key))))
    options.seed = int(resolve(args, file_values, "seed", options.seed))
    options.validate()
    return options


class _OutputTracker:
    """Collects written paths and created directories so a failing command
    can remove its partial output. Commands create their directories only
    once their results are computed, just before writing them."""

    def __init__(self):
        self.paths = []
        self.dirs = []

    def register(self, path):
        self.paths.append(path)
        return path

    def make_dir(self, path):
        """Create `path` and any missing parents, remembering each one."""
        missing = []
        head = os.path.abspath(path)
        while not os.path.isdir(head):
            missing.append(head)
            head = os.path.dirname(head)
        os.makedirs(path, exist_ok=True)
        self.dirs.extend(reversed(missing))
        return path

    def discard_all(self):
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass
        for path in reversed(self.dirs):
            try:
                os.rmdir(path)
            except OSError:
                pass


# --- subcommands ----------------------------------------------------------------

def cmd_generate(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    try:
        config = _build_generator_config(args, file_values)
        config.validate()
    except (cohort.GeneratorConfigError, ValueError) as err:
        raise StageError("config", err) from err
    tracker = _OutputTracker()
    try:
        schema = cohort.default_schema()
        records = cohort.generate_synthetic_cohort(config, schema)
        out = tracker.make_dir(args.out)
        cohort.write_schema(tracker.register(os.path.join(out, "schema.txt")), schema)
        cohort.write_cohort_csv(
            tracker.register(os.path.join(out, "cohort.csv")), records, schema)
        cohort.write_generator_config(
            tracker.register(os.path.join(out, "generator.cfg")), config)
    except Exception as err:
        tracker.discard_all()
        raise StageError("generate", err) from err
    print(f"wrote {len(records)} patients to {out}")
    return 0


def _load_inputs(args):
    try:
        schema = cohort.read_schema(args.schema)
        records = cohort.load_cohort(args.cohort, schema)
    except (OSError, cohort.CohortError) as err:
        raise StageError("load", err) from err
    if not records:
        raise StageError("load", ValueError("cohort file holds no patients"))
    return schema, records


def cmd_train(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    try:
        config, interval = _build_training_config(args, file_values)
    except ValueError as err:
        raise StageError("config", err) from err
    schema, records = _load_inputs(args)
    try:
        stats = cohort.compute_feature_stats(records, schema)
        normalized = cohort.apply_feature_stats(
            cohort.stack_trajectories(records, schema, interval), stats)
        memory = evaluation.replay_memory(normalized, np.arange(len(records)), seed=0)
    except cohort.CohortError as err:
        raise StageError("impute", err) from err
    try:
        result = ddpg.train(memory, config)
    except (ddpg.TrainingAbortedError, ValueError) as err:
        raise StageError("train", err) from err
    tracker = _OutputTracker()
    try:
        bundle = ddpg.PolicyBundle(
            actor=result.actor, critic=result.critic, targets=result.targets,
            config=config, interval_hours=interval, feature_names=schema.names,
            feature_means=stats.means, feature_sds=stats.sds)
        out = tracker.make_dir(args.out)
        ddpg.save_policy(tracker.register(os.path.join(out, "policy.ckpt")), bundle)
        ddpg.write_training_log(
            tracker.register(os.path.join(out, "training_log.csv")), result.log)
    except Exception as err:
        tracker.discard_all()
        raise StageError("write", err) from err
    print(f"trained {result.log.n_iterations} iterations "
          f"({result.log.stop_reason}); checkpoint in {out}")
    return 0


def _write_figures(outdir, report, tracker):
    curve_path = tracker.register(os.path.join(outdir, "curve.svg"))
    with open(curve_path, "w", newline="\n") as fh:
        fh.write(figures.render_curve(report.curve))
    hist = report.histograms
    flows_path = tracker.register(os.path.join(outdir, "hist_flows.svg"))
    with open(flows_path, "w", newline="\n") as fh:
        fh.write(figures.render_histogram(
            hist["flow_edges"],
            {"recommended": hist["rl"], "logged": hist["logged"]},
            "Oxygen flow rates", "flow (L/min)"))
    diff_path = tracker.register(os.path.join(outdir, "hist_difference.svg"))
    with open(diff_path, "w", newline="\n") as fh:
        fh.write(figures.render_histogram(
            hist["diff_edges"], {"difference": hist["diff"]},
            "Flow difference", "recommended - logged (L/min)"))


def _policy_fn_from_bundle(bundle):
    if bundle.policy_kind == ddpg.POLICY_KIND_MIRROR:
        return evaluation.mirror_policy()
    return evaluation.actor_policy(bundle.actor)


def cmd_evaluate(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    try:
        options = _build_eval_options(args, file_values)
    except ValueError as err:
        raise StageError("config", err) from err
    schema, records = _load_inputs(args)
    try:
        bundle = ddpg.load_policy(args.checkpoint)
    except (OSError, ValueError) as err:
        raise StageError("load", err) from err
    if bundle.feature_names != schema.names:
        raise StageError("load", ValueError(
            "checkpoint features do not match the schema"))
    tracker = _OutputTracker()
    try:
        stats = cohort.FeatureStats(schema.names, bundle.feature_means,
                                    bundle.feature_sds)
        matrix = cohort.stack_trajectories(records, schema, bundle.interval_hours)
        everyone = np.arange(matrix.n_patients)
        model, grid, retained, flow_stats = evaluation.fit_outcome_model(
            cohort.apply_feature_stats(matrix, stats), everyone, schema,
            seed=options.seed)
        fold = evaluation.evaluate_patients(
            "all", matrix, everyone, schema, stats, _policy_fn_from_bundle(bundle),
            model, retained, flow_stats, grid=grid)
        report = evaluation.build_report([fold], options)
        out = tracker.make_dir(args.out)
        for path in evaluation.write_report_files(out, report):
            tracker.register(path)
        survival.write_grid_report(
            tracker.register(os.path.join(out, "gridsearch.csv")), grid)
        survival.save_cox_model(
            tracker.register(os.path.join(out, "cox_model.txt")), model)
        _write_figures(out, report, tracker)
    except Exception as err:
        tracker.discard_all()
        raise StageError("evaluate", err) from err
    print(f"evaluated {report.n_patients} patients; report in {out}")
    return 0


def cmd_loho(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    try:
        config, interval = _build_training_config(args, file_values)
        options = _build_eval_options(args, file_values)
    except ValueError as err:
        raise StageError("config", err) from err
    schema, records = _load_inputs(args)
    labels = sorted({r.hospital_id for r in records})
    if len(labels) < 2:
        raise StageError("folds", ValueError(
            f"leave-one-hospital-out needs a cohort spanning at least 2 hospitals, "
            f"found {len(labels)}"))
    try:
        if args.parallel_folds:
            # the folds train together; the pool fits and scores them
            workers = min(len(labels), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                runs = evaluation.loho_cross_validate(
                    records, schema, config, interval_hours=interval,
                    labels=labels, map_fn=pool.map)
        else:
            runs = evaluation.loho_cross_validate(
                records, schema, config, interval_hours=interval, labels=labels)
    except Exception as err:
        raise StageError("folds", err) from err
    tracker = _OutputTracker()
    try:
        out = tracker.make_dir(args.out)
        for run in runs:
            fold_dir = tracker.make_dir(os.path.join(out, f"fold_{run.fold.fold_id}"))
            ddpg.save_policy(
                tracker.register(os.path.join(fold_dir, "policy.ckpt")), run.bundle)
            ddpg.write_training_log(
                tracker.register(os.path.join(fold_dir, "training_log.csv")),
                run.training_log)
            survival.save_cox_model(
                tracker.register(os.path.join(fold_dir, "cox_model.txt")),
                run.fold.cox)
            survival.write_grid_report(
                tracker.register(os.path.join(fold_dir, "gridsearch.csv")),
                run.fold.grid)
            fold_report = evaluation.build_report([run.fold], options)
            for path in evaluation.write_report_files(fold_dir, fold_report):
                tracker.register(path)
        pooled_dir = tracker.make_dir(os.path.join(out, "pooled"))
        report = evaluation.build_report([run.fold for run in runs], options)
        for path in evaluation.write_report_files(pooled_dir, report):
            tracker.register(path)
        _write_figures(pooled_dir, report, tracker)
    except Exception as err:
        tracker.discard_all()
        raise StageError("report", err) from err
    print(f"leave-one-hospital-out complete: {len(runs)} folds; "
          f"pooled report in {pooled_dir}")
    return 0


# --- argument parsing ----------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="flat key = value options file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", required=True, help="output directory")


def _add_keys(parser, keys):
    for key, kind in keys.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind)


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
    _add_keys(p_train, TRAIN_KEYS)
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
    p_loho.add_argument("--parallel-folds", action="store_true")
    _add_keys(p_loho, {**TRAIN_KEYS, **EVAL_KEYS})
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
