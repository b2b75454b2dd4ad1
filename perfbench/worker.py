"""Child process of the benchmark: builds a workload's inputs (``setup``) or
runs its timed CLI commands (``measure``) in-process through
``oxyrl.cli.main``, one command after another.

``run.py`` starts it with BLAS/OpenMP threads pinned to 1 and reads the JSON
result it writes. Run it through ``run.py``, not directly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import oxyrl  # noqa: E402
from oxyrl import cli  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# a loho pass takes up to half of a 50 s run on a slow host; a second pass
# keeps one slow stretch of the host from deciding the run's median alone
MIN_PASSES = 2


def run_cli(argv) -> tuple[int, str]:
    """One CLI command; returns (exit code, error text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:   # a crash is a failed operation, not a benchmark crash
        return 1, traceback.format_exc()
    return code, err.getvalue()


def do_setup(args, sizes) -> dict:
    os.makedirs(args.dir, exist_ok=True)
    workloads.write_setup_files(args.workload, args.seed, sizes, args.dir)
    ops = []
    for argv in workloads.setup_commands(args.workload, args.seed, sizes, args.dir):
        code, err = run_cli(argv)
        ops.append({"command": argv[0], "ok": code == 0, "error": err.strip()})
    return {"ops": ops}


def do_measure(args, sizes) -> dict:
    setup_dir = os.path.join(args.dir, "setup")
    if args.trace:
        # untraced and traced passes alternate, so that drift in the host's
        # speed falls on both sides of the overhead; the two traced passes'
        # counts must agree exactly
        plan = [False, True, False, True]
    else:
        plan = None
    tracer = Tracer(oxyrl)
    passes = []
    census = None
    started = time.perf_counter()
    index = 0
    while True:
        traced = plan[index] if plan else False
        out_dir = os.path.join(args.dir, f"pass{index}")
        commands = workloads.timed_commands(args.workload, args.seed, sizes,
                                            setup_dir, out_dir)
        gc.collect()
        if traced:
            tracer.install(f"{args.workload}-seed{args.seed}-pass{index}")
        try:
            t0 = time.perf_counter()
            results = [run_cli(argv) for argv in commands]
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ops = []
        for i, (argv, (code, err)) in enumerate(zip(commands, results)):
            if code == 0:
                try:
                    workloads.check_command(args.workload, i, sizes, setup_dir, out_dir)
                except (workloads.CheckFailed, OSError, ValueError) as exc:
                    code, err = 1, f"check failed: {exc}"
            ops.append({"command": argv[0], "ok": code == 0, "error": err.strip()})
        digest, out_bytes = workloads.tree_digest(out_dir)
        record = {"wall_s": wall, "traced": traced, "ops": ops,
                  "digest": digest, "output_bytes": out_bytes}
        cohort_csv = workloads.timed_cohort(args.workload, setup_dir, out_dir)
        if census is None and os.path.isfile(cohort_csv):
            census = workloads.cohort_census(cohort_csv, sizes.interval_hours)
        if traced:
            rows = census[2] if census else 0
            record["layers"] = metrics.layer_metrics(tracer.spans, rows)
            record["layers"]["cli.output_bytes"] = out_bytes
            record["shares"] = metrics.module_shares(tracer.spans)
            tracer.flush(os.path.join(args.trace_dir, f"spans-pass{index}.csv"))
        passes.append(record)
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1
        if plan:
            if index == len(plan):
                break
        elif index >= MIN_PASSES and time.perf_counter() - started + wall > args.seconds:
            break   # another pass of this length would overrun the run
    folds = len(census[0]) if census else 0
    trainings = {"train": 1, "evaluate": 0, "loho": folds}[args.workload]
    return {
        "passes": passes,
        "patients": sizes.patients,
        "iterations": trainings * sizes.iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    result = do_setup(args, sizes) if args.mode == "setup" else do_measure(args, sizes)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
