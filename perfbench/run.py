"""oxyrl pipeline benchmark.

    python3 perfbench/run.py --workload {train,evaluate,loho} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. One client drives the real CLI in a closed loop: each command
starts after the previous one ends, in a single process, with BLAS and
OpenMP pinned to one thread. Set-up runs in fresh processes (nine times
with ``--trace 0``, reported as the median); the timed part runs in one
more fresh process, which also gives the peak RSS.

With ``--trace 0`` the timed part repeats while another pass fits in
``--seconds`` (at least twice) and the end-to-end metrics are medians over
the passes.
With ``--trace 1`` it alternates two untraced and two traced passes, and
the metrics are the per-layer ones (see README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Lines before it start
with ``#`` and are for people. A full record (seed, source identity,
machine, versions, output digests) goes to
``.perfbench_work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, REPORTED_ONLY  # noqa: E402
from workloads import NAMES as WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
# a run must end within 180 s; leave room for start-up and clean-up
DEADLINE_S = 170.0

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def run_child(mode, args, extra, result_path, deadline) -> tuple[dict, float]:
    """Start worker.py, wait for it within the deadline; returns its JSON
    result and the wall time from start to exit."""
    argv = [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--result", str(result_path), *extra]
    if args.tiny:
        argv.append("--tiny")
    env = {**os.environ, **PINNED}
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    # a blocking wait returns as soon as the child exits; wait(timeout=...)
    # polls in steps of up to 50 ms, which would quantize the set-up time
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        code = proc.wait()
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError(f"{mode} did not finish before the deadline")
    if code != 0:
        raise BenchError(f"{mode} process exited with code {code}")
    with open(result_path) as fh:
        return json.load(fh), elapsed


def source_identity() -> dict:
    """The git commit when the checkout is a work tree, and a digest of the
    program's source files either way."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=20)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    src = ROOT / "src" / "oxyrl"
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def measure(args, run_dir, deadline) -> dict:
    setup_ops = []
    setup_times = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        setup_dir = run_dir / ("setup" if i == 0 else f"setup{i}")
        result, elapsed = run_child("setup", args, ["--dir", str(setup_dir)],
                                    run_dir / f"setup{i}.json", deadline)
        setup_ops.extend(result["ops"])
        setup_times.append(elapsed)
        if i:
            shutil.rmtree(setup_dir, ignore_errors=True)
    trace_dir = WORK / "traces" / args.workload
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    measured, _ = run_child(
        "measure", args,
        ["--dir", str(run_dir), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--trace-dir", str(trace_dir)],
        run_dir / "measure.json", deadline)
    return {"setup_ops": setup_ops, "setup_times": setup_times, **measured}


def summarize(args, raw) -> tuple[dict, dict]:
    """Returns (final result line, extra record for people and the file)."""
    passes = raw["passes"]
    ops = raw["setup_ops"] + [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    problems = [f"{op['command']}: {op['error']}" for op in ops if not op["ok"]]
    # every pass of a run consumes the same inputs
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {len(digests)} digests")

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    extra = {"ops_failed_ratio": failed / attempted}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for key in EXACT_COUNTS:
            counts = {p["layers"][key] for p in traced}
            if len(counts) != 1:
                problems.append(f"{key} differs between traced passes: {sorted(counts)}")
        values = {key: statistics.fmean(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(p["wall_s"] for p in traced) / statistics.fmean(untraced)
            - 1.0)
        catalogue = PER_LAYER
        extra["shares"] = traced[0]["shares"]
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(raw["setup_times"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "patients_per_s": statistics.median(raw["patients"] / w for w in untraced),
            "train_iters_per_s": statistics.median(raw["iterations"] / w for w in untraced)
            if raw["iterations"] else None,
        }
        catalogue = END_TO_END
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in catalogue.items()
                    if values[name] is not None},
    }
    extra.update({"problems": problems,
                  "digests": digests,
                  "pass_walls_s": [p["wall_s"] for p in passes],
                  "setup_times_s": raw["setup_times"]})
    return line, extra


def environment(raw) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "thread_pinning": PINNED,
        **source_identity(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "oxyrl" / "cli.py").is_file():
        print("error: no oxyrl source tree at src/oxyrl", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that run_child kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    load_before = list(os.getloadavg())
    try:
        raw = measure(args, run_dir, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    line, extra = summarize(args, raw)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "environment": {**environment(raw), "loadavg_at_start": load_before},
              **extra, "result": line}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f" commit {env['git_commit']} source {env['source_sha256'][:16]}")
    print(f"# nproc {env['nproc']} loadavg {env['loadavg']} python {env['python']}"
          f" numpy {env['numpy']} pinned {','.join(f'{k}={v}' for k, v in PINNED.items())}")
    print(f"# output sha256 {' '.join(extra['digests'])}")
    for name, value in line["metrics"].items():
        print(f"# {name} {value['value']:.6g} {value['unit']}")
    for name, (unit, _) in REPORTED_ONLY.items():
        print(f"# {name} {extra[name]:.6g} {unit}")
    for module, share in extra.get("shares", {}).items():
        print(f"# share {module} {100 * share:.1f} %")
    for problem in extra["problems"]:
        print(f"# problem {problem}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
