"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--tiny``, untraced and traced, and checks that
each result line is well formed and correct, that every metric of
``BENCHMARK.json`` is emitted with the unit and direction the benchmark's
catalogue gives it, that output digests repeat across runs of one seed,
and that the benchmark fails without printing a result when the source
tree is missing. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY  # noqa: E402
from run import WORK, WORKLOADS  # noqa: E402

SEED = 3


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def run_ok(workload, trace):
    code, lines, stderr = bench("--workload", workload, "--seed", str(SEED),
                                "--seconds", "1", "--trace", str(trace), "--tiny")
    assert code == 0, f"{workload} trace {trace}: exit {code}\n{stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, (workload, trace, lines)
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    if not trace:
        # the metrics kept off BENCHMARK.json are printed for people
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[1] in REPORTED_ONLY:
                printed[parts[1]] = parts[3]
        expected = {name: unit for name, (unit, _) in REPORTED_ONLY.items()}
        assert printed == expected, (workload, printed)
    return result


def check_catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for section, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in declared[section]}
        assert got == catalogue, f"{section} in BENCHMARK.json differs from metrics.py"


def check_metrics(result, catalogue):
    metrics = result["metrics"]
    assert set(metrics) == set(catalogue), sorted(set(metrics) ^ set(catalogue))
    for name, (unit, _) in catalogue.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], float), (name, metrics[name])


def record(workload, trace):
    path = WORK / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    with open(path) as fh:
        return json.load(fh)


def check_missing_source():
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines, _ = bench("--workload", "train", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0, "benchmark succeeded without a source tree"
    assert not any(line.startswith("{") for line in lines), lines


def main() -> int:
    check_catalogue()
    for workload in WORKLOADS:
        end_to_end = {name: spec for name, spec in END_TO_END.items()
                      if name != "train_iters_per_s" or workload != "evaluate"}
        check_metrics(run_ok(workload, 0), end_to_end)
        first = record(workload, 0)["digests"][0]
        check_metrics(run_ok(workload, 1), PER_LAYER)
        # the traced run also compared its exact counts and digests
        # between passes; outputs must match the untraced run's too
        assert record(workload, 1)["digests"] == [first], workload
        print(f"ok {workload}")
    check_missing_source()
    print("ok missing source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
