"""Names that code outside the package looks up on it. The benchmark's
tracer (perfbench/tracing.py) wraps oxyrl functions by module and name, and
the demos call the package's modules by attribute; a renamed or removed
name would break either silently, so both sets are checked here, as are the
tracer's work counters."""

import ast
import functools
import importlib.util
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np

import oxyrl
from _oracles import dense_memory
from oxyrl import cli, ddpg, parallel

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = ("cohort", "ddpg", "evaluation", "survival", "nn", "figures")


TRAINING_STEP = (
    "nn.forward", "nn.forward_cached", "nn.backward", "nn.apply_update",
    "nn.commit_running_stats", "nn.blend_params", "ddpg.td_target",
    "ddpg.critic_step", "ddpg.actor_step", "ddpg.polyak_update",
    "ddpg.consistency_metric",
)


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    traced = [(module, name) for module, entries in tracing.TRACED.items()
              for name, _ in entries]
    assert traced
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(getattr(oxyrl, module, None), name, None))]
    assert missing == []


def test_every_demo_attribute_resolves():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    referenced = set()
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                referenced.add((path.name, node.value.id, node.attr))
    assert referenced
    missing = [f"{demo}: {module}.{name}" for demo, module, name in sorted(referenced)
               if not hasattr(getattr(oxyrl, module), name)]
    assert missing == []


def test_no_module_reaches_into_a_sibling_private_name():
    # a format or check that two modules need lives, public, in one module
    # (as the text formats do in oxyrl.textfile)
    package = ROOT / "src" / "oxyrl"
    siblings = {path.stem for path in package.glob("*.py")}
    reaches = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))):
                reaches.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reaches == []



def test_cohort_demo_writes_only_its_cohort_and_schema(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "01_synthetic_cohort.py"))
    assert "reloaded 500 patients" in capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "demo_cohort.csv", "demo_schema.txt"]


def test_network_demo_round_trips_without_writing_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "02_networks_and_gradients.py"))
    assert "network text round trip bit-exact: True" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_survival_demo_writes_only_its_model_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "04_survival_model.py"))
    out = capsys.readouterr().out
    assert "selected l1=0.01, l2=0.01" in out
    assert "validation concordance: 0.635" in out
    assert [path.name for path in tmp_path.iterdir()] == ["demo_cox.txt"]


def count_step_calls(monkeypatch, order=None):
    """Wrap every `nn` and `ddpg` entry of the tracer's list the way the
    tracer does; returns the per-name call counts, and appends each call's
    name to `order` if given."""
    tracing = load_tracing(monkeypatch)
    calls = {}

    def counted(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if order is not None:
                order.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module_name in ("nn", "ddpg"):
        module = getattr(oxyrl, module_name)
        for name, _ in tracing.TRACED[module_name]:
            monkeypatch.setattr(module, name,
                                counted(f"{module_name}.{name}", getattr(module, name)))
    return calls


def toy_memory(rng, seed):
    states = rng.normal(size=(40, 3))
    return dense_memory(states, rng.uniform(0, 60, 40), np.zeros(40),
                        states[::-1].copy(), rng.random(40) < 0.2, seed=seed)


def test_traced_training_step_functions_are_called(monkeypatch):
    # the tracer swaps module attributes, so a step function the program
    # reaches some other way would silently read 0 in the per-layer metrics
    order = []
    calls = count_step_calls(monkeypatch, order)
    memory = toy_memory(np.random.default_rng(0), seed=1)
    config = ddpg.TrainingConfig(batch_size=8, max_iterations=4, consistency_every=2)
    result = ddpg.train(memory, config)
    assert result.log.n_iterations == 4
    assert [name for name in TRAINING_STEP if not calls.get(name)] == []
    # the benchmark's ddpg.step_ms_* spans run from each ddpg.td_target to
    # the next ddpg.polyak_update, and nn.calls_per_iter counts nn spans:
    # without consistency checks an iteration is one such pair around 21
    # nn calls (6 infer or train passes, 2 cached infer passes, 4 backward
    # passes, 3 updates, 3 commits and 3 blends)
    calls.clear()
    order.clear()
    iterations = 9
    config = ddpg.TrainingConfig(batch_size=8, max_iterations=iterations,
                                 consistency_every=1000)
    assert ddpg.train(memory, config).log.n_iterations == iterations
    steps = [name for name in order
             if name in ("ddpg.td_target", "ddpg.polyak_update")]
    assert steps == ["ddpg.td_target", "ddpg.polyak_update"] * iterations
    per_iteration = {"nn.forward": 6, "nn.forward_cached": 2, "nn.backward": 4,
                     "nn.apply_update": 3, "nn.commit_running_stats": 3,
                     "nn.blend_params": 3}
    assert {name: count for name, count in calls.items() if name.startswith("nn.")} \
        == {name: count * iterations for name, count in per_iteration.items()}
    assert sum(per_iteration.values()) == 21


def test_traced_training_step_functions_are_called_in_lockstep(monkeypatch):
    calls = count_step_calls(monkeypatch)
    rng = np.random.default_rng(0)
    memories = [toy_memory(rng, seed) for seed in (1, 2)]
    config = ddpg.TrainingConfig(batch_size=8, max_iterations=4, consistency_every=2)
    results = ddpg.train_folds(memories, config)
    assert [result.log.n_iterations for result in results] == [4, 4]
    assert [name for name in TRAINING_STEP if not calls.get(name)] == []
    # one call per lockstep iteration, not one per fold
    assert calls["ddpg.critic_step"] == calls["ddpg.polyak_update"] == 4


def test_lockstep_iteration_calls_do_not_grow_with_folds(monkeypatch):
    # a per-fold loop in the training step would show here as more calls;
    # the calls are counted in this process, so every fold trains here
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    takes = []
    take = ddpg.TargetPair.take
    monkeypatch.setattr(ddpg.TargetPair, "take",
                        lambda self, index: takes.append(index) or take(self, index))
    calls = count_step_calls(monkeypatch)
    rng = np.random.default_rng(0)
    memories = [toy_memory(rng, seed) for seed in (1, 2, 3, 4)]
    # three iterations, all before the first consistency check
    config = ddpg.TrainingConfig(batch_size=8, max_iterations=3, consistency_every=10)
    ddpg.train_folds(memories[:1], config)
    alone = dict(calls)
    calls.clear()
    takes.clear()
    ddpg.train_folds(memories, config)
    assert calls == alone
    assert calls["nn.forward"] > 0
    # no fold stopped, so targets are only taken for the final results
    assert len(takes) == len(memories)


def test_tracer_counts_every_scored_decision_point(monkeypatch, tmp_path):
    # the benchmark's evaluation.decisions_scored sums the counter that the
    # tracer takes from each evaluate_patients result
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer(oxyrl)
    generated, out = tmp_path / "cohort", tmp_path / "loho"
    tracer.install("tiny")
    try:
        assert cli.main(["generate", "--out", str(generated), "--seed", "5",
                         "--n-patients", "60", "--horizon-hours", "48.0"]) == 0
        assert cli.main(["loho", "--out", str(out),
                         "--cohort", str(generated / "cohort.csv"),
                         "--schema", str(generated / "schema.txt"),
                         "--seed", "1", "--max-iterations", "4",
                         "--consistency-every", "2", "--n-bootstrap", "20"]) == 0
    finally:
        tracer.uninstall()
    counts = [span.count for span in tracer.spans
              if span.name == "evaluation.evaluate_patients"]
    folds = [name for name in os.listdir(out) if name.startswith("fold_")]
    assert len(counts) == len(folds) >= 2
    metrics = dict(line.split(",") for line
                   in (out / "pooled" / "metrics.csv").read_text().splitlines()[1:])
    assert sum(counts) == int(float(metrics["n_decision_points"])) > 0


def test_tracer_cohort_counters_count_patients(monkeypatch, tmp_path):
    # the benchmark's cohort.generate_s, cohort.load_rows_per_s and
    # cohort.resample_calls rest on these spans and counters
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer(oxyrl)
    generated = tmp_path / "cohort"
    tracer.install("tiny")
    try:
        assert cli.main(["generate", "--out", str(generated), "--seed", "3",
                         "--n-patients", "40", "--horizon-hours", "48.0"]) == 0
        assert cli.main(["loho", "--out", str(tmp_path / "loho"),
                         "--cohort", str(generated / "cohort.csv"),
                         "--schema", str(generated / "schema.txt"),
                         "--seed", "1", "--max-iterations", "2",
                         "--n-bootstrap", "10"]) == 0
    finally:
        tracer.uninstall()

    def counts(name):
        return [span.count for span in tracer.spans if span.name == name]
    assert counts("cohort.generate_synthetic_cohort") == [40]
    assert counts("cohort.load_cohort") == [40]
    assert len(counts("cohort.resample_trajectory")) == 40


FORKED_LOHO = """
import os, sys
from oxyrl import cli, parallel

parallel._usable_cpus = lambda: 2
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
out = sys.argv[1]
assert cli.main(["generate", "--out", out + "/cohort", "--seed", "5",
                 "--n-patients", "120", "--horizon-hours", "48.0"]) == 0
assert cli.main(["loho", "--out", out + "/loho", "--cohort", out + "/cohort/cohort.csv",
                 "--schema", out + "/cohort/schema.txt", "--seed", "1",
                 "--max-iterations", "4", "--n-bootstrap", "10"]) == 0
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    pass
print("forks", len(forks), "multiprocessing" in sys.modules)
"""


def test_forked_loho_leaves_no_child_and_never_imports_multiprocessing(tmp_path):
    # generate shards its patient ranges and loho its fold groups, each in
    # one forked worker here; multiprocessing alone would add about 1.3 MB
    # of RSS to the process
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    run = subprocess.run([sys.executable, "-c", FORKED_LOHO, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "forks 2 False"
    # stdout is a pipe, so generate's line sat in its buffer when loho forked:
    # a worker that flushed it on its way out would print it twice
    assert len(lines) == 3 and lines[0].startswith("wrote 120 patients")
    assert sorted(os.listdir(tmp_path / "loho")) == [
        "fold_H1", "fold_H2", "fold_H3", "fold_H4", "pooled"]
