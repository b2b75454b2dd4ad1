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
import sys

import numpy as np

import oxyrl
from oxyrl import cli, ddpg

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


def count_step_calls(monkeypatch):
    """Wrap every `nn` and `ddpg` entry of the tracer's list the way the
    tracer does; returns the per-name call counts."""
    tracing = load_tracing(monkeypatch)
    calls = {}

    def counted(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
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
    return ddpg.ReplayMemory(states, rng.uniform(0, 60, 40), np.zeros(40),
                             states[::-1].copy(), rng.random(40) < 0.2, seed=seed)


def test_traced_training_step_functions_are_called(monkeypatch):
    # the tracer swaps module attributes, so a step function the program
    # reaches some other way would silently read 0 in the per-layer metrics
    calls = count_step_calls(monkeypatch)
    memory = toy_memory(np.random.default_rng(0), seed=1)
    config = ddpg.TrainingConfig(batch_size=8, max_iterations=4, consistency_every=2)
    result = ddpg.train(memory, config)
    assert result.log.n_iterations == 4
    assert [name for name in TRAINING_STEP if not calls.get(name)] == []


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
    # a per-fold loop in the training step would show here as more calls
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
