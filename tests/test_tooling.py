"""Names that code outside the package looks up on it. The benchmark's
tracer (perfbench/tracing.py) wraps oxyrl functions by module and name, and
the demos call the package's modules by attribute; a renamed or removed
name would break either silently, so both sets are checked here."""

import ast
import importlib.util
import pathlib
import sys

import oxyrl

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = ("cohort", "ddpg", "evaluation", "survival", "nn", "figures")


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
