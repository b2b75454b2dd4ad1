"""The benchmark's tracer (perfbench/tracing.py) wraps oxyrl functions by
module and name. A renamed or removed function would make every traced
benchmark run fail, so the names it lists are checked here."""

import importlib.util
import pathlib
import sys

import oxyrl

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
