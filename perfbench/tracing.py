"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions of the ``oxyrl`` modules with
wrappers that record one span per call: name, start, end, the span that
caused it, and the run id of the traced pass. Spans stay in memory and are
written out once, when the pass ends. Nothing under ``src/`` is edited:
the wrappers are installed as module attributes, which is where the
program looks its callees up at call time, and removed again afterwards.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread, so direct children never overlap and
their sum is exactly the part of the interval they cover.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

# (module, function, counter) for every wrapped public function. The
# counter, when present, turns the call's return value into a work count
# recorded on the span (taken after the span's end time).
TRACED = {
    "cohort": (
        ("generate_synthetic_cohort", len),
        ("write_cohort_csv", None),
        ("write_schema", None),
        ("write_generator_config", None),
        ("read_schema", None),
        ("load_cohort", len),
        ("compute_feature_stats", None),
        ("apply_feature_stats", None),
        ("resample_trajectory", None),
        ("build_transitions", len),
        ("split_by_hospital", None),
    ),
    "nn": (
        ("forward", None),
        ("forward_cached", None),
        ("backward", None),
        ("apply_update", None),
        ("commit_running_stats", None),
        ("blend_params", None),
    ),
    "ddpg": (
        ("train", lambda result: result.log.n_iterations),
        ("td_target", None),
        ("critic_step", None),
        ("actor_step", None),
        ("polyak_update", None),
        ("consistency_metric", None),
        ("save_policy", None),
        ("load_policy", None),
        ("write_training_log", None),
    ),
    "survival": (
        ("grid_search", None),
        ("fit_cox", lambda model: int(model.converged)),
        ("partial_loglik", None),
        ("breslow_baseline", None),
        ("concordance_index", None),
        ("prune_correlated", None),
        ("save_cox_model", None),
        ("write_grid_report", None),
    ),
    "evaluation": (
        ("loho_cross_validate", None),
        ("run_fold", None),
        ("fit_outcome_model", None),
        ("evaluate_patients",
         lambda fold: sum(len(p.logged_flows) for p in fold.patients)),
        ("build_report", None),
        ("write_report_files", None),
    ),
    "figures": (
        ("render_curve", None),
        ("render_histogram", None),
    ),
    "cli": (
        ("main", None),
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the causing span, -1 for a root
    run_id: str
    count: int = 0   # work count from the span's counter, if it has one


class Tracer:
    """Installs wrappers on the program's modules and collects spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        for module_name, entries in TRACED.items():
            module = getattr(self.package, module_name)
            for func_name, counter in entries:
                original = getattr(module, func_name)
                self._originals.append((module, func_name, original))
                setattr(module, func_name,
                        self._wrap(original, f"{module_name}.{func_name}", counter))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._originals):
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, original, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.count = counter(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def flush(self, path) -> None:
        """Write the spans of the last pass as CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "start", "end", "parent", "run_id", "count"))
            for s in self.spans:
                writer.writerow((s.name, repr(s.start), repr(s.end), s.parent,
                                 s.run_id, s.count))


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def under(spans: list[Span], ancestor: str) -> list[bool]:
    """For each span, whether some span above it is named `ancestor`.
    Parents always precede their children in the list."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            flags[i] = flags[s.parent] or p.name == ancestor
    return flags
