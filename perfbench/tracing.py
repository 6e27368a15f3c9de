"""Spans recorded from outside rankcal.

Wrappers are installed at the module attributes that rankcal's own
callers resolve at call time (``rankcal.pipeline.estimate_row`` is the
name ``calibrate`` looks up, ``rankcal.ranking.build_half_spaces`` the
one ``estimate_row`` looks up), so no file of the program changes.
Spans (name, start, end, parent) stay in memory; the caller writes them
out when the run ends. A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    children_s: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s

    def as_record(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "error": self.error, "counts": self.counts}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(array) -> int:
    return int(array.reshape(-1, 3).shape[0]) if hasattr(array, "reshape") else len(array)


# (module, attribute, span name, counter). A counter maps (args, kwargs,
# result) to the counts stored on the span. A function reachable under
# several names is wrapped under each name its callers use.
TARGETS = (
    ("rankcal", "make_corpus", "simulate.make_corpus", None),
    ("rankcal", "save_corpus", "dataset.save_corpus",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "pairs"))}),
    ("rankcal", "load_corpus", "dataset.load_corpus", lambda a, k, r: {"rows": len(r)}),
    ("rankcal.cli", "load_corpus", "dataset.load_corpus", lambda a, k, r: {"rows": len(r)}),
    ("rankcal", "select_subset", "dataset.select_subset", None),
    ("rankcal", "calibrate", "pipeline.calibrate", None),
    ("rankcal.pipeline", "sample_sphere", "ranking.sample_sphere",
     lambda a, k, r: {"scored": r.count // 2 if r.antipodal else r.count}),
    ("rankcal.pipeline", "estimate_row", "ranking.estimate_row", None),
    ("rankcal.ranking", "build_half_spaces", "ranking.build_half_spaces",
     lambda a, k, r: {"constraints": len(r)}),
    ("rankcal.ranking", "monotonicity_score", "ranking.monotonicity_score",
     lambda a, k, r: {"points": int((~_arg(a, k, 0, "pairs").saturated).sum())}),
    ("rankcal.pipeline", "rescale_achromatic", "ranking.rescale_achromatic", None),
    ("rankcal.tonefit", "fit_monotone", "tonefit.fit_monotone", None),
    ("rankcal.tonefit", "solve_qp", "qp.solve_qp", lambda a, k, r: {"iterations": r.iterations}),
    ("rankcal.gamut", "solve_qp", "qp.solve_qp", lambda a, k, r: {"iterations": r.iterations}),
    ("rankcal.pipeline", "fit_lattice", "gamut.fit_lattice",
     lambda a, k, r: {"samples": _rows(_arg(a, k, 0, "inputs"))}),
    ("rankcal.pipeline", "apply_lattice", "gamut.apply_lattice",
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "v"))}),
    ("rankcal", "serialize_model", "modelfile.serialize_model", None),
    ("rankcal", "deserialize_model", "modelfile.deserialize_model",
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode("utf-8"))}),
    ("rankcal.cli", "deserialize_model", "modelfile.deserialize_model",
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode("utf-8"))}),
    ("rankcal", "map_forward", "pipeline.map_forward", None),
    ("rankcal", "map_backward", "pipeline.map_backward", None),
    ("rankcal.cli", "map_forward", "pipeline.map_forward", None),
    ("rankcal.cli", "map_backward", "pipeline.map_backward", None),
    ("rankcal.cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.seconds

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    def progress(self, stage: str, seconds: float) -> None:
        """``calibrate``'s progress callback: stage times go on the open span."""
        self.spans[self._stack[-1]].counts[f"stage.{stage}"] = seconds

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].error = type(exc).__name__
                raise
            finally:
                self._end(index)
            if counter is not None:
                self.spans[index].counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Install wrappers for the block and restore the originals after it."""
        try:
            for module_name, attr, name, counter in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name, counter))
                self._installed.append((module, attr, original))
            yield self
        finally:
            while self._installed:
                module, attr, original = self._installed.pop()
                setattr(module, attr, original)


def wrappers_present(targets=TARGETS) -> list[str]:
    """Names in ``targets`` that still resolve to a tracing wrapper."""
    return [
        f"{module_name}.{attr}" for module_name, attr, _, _ in targets
        if getattr(getattr(importlib.import_module(module_name), attr),
                   "__wrapped_by_perfbench__", False)
    ]


def span_cost_seconds(calls: int = 20000) -> float:
    """Measured cost that one installed wrapper adds to one call."""
    def bare():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(bare, "probe", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
