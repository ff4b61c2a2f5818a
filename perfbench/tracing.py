"""Spans around calls from one ``specsource`` module into another.

``Tracer.install`` replaces chosen module attributes with timing wrappers
and ``Tracer.uninstall`` puts the originals back.  A wrapper records one
span per call: name, start, end, parent and a few attributes read from the
arguments (population size, trace length, chain length).  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _trace_m(args, kwargs):
    return {"m": int(np.atleast_2d(args[0]).shape[0])}


def _specific_chain(args, kwargs):
    settings = args[2]
    return {"k": int(np.atleast_2d(args[0]).shape[1]),
            "iterations": settings.iterations * settings.chains}


def _alternative_chain(args, kwargs):
    groups, settings = args[0], args[2]
    return {"n": len(groups), "k": int(np.atleast_2d(groups[0]).shape[1]),
            "iterations": settings.iterations * settings.chains}


def _design_n(args, kwargs):
    return {"n": args[1].n_sources}


def _draw_set(args, kwargs):
    return {"model": args[0].model, "draws": args[0].size}


def _draw_file(args, kwargs):
    return {"file": Path(args[0]).name}


#: (module, attribute) -> (span name, argument reader).  Each attribute is
#: the name a caller module looks up, so the wrapper sees every such call.
WRAPPED = {
    ("specsource.cli", "load_run_config"): ("config.load_run_config", None),
    ("specsource.cli", "load_dataset"): ("evidence.load_dataset", None),
    ("specsource.cli", "build_scenario"): ("evidence.build_scenario", None),
    ("specsource.cli", "validate_evidence"): ("evidence.validate_evidence", None),
    ("specsource.cli", "evaluate_scenario"): ("evaluate.evaluate_scenario", None),
    ("specsource.cli", "write_draws"): ("gibbs.write_draws", _draw_set),
    ("specsource.cli", "read_draws"): ("gibbs.read_draws", _draw_file),
    ("specsource.cli", "diagnostics_table"): ("cli.diagnostics_table", None),
    ("specsource.cli", "effective_sample_size"): ("gibbs.effective_sample_size", None),
    ("specsource.cli", "convergence_study"): ("simulate.convergence_study", None),
    ("specsource.simulate", "simulate_evidence"): ("simulate.simulate_evidence", _design_n),
    ("specsource.simulate", "evaluate_scenario"): ("evaluate.evaluate_scenario", None),
    ("specsource.evaluate", "gibbs_specific"): ("gibbs.gibbs_specific", _specific_chain),
    ("specsource.evaluate", "gibbs_alternative"): ("gibbs.gibbs_alternative", _alternative_chain),
    ("specsource.evaluate", "plugin_estimates"): ("evaluate.plugin_estimates", None),
    ("specsource.evaluate", "log_numerator"): ("evaluate.log_numerator", _trace_m),
    ("specsource.evaluate", "log_denominator_plugin"): (
        "evaluate.log_denominator_plugin", _trace_m),
    ("specsource.evaluate", "log_denominator_full"): (
        "evaluate.log_denominator_full", _trace_m),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Owns the span list and the wrappers installed into ``specsource``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def wrap(self, name: str, func, reader=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, **(reader(args, kwargs) if reader else {})):
                return func(*args, **kwargs)

        return traced

    def install(self) -> None:
        for (module_name, attr), (name, reader) in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, reader))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def select(self, name: str, under: str | None = None, **attrs) -> list[Span]:
        """Spans named ``name`` whose attributes match, optionally below ``under``."""
        out = []
        for span in self.spans:
            if span.name != name or any(span.attrs.get(k) != v for k, v in attrs.items()):
                continue
            if under is not None and not self.has_ancestor(span, under):
                continue
            out.append(span)
        return out

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self": s.self_time, **s.attrs}
            for s in self.spans
        ]
