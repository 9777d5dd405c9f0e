"""In-memory span recorder for the traced benchmark run.

Wraps public cdexchange functions at the module attributes their callers
look up, so every call through the CLI (or a direct call through the
module) becomes a span: name, start, end, parent.  Spans stay in memory;
the caller writes them out when the run ends.

The wrapped call sites all run on the caller's thread (the ensemble's
worker threads never reach a wrapped attribute), so one parent stack is
enough.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  The span name carries the layer that
# owns the code, which is not always the module the attribute sits in.
TARGETS = (
    ("cdexchange.cli", "load_config", "cli.load_config"),
    ("cdexchange.cli", "run_ensemble", "simulate.run_ensemble"),
    ("cdexchange.cli", "convergence_report", "stats.convergence_report"),
    ("cdexchange.cli", "doeblin_report", "bounds.doeblin_report"),
    ("cdexchange.stats", "marginal_ks", "stats.marginal_ks"),
    ("cdexchange.stats", "binned_tv", "stats.binned_tv"),
    ("cdexchange.stats", "moment_z_scores", "stats.moment_z_scores"),
    ("cdexchange.stats", "sample_dirichlet", "economy.sample_dirichlet"),
    ("cdexchange.bounds", "density_ratio_floor", "bounds.density_ratio_floor"),
    ("cdexchange.bounds", "gamma_ratio_floor", "bounds.gamma_ratio_floor"),
    ("cdexchange.bounds", "optimize_rate", "bounds.optimize_rate"),
    ("cdexchange.bounds", "minorization_coefficients", "bounds.minorization_coefficients"),
)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in ``TARGETS`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def summarize(spans):
    """Per span name: calls, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(s["id"], 0.0)
    return out


def layer_self_times(summary):
    """Self seconds per layer (the span-name prefix before the first dot)."""
    layers = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers
