"""In-memory span tracer and the wrappers that attach it to birkdag.

Spans are recorded from outside the program: for the length of one traced
pass, each wrapper replaces a module attribute and times the call into the
original function.  Nothing under ``src/`` is edited.

Where each name is wrapped
--------------------------
``from m import f`` copies the binding into the importing module, so a
name is wrapped in the module where its *caller* looks it up:

* ``birkdag.pipeline`` imports ``estimate_permutation``,
  ``estimate_cholesky``, ``convexity_thresholds``, ``penalized_score``,
  ``neg_log_likelihood``, ``ebic`` and ``sample_covariance`` by name, and
  ``tune`` finds ``fit`` in the same module globals;
* ``birkdag.metrics`` imports ``fit``, ``tune``, ``generate_dag`` and
  ``sample_data`` by name; ``run_benchmark`` finds the private
  ``_run_replicate`` there, which is wrapped as the op root of a replicate;
* ``gradient_projection`` finds ``project_to_birkhoff``,
  ``relaxed_objective`` and ``relaxed_gradient``, and
  ``estimate_permutation`` finds ``gradient_projection``,
  ``sample_permutations``, ``round_hungarian`` and ``trace_objective``, in
  the globals of ``birkdag.birkhoff``;
* ``penalized_score`` finds ``neg_log_likelihood`` in ``birkdag.scoring``;
* the ``benchmark`` subcommand imports ``run_benchmark`` and
  ``benchmark_csv`` from ``birkdag.metrics`` when it runs, so the patched
  attributes are the ones it gets;
* the benchmark's own calls go through the module attribute
  (``birkhoff.project_to_birkhoff``, ``solver.estimate_cholesky``,
  ``scoring.neg_log_likelihood``, ``scoring.ebic``, ``cli.main``).

One wrapper serves every module a function is patched into (the key is the
original function object), so a call is recorded once however it is
reached.

Threads
-------
``birkdag --threads N`` runs replicates on worker threads.  Each thread
keeps its own span stack in a ``threading.local``; finished spans go into
one list under a lock.  All counters are derived from the span list after
the pass, so no shared counter is ever updated from two threads.

Self time
---------
A span's self time is its duration minus the durations of its direct
children on the same thread.  Every span inside an op belongs to exactly
one layer metric below, and the op root's own self time is
``other.self_s``, so the layer self times plus ``other.self_s`` add up to
the op wall time exactly.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float
    end: float
    self_s: float
    attrs: dict | None


@dataclass(slots=True)
class _Frame:
    id: int
    op: int | None
    child_s: float = 0.0


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, *, op_root=False, attrs=None, cpu=False):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        op = sid if op_root else (parent.op if parent else None)
        frame = _Frame(sid, op)
        stack.append(frame)
        cpu0 = os.times() if cpu else None
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent.child_s += dur
            extra = attrs(args, kwargs, result) if (attrs and result is not None) else {}
            if cpu:
                cpu1 = os.times()
                extra["cpu_s"] = sum(cpu1[:4]) - sum(cpu0[:4])
            span = Span(sid, name, parent.id if parent else None, op, threading.get_ident(),
                        t0, t1, dur - frame.child_s, extra or None)
            with self._lock:
                self.spans.append(span)

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op as an op root span named ``op``."""
        return self.call("op", fn, args, kwargs, op_root=True)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _project_attrs(args, kwargs, r):
    return {"iters": int(r.n_iter), "nonconverged": int(not r.converged)}


def _gp_attrs(args, kwargs, r):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"iters": int(r.n_iter), "capped": int(not r.converged and r.n_iter >= cfg.k_max)}


def _order_attrs(args, kwargs, r):
    inc = kwargs.get("incumbent", args[5] if len(args) > 5 else None)
    return {"changed": int(inc is not None and not np.array_equal(r.perm.pi, inc.pi))}


def _lstep_attrs(args, kwargs, r):
    return {"sweeps": int(r.sweeps.sum()), "max_row_sweeps": int(r.sweeps.max()),
            "unconverged_rows": int((~r.converged).sum())}


def _fit_attrs(args, kwargs, r):
    return {"outer_iters": int(r.diagnostics["n_outer"])}


def _tune_attrs(args, kwargs, r):
    return {"cells": len(r[1])}


# (module, attribute, span name, options).  Span names map to layers in LAYER_OF.
WRAPS = (
    ("birkhoff", "project_to_birkhoff", "birkhoff.project", {"attrs": _project_attrs}),
    ("birkhoff", "gradient_projection", "birkhoff.gp", {"attrs": _gp_attrs}),
    ("birkhoff", "relaxed_objective", "birkhoff.objgrad", {}),
    ("birkhoff", "relaxed_gradient", "birkhoff.objgrad", {}),
    ("birkhoff", "sample_permutations", "birkhoff.round", {}),
    ("birkhoff", "round_hungarian", "birkhoff.round", {}),
    ("birkhoff", "trace_objective", "birkhoff.round.candidate", {}),
    ("pipeline", "estimate_permutation", "birkhoff.order", {"attrs": _order_attrs}),
    ("pipeline", "convexity_thresholds", "pipeline.thresholds", {}),
    ("pipeline", "estimate_cholesky", "solver.lstep", {"attrs": _lstep_attrs}),
    ("solver", "estimate_cholesky", "solver.lstep", {"attrs": _lstep_attrs}),
    ("pipeline", "penalized_score", "scoring", {}),
    ("pipeline", "neg_log_likelihood", "scoring", {}),
    ("pipeline", "ebic", "scoring", {}),
    ("scoring", "neg_log_likelihood", "scoring", {}),
    ("scoring", "ebic", "scoring", {}),
    ("pipeline", "sample_covariance", "sem.covariance", {}),
    ("pipeline", "fit", "pipeline.fit", {"attrs": _fit_attrs}),
    ("metrics", "fit", "pipeline.fit", {"attrs": _fit_attrs}),
    ("metrics", "tune", "pipeline.tune", {"attrs": _tune_attrs}),
    ("metrics", "generate_dag", "sem.generate", {}),
    ("metrics", "sample_data", "sem.generate", {}),
    ("metrics", "_run_replicate", "metrics.replicate", {"op_root": True}),
    ("metrics", "run_benchmark", "cli", {}),
    ("metrics", "benchmark_csv", "cli", {}),
    ("cli", "main", "cli.main", {"cpu": True}),
)

# Span name -> the per-layer metric its self time is added to.
LAYER_OF = {
    "birkhoff.project": "birkhoff.project.busy_s",
    "birkhoff.objgrad": "birkhoff.objgrad.busy_s",
    "birkhoff.gp": "birkhoff.gp.self_s",
    "birkhoff.order": "birkhoff.round.busy_s",
    "birkhoff.round": "birkhoff.round.busy_s",
    "birkhoff.round.candidate": "birkhoff.round.busy_s",
    "solver.lstep": "solver.lstep.busy_s",
    "pipeline.fit": "pipeline.fit.self_s",
    "pipeline.tune": "pipeline.fit.self_s",
    "pipeline.thresholds": "pipeline.thresholds.busy_s",
    "scoring": "scoring.busy_s",
    "sem.generate": "sem.generate.busy_s",
    "sem.covariance": "sem.covariance.busy_s",
    "op": "other.self_s",
    "metrics.replicate": "other.self_s",
}
SELF_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))

# Per-pass counts that repeat exactly for a given commit, workload and seed.
COUNT_METRICS = (
    "birkhoff.project.calls", "birkhoff.project.iters", "birkhoff.project.nonconverged",
    "birkhoff.gp.calls", "birkhoff.gp.iters", "birkhoff.gp.capped",
    "birkhoff.objgrad.calls", "birkhoff.round.candidates",
    "birkhoff.order.steps", "birkhoff.order.changed",
    "solver.lstep.calls", "solver.lstep.sweeps", "solver.lstep.max_row_sweeps",
    "solver.lstep.unconverged_rows",
    "pipeline.fit.calls", "pipeline.fit.outer_iters", "pipeline.tune.cells",
    "trace.ops", "trace.spans",
)


class installed:
    """Context manager that patches the WRAPS entries to record into a tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        by_original = {}
        for mod_name, attr, span_name, opts in WRAPS:
            mod = importlib.import_module(f"birkdag.{mod_name}")
            original = getattr(mod, attr)
            wrapper = by_original.get(id(original))
            if wrapper is None:
                wrapper = _make_wrapper(self.tracer, span_name, original, opts)
                by_original[id(original)] = wrapper
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


def _make_wrapper(tracer, name, fn, opts):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, **opts)

    wrapper.__wrapped__ = fn
    return wrapper


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def pass_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass.

    ``trace.self_sum_s``, the layer self times plus ``other.self_s``, equals
    ``trace.op_wall_s`` up to float round-off unless a span inside an op
    was left out of the breakdown.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(n):
        return by_name.get(n, [])

    def attr_sum(n, key):
        return sum(s.attrs[key] for s in named(n) if s.attrs)

    m = {k: 0.0 for k in SELF_METRICS}
    for s in spans:
        if s.op is not None and s.name in LAYER_OF:
            m[LAYER_OF[s.name]] += s.self_s

    roots = [s for s in spans if s.op == s.id]
    m["trace.op_wall_s"] = sum(s.end - s.start for s in roots)
    m["trace.self_sum_s"] = sum(m[k] for k in SELF_METRICS)

    project = named("birkhoff.project")
    m["birkhoff.project.calls"] = len(project)
    m["birkhoff.project.iters"] = attr_sum("birkhoff.project", "iters")
    m["birkhoff.project.nonconverged"] = attr_sum("birkhoff.project", "nonconverged")
    m["birkhoff.project.us_per_iter"] = (
        1e6 * m["birkhoff.project.busy_s"] / m["birkhoff.project.iters"]
        if m["birkhoff.project.iters"] else 0.0
    )
    m["birkhoff.gp.calls"] = len(named("birkhoff.gp"))
    m["birkhoff.gp.iters"] = attr_sum("birkhoff.gp", "iters")
    m["birkhoff.gp.capped"] = attr_sum("birkhoff.gp", "capped")
    m["birkhoff.objgrad.calls"] = len(named("birkhoff.objgrad"))
    m["birkhoff.round.candidates"] = len(named("birkhoff.round.candidate"))
    m["birkhoff.order.steps"] = len(named("birkhoff.order"))
    m["birkhoff.order.changed"] = attr_sum("birkhoff.order", "changed")
    m["solver.lstep.calls"] = len(named("solver.lstep"))
    m["solver.lstep.sweeps"] = attr_sum("solver.lstep", "sweeps")
    m["solver.lstep.max_row_sweeps"] = max(
        (s.attrs["max_row_sweeps"] for s in named("solver.lstep") if s.attrs), default=0)
    m["solver.lstep.unconverged_rows"] = attr_sum("solver.lstep", "unconverged_rows")
    m["pipeline.fit.calls"] = len(named("pipeline.fit"))
    m["pipeline.fit.outer_iters"] = attr_sum("pipeline.fit", "outer_iters")
    m["pipeline.tune.cells"] = attr_sum("pipeline.tune", "cells")

    commands = named("cli.main")
    cmd_wall = sum(s.end - s.start for s in commands)
    replicates = named("metrics.replicate")
    m["metrics.replicate.overlap"] = (
        sum(s.end - s.start for s in replicates) / cmd_wall if cmd_wall else 0.0
    )
    m["cli.cpu_per_wall"] = attr_sum("cli.main", "cpu_s") / cmd_wall if cmd_wall else 0.0
    # command time during which no replicate was running, on any thread
    m["cli.self_s"] = sum(
        (c.end - c.start) - _union_length(
            (max(r.start, c.start), min(r.end, c.end))
            for r in replicates if r.end > c.start and r.start < c.end)
        for c in commands
    )
    m["trace.ops"] = len(roots)
    m["trace.spans"] = len(spans)
    return m


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median over passes for times; counts must agree between passes.

    Returns the combined metrics and a list of count mismatches.
    """
    combined = {}
    mismatches = []
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                mismatches.append(f"{key} differs between traced passes: {values}")
            combined[key] = values[0]
        else:
            combined[key] = statistics.median(values)
    return combined, mismatches


def write_spans(path, passes: list[list[Span]]):
    """Write spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt") as fh:
        for index, spans in enumerate(passes):
            t0 = min((s.start for s in spans), default=0.0)
            for s in spans:
                fh.write(json.dumps({
                    "pass": index, "id": s.id, "name": s.name, "parent": s.parent,
                    "op": s.op, "thread": s.thread, "start": s.start - t0,
                    "end": s.end - t0, "self_s": s.self_s, "attrs": s.attrs,
                }) + "\n")

