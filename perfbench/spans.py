"""Span recorder for the traced run and the per-layer metrics derived from it.

The benchmark never edits the package: it wraps the public functions of
each ``bdsde_lab`` module from here, replacing every module attribute bound
to the original function, so calls between modules pass through a span.
Spans are kept in memory as (layer, name, start, end, parent) and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
import weakref

MIB = 1024.0 * 1024.0

# name -> unit of every per-layer metric, in the order they are reported
LAYER_METRICS = {
    "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "core.f_calls": "count", "core.f_points": "count",
    "core.g_calls": "count", "core.g_points": "count",
    "regularize.conv_calls": "count", "regularize.conv_points": "count",
    "regularize.conv_s": "s", "regularize.table_build_s": "s",
    "regularize.boundary_hits": "count",
    "envelope.compute_s": "s", "envelope.self_s": "s",
    "envelope.iterates": "count", "envelope.sandwich_s": "s",
    "envelope.sandwich_calls": "count",
    "fields.calls": "count", "fields.s": "s",
    "tree.solve_s": "s", "tree.solve_calls": "count",
    "tree.node_updates": "count", "tree.forward_s": "s",
    "tree.forward_calls": "count", "tree.forward_residual_s": "s",
    "tree.forward_mib": "MiB", "tree.residual_s": "s", "tree.dump_s": "s",
    "tree.dump_mib": "MiB", "tree.load_s": "s",
    "gluing.glue_s": "s", "gluing.glue_calls": "count", "gluing.self_s": "s",
    "gluing.assemble_s": "s", "gluing.continuum_s": "s",
    "gluing.retained_mib": "MiB", "gluing.distinct_ratio": "1",
    "lsmc.sample_s": "s", "lsmc.path_mib": "MiB", "lsmc.solve_s": "s",
    "lsmc.regressions": "count", "lsmc.max_cond": "1",
    "lsmc.ci_half_width": "1",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span list plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans = []          # (layer, name, start, end, parent index)
        self.counts = {}
        self._stack = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, layer: str, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        outside the span to record counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def wrap(self, layer, name, fn, after=None):
        return fn


# --------------------------------------------------------------------------
# instrumentation of the package
# --------------------------------------------------------------------------

def _rebind(orig, replacement) -> None:
    """Point every ``bdsde_lab`` module attribute bound to ``orig`` at
    ``replacement`` (covers ``from .x import f`` copies)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("bdsde_lab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _array_bytes(*roots) -> int:
    """Bytes of the distinct arrays reachable from ``roots`` through
    dataclasses, lists and tuples; views count their owner once."""
    import numpy as np

    seen, owners, total = set(), set(), 0
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if id(owner) not in owners:
                owners.add(id(owner))
                total += owner.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return total


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    import numpy as np

    from bdsde_lab import cli, envelope, fields, gluing, lsmc, regularize, tree

    add = tracer.add

    def wrap(module, attr, layer, after=None):
        orig = getattr(module, attr)
        _rebind(orig, tracer.wrap(layer, attr, orig, after))

    # core: the driver callables handed to the solvers
    def counted(part, which):
        def after(args, result):
            add(f"core.{which}_calls", 1)
            add(f"core.{which}_points", int(np.size(args[1])))
        return tracer.wrap("core", which, part, after)

    make_pair = cli.driver_pair

    def driver_pair(*args, **kwargs):
        spec = make_pair(*args, **kwargs)
        return dataclasses.replace(spec, f=counted(spec.f, "f"),
                                   g=counted(spec.g, "g"))

    cli.driver_pair = driver_pair

    # regularize: every convolution-operator evaluation; the first one of
    # each operator builds its table
    conv_call = regularize.ConvolvedPart.__call__
    clock = time.perf_counter
    built = weakref.WeakSet()

    def conv(self, t, y, z):
        first = self not in built
        hits = self.boundary_hits
        start = clock()
        out = conv_call(self, t, y, z)
        if first:
            built.add(self)
            add("regularize.table_build_s", clock() - start)
        add("regularize.conv_points", int(np.size(y)))
        add("regularize.boundary_hits", self.boundary_hits - hits)
        return out

    regularize.ConvolvedPart.__call__ = tracer.wrap("regularize", "conv", conv)

    # envelope
    wrap(envelope, "compute_envelope", "envelope", lambda a, r: add(
        "envelope.iterates",
        len(r.maximal.iterates) + len(r.minimal.iterates)))
    wrap(envelope, "sandwich_check", "envelope")

    # fields: the reductions over whole fields
    for name in ("sup_distance", "max_abs", "worst_excess", "nodewise_leq"):
        wrap(fields, name, "fields")

    # tree
    wrap(tree, "solve_tree", "tree", lambda a, r: add(
        "tree.node_updates", r.steps * 2 ** r.steps))
    wrap(tree, "solve_forward_swapped", "tree", lambda a, r: add(
        "tree.forward_mib", _array_bytes(r.ys, r.zt, r.dw_integrands,
                                         r.dependence) / MIB))
    wrap(tree, "forward_residual", "tree")
    wrap(tree, "save_tree_solution", "tree", lambda a, r: add(
        "tree.dump_mib", os.path.getsize(a[0]) / MIB))

    # gluing
    def continuum_after(args, report):
        m = len(report.records)
        add("gluing.retained_mib", _array_bytes(report) / MIB)
        add("gluing.distinct_ratio",
            report.distinct_pairs / (m * (m - 1) / 2) if m > 1 else 0.0)

    wrap(gluing, "continuum_sample", "gluing", continuum_after)
    wrap(gluing, "glue_solution", "gluing")
    wrap(gluing, "glue_deterministic", "gluing")
    gluing.GluedSolution.assembled_fields = tracer.wrap(
        "gluing", "assembled_fields", gluing.GluedSolution.assembled_fields)

    # lsmc
    wrap(lsmc, "sample_paths", "lsmc", lambda a, r: add(
        "lsmc.path_mib", (r.b_increments.nbytes + r.w_increments.nbytes) / MIB))

    def lsmc_after(args, sol):
        add("lsmc.regressions", 2 * sol.m_outer * sol.grid.steps)
        add("lsmc.max_cond", float(np.max(sol.cond_numbers)))
        add("lsmc.ci_half_width",
            lsmc.mc_diagnostics(sol)["inner_ci_half_width"])

    wrap(lsmc, "solve_lsmc", "lsmc", lsmc_after)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

# (metric, span names) summed over span durations / counted as calls
_DURATIONS = {
    "regularize.conv_s": ("conv",),
    "envelope.compute_s": ("compute_envelope",),
    "envelope.sandwich_s": ("sandwich_check",),
    "tree.solve_s": ("solve_tree",),
    "tree.forward_s": ("solve_forward_swapped",),
    "tree.forward_residual_s": ("forward_residual",),
    "tree.residual_s": ("tree_residual",),
    "tree.dump_s": ("save_tree_solution",),
    "tree.load_s": ("load_tree_solution",),
    "gluing.glue_s": ("glue_solution", "glue_deterministic"),
    "gluing.assemble_s": ("assembled_fields",),
    "gluing.continuum_s": ("continuum_sample",),
    "lsmc.sample_s": ("sample_paths",),
    "lsmc.solve_s": ("solve_lsmc",),
}
_CALLS = {
    "regularize.conv_calls": ("conv",),
    "envelope.sandwich_calls": ("sandwich_check",),
    "tree.solve_calls": ("solve_tree",),
    "tree.forward_calls": ("solve_forward_swapped",),
    "gluing.glue_calls": ("glue_solution", "glue_deterministic"),
}
# self time of every span of these (layer, name) selections
_SELF = {
    "cli.self_s": ("cli", None),
    "envelope.self_s": ("envelope", "compute_envelope"),
    "gluing.self_s": ("gluing", None),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the recorded spans and counts (zero for a
    layer the workload never reaches)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {key: 0.0 for key in LAYER_METRICS}
    by_name = {}
    for key, names in _DURATIONS.items():
        for n in names:
            by_name.setdefault(n, []).append((key, "s"))
    for key, names in _CALLS.items():
        for n in names:
            by_name.setdefault(n, []).append((key, "calls"))
    for idx, (layer, name, start, end, parent) in enumerate(spans):
        for key, kind in by_name.get(name, ()):
            out[key] += (end - start) if kind == "s" else 1
        for key, (want_layer, want_name) in _SELF.items():
            if layer == want_layer and want_name in (None, name):
                out[key] += (end - start) - child[idx]
        # outermost field reductions only: nodewise_leq calls worst_excess
        if layer == "fields" and (parent < 0 or spans[parent][0] != "fields"):
            out["fields.calls"] += 1
            out["fields.s"] += end - start
    for key, value in tracer.counts.items():
        if key in out:
            out[key] += value
    return out
