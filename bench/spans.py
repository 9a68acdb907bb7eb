"""Per-layer timing from outside the program.

`Tracer.install` wraps public functions and methods of the arfkit modules
(listed in LAYERS) so that each call records a span: layer name, start,
end, parent span and operation id.  Nothing is wrapped unless a traced run
asks for it, so untraced runs execute the program unmodified.

A call made while a span of the same layer is already open (recursion, or
`Subspace.extended` building an empty `Subspace`) belongs to the outer span
and records nothing, so `calls` counts outermost calls of a layer.  Self
time is a span's duration minus the time covered by its direct child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (layer, module, attribute); an attribute "Class.method" wraps a method.
LAYERS = [
    ("fp.build", "arfkit.fp", "Subspace.__init__"),
    ("fp.build", "arfkit.fp", "Subspace.extended"),
    ("fp.kernel", "arfkit.fp", "kernel_basis"),
    ("fp.kernel", "arfkit.fp", "solve"),
    ("fp.reduce", "arfkit.fp", "Subspace.reduce"),
    ("groups.same_class", "arfkit.groups.classes", "same_class"),
    ("groups.conj_witness", "arfkit.groups.classes", "conj_witness"),
    ("groups.power_conj_search", "arfkit.groups.classes", "power_conj_search"),
    ("groups.cl_partition", "arfkit.groups.classes", "cl_partition_finite"),
    ("groups.centralizer", "arfkit.groups.structure", "centralizer"),
    ("groups.centralizer", "arfkit.groups.structure", "extended_centralizer"),
    ("homology.hq1", "arfkit.homology.chains", "hq1"),
    ("homology.coker", "arfkit.homology.operations", "CokerOnePlusVartheta.__init__"),
    ("upsilon.lc_build", "arfkit.upsilon", "FiniteLc.__init__"),
    ("upsilon.lc_build", "arfkit.upsilon", "SemidirectLc.__init__"),
    ("upsilon.lc_build", "arfkit.upsilon", "PullbackLc.__init__"),
    ("upsilon.eval", "arfkit.upsilon", "upsilon_eval"),
    ("upsilon.eta", "arfkit.upsilon", "SigmaSummand.eta"),
    ("kinv.omega", "arfkit.kinv", "omega"),
    ("kinv.omega1", "arfkit.kinv", "omega1"),
    ("k2diff.total_invariant", "arfkit.k2diff", "total_invariant"),
    ("arf.apply_step", "arfkit.arf", "apply_step"),
    ("cli.scenario", "arfkit.cli", "run_scenario"),
]

# Each layer reports `<layer>_calls`, `<layer>_s` (total time) and
# `<layer>_self_s`; these layers name their count after what they build.
COUNT_METRIC = {"homology.hq1": "homology.hq1_builds",
                "homology.coker": "homology.coker_builds",
                "upsilon.lc_build": "upsilon.lc_builds"}


def layer_metrics(layer):
    """(count, total time, self time) metric names of a layer."""
    return (COUNT_METRIC.get(layer, f"{layer}_calls"), f"{layer}_s", f"{layer}_self_s")


# Rows handed to F_p elimination: the `rows` argument of Subspace(...) and
# of Subspace.extended(...).
ROWS_METRIC = "fp.build_rows"
ROWS_ARG = {"Subspace.__init__": 3, "Subspace.extended": 1}   # position, self = 0
TRACED_OPS_METRIC = "trace.ops_per_s"

# Spans kept for the trace file; aggregates count every span regardless.
MAX_STORED_SPANS = 500_000


def metric_units():
    """Every per-layer metric name with its unit."""
    out = {}
    for layer in sorted({layer for layer, _, _ in LAYERS}):
        count, total, self_ = layer_metrics(layer)
        out[count] = "count"
        out[total] = "s"
        out[self_] = "s"
    out[ROWS_METRIC] = "count"
    out[TRACED_OPS_METRIC] = "1/s"
    return out


class Tracer:
    def __init__(self):
        self.layers = sorted({layer for layer, _, _ in LAYERS})
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        n = len(self.layers)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.rows = 0
        self.open_depth = [0] * n
        self.stack = []          # open frames: [layer id, span index, child time]
        self.op_id = -1          # -1 while setting up
        self.span_count = 0
        self.s_layer = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.origin = time.perf_counter()
        self._restore = []

    # -- aggregates ----------------------------------------------------------

    def snapshot(self):
        """Every per-layer metric, as accumulated so far (the traced-ops
        metric is left to the caller)."""
        out = {}
        for i, name in enumerate(self.layers):
            count, total, self_ = layer_metrics(name)
            out[count] = self.calls[i]
            out[total] = self.total[i]
            out[self_] = self.self_time[i]
        out[ROWS_METRIC] = self.rows
        return out

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn, rows_pos):
        lid = self.layer_id[layer]
        depth = self.open_depth
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[lid]:
                return fn(*args, **kwargs)
            if rows_pos is not None:
                args, kwargs = _count_rows(self, rows_pos, args, kwargs)
            depth[lid] += 1
            parent = stack[-1][1] if stack else -1
            idx = self.span_count
            self.span_count += 1
            frame = [lid, idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[lid] -= 1
                dur = t1 - t0
                self.calls[lid] += 1
                self.total[lid] += dur
                self.self_time[lid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if idx < MAX_STORED_SPANS:
                    self.s_layer.append(lid)
                    self.s_start.append(t0 - self.origin)
                    self.s_end.append(t1 - self.origin)
                    self.s_parent.append(parent if parent < MAX_STORED_SPANS else -1)
                    self.s_op.append(self.op_id)

        return wrapper

    def install(self):
        """Wrap every LAYERS entry, in every arfkit module that binds it."""
        missing = []
        for layer, modname, attr in LAYERS:
            mod = importlib.import_module(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = owner.__dict__.get(name) if owner_name else getattr(mod, name, None)
            if fn is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(layer, fn, ROWS_ARG.get(attr))
            if owner_name:
                self._restore.append((owner, name, fn))
                setattr(owner, name, wrapped)
                continue
            # module-level function: rebind it wherever an arfkit module
            # imported it by name (e.g. `from .chains import hq1`)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("arfkit") and \
                        m.__dict__.get(name) is fn:
                    self._restore.append((m, name, fn))
                    setattr(m, name, wrapped)
        if missing:
            print("trace: not found, reported as 0: " + ", ".join(missing),
                  file=sys.stderr)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore = []

    def write(self, path, meta):
        stored = len(self.s_layer)
        data = {
            "meta": meta,
            "layers": self.layers,
            "spans_recorded": self.span_count,
            "spans_stored": stored,
            "columns": ["layer", "start_s", "end_s", "parent", "op"],
            "spans": {
                "layer": self.s_layer.tolist(),
                "start_s": [round(x, 7) for x in self.s_start],
                "end_s": [round(x, 7) for x in self.s_end],
                "parent": self.s_parent.tolist(),
                "op": self.s_op.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def _count_rows(tracer, pos, args, kwargs):
    """Add the length of the `rows` argument to the tracer, turning it into
    a list first; the callee iterates it once either way."""
    if len(args) > pos:
        args = list(args)
        args[pos] = list(args[pos])
        tracer.rows += len(args[pos])
    elif "rows" in kwargs:
        kwargs["rows"] = list(kwargs["rows"])
        tracer.rows += len(kwargs["rows"])
    return args, kwargs
