"""Traced pass: spans around every public function of the vortexcage layers.

Run as a child process:

    python3 benchmarks/tracing.py SPANS.json -- [vortexcage CLI arguments]

It wraps the public functions and public methods of each layer module
(``LAYERS``) from outside the package, rebinds every module-level name that
refers to a wrapped function (``config.build_grid`` as well as
``numerics.build_grid``), calls ``cli.main`` in-process with the given
arguments and writes the spans and counters to SPANS.json when the run ends.

The parent reduces that file to the per-layer metrics with ``layer_metrics``.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("config", "numerics", "structure", "beam", "coupling", "dynamics",
          "observables", "cli")

# Per-layer metrics reported by the traced run: name -> unit.  The last
# component says how a metric is measured: ``calls`` counts calls, ``s`` is
# self time (duration minus the time child spans cover) summed over calls,
# ``incl_s`` inclusive time, ``share``/``incl_share`` self/inclusive time as
# a fraction of the command's inclusive time.  Functions that only some
# workloads call report shares, so no time metric reads a constant 0.
METRICS = {
    "config.resolve.s": "s",
    "numerics.build_grid.calls": "count",
    "numerics.build_grid.s": "s",
    "numerics.grid_points": "count",
    "structure.orbital_tables.calls": "count",
    "structure.orbital_tables.s": "s",
    "structure.orbital_tables.in_current_samples.s": "s",
    "structure.orbital_tables.in_transition_set.s": "s",
    "structure.orbital_tables.orbital_points": "count",
    "structure.orbital_tables.distinct_ratio": "ratio",
    "structure.orbital_tables.out_mb": "MB",
    "beam.spatial_amplitude.calls": "count",
    "beam.spatial_amplitude.s": "s",
    "coupling.build_transition_set.calls": "count",
    "coupling.build_transition_set.s": "s",
    "coupling.build_transition_set.incl_s": "s",
    "coupling.interaction_matrix.calls": "count",
    "coupling.interaction_matrix.s": "s",
    "coupling.matrix_elements": "count",
    "coupling.pruned": "count",
    "dynamics.excite.calls": "count",
    "dynamics.excite.s": "s",
    "dynamics.breakdown_points": "count",
    "dynamics.propagate_oracle.calls": "count",
    "dynamics.propagate_oracle.share": "fraction",
    "observables.current_samples.calls": "count",
    "observables.current_samples.s": "s",
    "observables.current_samples.incl_s": "s",
    "observables.magnetics.calls": "count",
    "observables.magnetics.share": "fraction",
    "observables.cylindrical_decomposition.share": "fraction",
    "observables.sample_current_plane.incl_share": "fraction",
    "observables.write_plane.share": "fraction",
    "observables.write_plane.bytes": "bytes",
    "cli.write_csv.share": "fraction",
    "cli.write_csv.bytes": "bytes",
    "cli.command.incl_s": "s",
    "cli.pool_utilisation": "fraction",
}

# Span names behind a metric prefix, where they differ from the prefix.
_SPANS = {
    "config.resolve": ("config.RunConfig.resolve",),
    "beam.spatial_amplitude": ("beam.VortexPulse.spatial_amplitude",),
    "cli.write_csv": ("cli.ScanResult.write_csv", "cli.ScanResult.write_long"),
}
# Self time of a span name restricted to calls under an ancestor span.
_UNDER = {
    "structure.orbital_tables.in_current_samples":
        ("structure.orbital_tables", "observables.current_samples"),
    "structure.orbital_tables.in_transition_set":
        ("structure.orbital_tables", "coupling.build_transition_set"),
}
# Metrics that are counters recorded by the probes below.
_COUNTED = ("numerics.grid_points", "structure.orbital_tables.orbital_points",
            "coupling.matrix_elements", "coupling.pruned",
            "dynamics.breakdown_points", "observables.write_plane.bytes",
            "cli.write_csv.bytes")
_COMMAND_PREFIX = "cli.cmd_"


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans = []          # [id, name, start_ns, end_ns, parent, thread]
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen = set()

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def first_seen(self, key):
        """True the first time ``key`` is passed."""
        with self._lock:
            new = key not in self._seen
            self._seen.add(key)
        return new

    def wrap(self, name, func):
        probe = _PROBES.get(name)
        signature = inspect.signature(func) if probe is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            post = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                post = probe(self, bound)
                args, kwargs = bound.args, bound.kwargs
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append([span_id, name, start, end, parent,
                                   threading.get_ident()])
            if post is not None:
                post(result)
            return result

        return traced


def instrument(tracer, package="vortexcage"):
    """Wrap the public functions and methods of every layer module."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = tracer.wrap(f"{layer}.{attr}", obj)
                replaced[obj] = wrapper
                setattr(mod, attr, wrapper)
            elif inspect.isclass(obj):
                _instrument_class(tracer, f"{layer}.{attr}", obj)
    # rebind the names callers look up (``from .numerics import build_grid``)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _instrument_class(tracer, prefix, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries
# ---------------------------------------------------------------------------

def _probe_grid(tracer, bound):
    return lambda grid: tracer.add("numerics.grid_points", len(grid.points))


def _probe_orbital_tables(tracer, bound):
    import numpy as np
    orbitals = list(bound.arguments["orbitals"])
    bound.arguments["orbitals"] = orbitals
    points = np.ascontiguousarray(np.atleast_2d(
        np.asarray(bound.arguments["points"], dtype=float)))
    key = (id(bound.arguments["basis"]), tuple(o.index for o in orbitals),
           hashlib.blake2b(points.tobytes(), digest_size=16).digest())
    tracer.add("structure.orbital_tables.distinct", int(tracer.first_seen(key)))
    tracer.add("structure.orbital_tables.orbital_points",
               len(orbitals) * len(points))

    def post(result):
        psi, grad = result
        tracer.add("structure.orbital_tables.out_bytes", psi.nbytes + grad.nbytes)
    return post


def _probe_transition_set(tracer, bound):
    def post(ts):
        tracer.add("coupling.matrix_elements", int(ts.matrix.size))
        tracer.add("coupling.pruned", len(ts.pruned))
    return post


def _probe_excite(tracer, bound):
    return lambda exc: tracer.add("dynamics.breakdown_points", int(exc.breakdown))


def _probe_file(counter, argument):
    def probe(tracer, bound):
        path = bound.arguments[argument]
        return lambda _result: tracer.add(counter, os.path.getsize(path))
    return probe


_PROBES = {
    "numerics.build_grid": _probe_grid,
    "structure.orbital_tables": _probe_orbital_tables,
    "coupling.build_transition_set": _probe_transition_set,
    "dynamics.excite": _probe_excite,
    "observables.write_plane": _probe_file("observables.write_plane.bytes", "path"),
    "cli.ScanResult.write_csv": _probe_file("cli.write_csv.bytes", "path"),
    "cli.ScanResult.write_long": _probe_file("cli.write_csv.bytes", "path"),
}


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total = 0
    cur_start = cur_end = None
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


def self_times(spans):
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for span_id, _name, start, end, parent, _tid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _name, start, end, _parent, _tid in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(span_id, ()) if min(e, end) > max(s, start)]
        out[span_id] = (end - start) - _union_length(clipped)
    return out


def _has_ancestor(span_id, wanted, parent_of, name_of):
    parent = parent_of.get(span_id)
    while parent is not None:
        if name_of[parent] == wanted:
            return True
        parent = parent_of.get(parent)
    return False


def pool_utilisation(spans, threads):
    """Busy time of layer spans, per thread, inside the command span, over
    threads x command wall."""
    commands = [(s, e) for _i, name, s, e, _p, _t in spans
                if name.startswith(_COMMAND_PREFIX)]
    wall = sum(e - s for s, e in commands)
    if not wall:
        return 0.0
    per_thread = {}
    for _i, name, start, end, _p, tid in spans:
        if name.startswith(_COMMAND_PREFIX) or name == "cli.main":
            continue
        for cs, ce in commands:
            if min(end, ce) > max(start, cs):
                per_thread.setdefault(tid, []).append((max(start, cs), min(end, ce)))
    busy = sum(_union_length(iv) for iv in per_thread.values())
    return busy / (threads * wall)


def layer_metrics(spans, counters, threads):
    """Per-layer metrics (name -> value) from one traced run."""
    selfs = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    calls, self_ns, incl_ns = {}, {}, {}
    for span_id, name, start, end, _p, _t in spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[span_id]
        incl_ns[name] = incl_ns.get(name, 0) + (end - start)
    for prefix, (name, ancestor) in _UNDER.items():
        self_ns[prefix] = sum(selfs[s[0]] for s in spans if s[1] == name
                              and _has_ancestor(s[0], ancestor, parent_of, name_of))
    command_ns = sum(v for n, v in incl_ns.items() if n.startswith(_COMMAND_PREFIX))
    incl_ns["cli.command"] = command_ns

    def total(table, prefix):
        return sum(table.get(n, 0) for n in _SPANS.get(prefix, (prefix,)))

    def share(ns):
        return ns / command_ns if command_ns else 0.0

    kinds = {
        "calls": lambda p: total(calls, p),
        "s": lambda p: total(self_ns, p) / 1e9,
        "incl_s": lambda p: total(incl_ns, p) / 1e9,
        "share": lambda p: share(total(self_ns, p)),
        "incl_share": lambda p: share(total(incl_ns, p)),
    }
    out = {}
    for metric in METRICS:
        prefix, _, kind = metric.rpartition(".")
        if kind in kinds and metric not in _COUNTED:
            out[metric] = kinds[kind](prefix)
    out.update({m: counters.get(m, 0) for m in _COUNTED})
    n_tables = calls.get("structure.orbital_tables", 0)
    out["structure.orbital_tables.distinct_ratio"] = (
        counters.get("structure.orbital_tables.distinct", 0) / n_tables
        if n_tables else 0.0)
    out["structure.orbital_tables.out_mb"] = \
        counters.get("structure.orbital_tables.out_bytes", 0) / 1e6
    out["cli.pool_utilisation"] = pool_utilisation(spans, threads)
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- [vortexcage arguments]",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from vortexcage import cli
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
