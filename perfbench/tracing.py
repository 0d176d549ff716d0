"""Traced mode: spans and counters recorded from outside the package.

``install`` wraps each function in ``LAYER_FUNCTIONS`` in its defining module
and in every polarb module that binds it through a from-import, so calls
between modules are seen as well.  Every call records a span (name, start,
end, parent id) in memory; ``Tracer.write_spans`` saves them at the end.
Self time is a span's duration minus the durations of its child spans.

Counters whose name ends in ``_computed`` are derived from input sizes, not
measured.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from array import array

LAYER_FUNCTIONS = (
    ("ff", "field_make"),
    ("geom", "enumerate_points"),
    ("geom", "enumerate_generators"),
    ("geom", "rref_insert"),
    ("geom", "subspace_points"),
    ("geom", "catalog_from_bases"),
    ("geom", "generators_through"),
    ("geom", "quotient_geometry"),
    ("qcount", "eigen_data"),
    ("scheme", "build_relations"),
    ("scheme", "check_intersection_numbers"),
    ("scheme", "verify_spectrum"),
    ("scheme", "eigenspace_support"),
    ("specbound", "classical_bound"),
    ("specbound", "hermitian_cross_report"),
    ("extremal", "cross_graph"),
    ("extremal", "enumerate_maximal_cross_pairs"),
    ("extremal", "cross_closure"),
    ("extremal", "example_h7_sizes"),
    ("shell", "cache_write"),
    ("shell", "cache_read"),
    ("shell", "load_catalog"),
    ("shell", "main"),
    ("checks", "run_check"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)

COUNTERS = (
    "geom.enumerate_generators.generators",
    "geom.enumerate_generators.rref_insert_calls",
    "geom.rref_insert.dependent",
    "geom.generators_through.generators",
    "scheme.build_relations.pairs",
    "scheme.check_intersection_numbers.popcounts_computed",
    "scheme.verify_spectrum.int_ops_computed",
    "scheme.verify_spectrum.bytes_computed",
    "extremal.enumerate_maximal_cross_pairs.subsets_swept",
    "extremal.enumerate_maximal_cross_pairs.maximal_pairs",
    "shell.cache_write.bytes",
    "shell.cache_read.bytes",
    "shell.cache_read.rejections",
    "shell.load_catalog.hits",
    "shell.load_catalog.misses",
)
RATIOS = {
    "geom.enumerate_generators.yield": (
        "geom.enumerate_generators.generators",
        "geom.enumerate_generators.rref_insert_calls",
    ),
    "extremal.enumerate_maximal_cross_pairs.yield": (
        "extremal.enumerate_maximal_cross_pairs.maximal_pairs",
        "extremal.enumerate_maximal_cross_pairs.subsets_swept",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = list(LAYER_NAMES)
        self.calls = [0] * len(LAYER_NAMES)
        self.self_s = [0.0] * len(LAYER_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.cache_reads_ok = 0
        # Span columns; span i has name names[span_name[i]] and parent span_parent[i] (-1: root).
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, time covered by child spans]

    def _open(self, nid: int) -> list:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> float:
        self.stack.pop()
        sid = frame[0]
        self.span_start[sid] = t0
        self.span_end[sid] = t1
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        return dur - frame[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span around benchmark steps (set-up, one operation); not a layer."""
        self.names.append(name)
        frame = self._open(len(self.names) - 1)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def wrap(self, nid: int, fn, before=None, after=None):
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                calls[nid] += 1
                self_s[nid] += close(frame, t0, t1)
                if after:
                    after(args, None, exc, token)
                raise
            t1 = clock()
            calls[nid] += 1
            self_s[nid] += close(frame, t0, t1)
            if after:
                after(args, result, None, token)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out.update(self.counts)
        for name, (num, den) in RATIOS.items():
            out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out

    def write_spans(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """(before, after) per layer name, for the counters."""
    counts = tracer.counts
    rref_id = LAYER_NAMES.index("geom.rref_insert")

    def add(key, value):
        counts[key] += value

    def enum_before(args):
        return tracer.calls[rref_id]

    def enum_after(args, result, exc, token):
        if exc is None:
            add("geom.enumerate_generators.generators", result.n)
        add("geom.enumerate_generators.rref_insert_calls", tracer.calls[rref_id] - token)

    def rref_after(args, result, exc, token):
        if exc is None and result is None:
            add("geom.rref_insert.dependent", 1)

    def through_after(args, result, exc, token):
        if exc is None:
            add("geom.generators_through.generators", len(result))

    def relations_after(args, result, exc, token):
        n = args[0].n
        add("scheme.build_relations.pairs", n * (n + 1) // 2)

    def intersections_after(args, result, exc, token):
        rel = args[0]
        add("scheme.check_intersection_numbers.popcounts_computed", rel.n**2 * (rel.d + 1) ** 2)

    def spectrum_after(args, result, exc, token):
        # (d+1)^2 products A_i A_j plus d annihilating polynomials of d products
        # each, every product n^3 multiply-adds over the d+1 dense n x n int64 A_i.
        n, d = args[0].n, args[0].d
        add("scheme.verify_spectrum.int_ops_computed", ((d + 1) ** 2 + d * d) * n**3)
        add("scheme.verify_spectrum.bytes_computed", (d + 1) * n * n * 8)

    def sweep_after(args, result, exc, token):
        add("extremal.enumerate_maximal_cross_pairs.subsets_swept", sum(1 << row.bit_count() for row in args[0].nonn))
        if exc is None:
            add("extremal.enumerate_maximal_cross_pairs.maximal_pairs", len(result))

    def write_after(args, result, exc, token):
        if exc is None:
            add("shell.cache_write.bytes", os.path.getsize(result))

    def read_before(args):
        add("shell.cache_read.bytes", os.path.getsize(args[0]))

    def read_after(args, result, exc, token):
        if exc is None:
            tracer.cache_reads_ok += 1
        else:
            add("shell.cache_read.rejections", 1)

    def load_before(args):
        return tracer.cache_reads_ok

    def load_after(args, result, exc, token):
        add("shell.load_catalog.hits" if tracer.cache_reads_ok > token else "shell.load_catalog.misses", 1)

    return {
        "geom.enumerate_generators": (enum_before, enum_after),
        "geom.rref_insert": (None, rref_after),
        "geom.generators_through": (None, through_after),
        "scheme.build_relations": (None, relations_after),
        "scheme.check_intersection_numbers": (None, intersections_after),
        "scheme.verify_spectrum": (None, spectrum_after),
        "extremal.enumerate_maximal_cross_pairs": (None, sweep_after),
        "shell.cache_write": (None, write_after),
        "shell.cache_read": (read_before, read_after),
        "shell.load_catalog": (load_before, load_after),
    }


def install(tracer: Tracer) -> None:
    """Replace every polarb binding of each layer function by its traced wrapper."""
    hooks = _hooks(tracer)
    modules = [m for name, m in list(sys.modules.items()) if name == "polarb" or name.startswith("polarb.")]
    for nid, (mod, fn) in enumerate(LAYER_FUNCTIONS):
        orig = getattr(importlib.import_module(f"polarb.{mod}"), fn)
        wrapper = tracer.wrap(nid, orig, *hooks.get(LAYER_NAMES[nid], (None, None)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
