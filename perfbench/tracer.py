"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions and methods of the ``quadsketch`` modules
from the outside. Modules import each other's functions by name (for example
``from .graph import connected_components``), so a function is replaced in
every module namespace that binds it; calls from one layer into another are
then recorded too. Methods are replaced on their class.

Spans (name, start, end, parent) are kept in memory. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "quadsketch"

# span name -> (module, attribute) targets; "Class.method" names a method
TARGETS = {
    "graph.connected_components": [("graph", "connected_components")],
    "graph.WeightedGraph": [("graph", "WeightedGraph.__init__")],
    "graph.cut_weight": [("graph", "cut_weight")],
    "graph.quadratic_form": [("graph", "quadratic_form")],
    "sparsify.sparsify": [("sparsify", "sparsify")],
    "sparsify.effective_resistances": [("sparsify", "effective_resistances")],
    "partition.find_sparse_cut": [("partition", "find_sparse_cut")],
    "partition.cut_preprocessing": [("partition", "cut_preprocessing")],
    "partition.spectral_preprocessing": [("partition", "spectral_preprocessing")],
    "partition.degree_class_partition": [("partition", "degree_class_partition")],
    "partition.assign_direction": [("partition", "assign_direction")],
    "cutsketch.cut_sketch_build": [("cutsketch", "cut_sketch_build")],
    "cutsketch.cut_basic_build": [("cutsketch", "cut_basic_build")],
    "cutsketch.cut_s1_build": [("cutsketch", "cut_s1_build")],
    "cutsketch.estimate": [
        ("cutsketch", "S1Sketch.estimate"),
        ("cutsketch", "CutSketchPoly.estimate"),
        ("cutsketch", "CutSketchGeneral.estimate"),
    ],
    "spectral.spectral_basic_build": [("spectral", "spectral_basic_build")],
    "spectral.spectral_improved_build": [("spectral", "spectral_improved_build")],
    "spectral.spectral_s2_build": [("spectral", "spectral_s2_build")],
    "spectral.spectral_s3_build": [("spectral", "spectral_s3_build")],
    "spectral.estimate": [
        ("spectral", "S2Sketch.estimate"),
        ("spectral", "S3Sketch.estimate"),
        ("spectral", "SpectralBasicSketch.estimate"),
        ("spectral", "SpectralImprovedSketch.estimate"),
    ],
    "psdsdd.sdd_to_laplacian": [("psdsdd", "sdd_to_laplacian")],
    "psdsdd.sdd_sketch_build": [("psdsdd", "sdd_sketch_build")],
    "psdsdd.jl_build": [("psdsdd", "jl_build")],
    "psdsdd.estimate": [("psdsdd", "SddSketch.estimate"), ("psdsdd", "JlSketch.estimate")],
    "serialize.encode": [
        ("cutsketch", "CutSketchPoly.to_bytes"),
        ("cutsketch", "CutSketchGeneral.to_bytes"),
        ("spectral", "SpectralBasicSketch.to_bytes"),
        ("spectral", "SpectralImprovedSketch.to_bytes"),
        ("psdsdd", "SddSketch.to_bytes"),
        ("psdsdd", "JlSketch.to_bytes"),
    ],
    "serialize.decode": [
        ("cutsketch", "CutSketchPoly.from_bytes"),
        ("cutsketch", "CutSketchGeneral.from_bytes"),
        ("spectral", "SpectralBasicSketch.from_bytes"),
        ("spectral", "SpectralImprovedSketch.from_bytes"),
        ("psdsdd", "SddSketch.from_bytes"),
        ("psdsdd", "JlSketch.from_bytes"),
    ],
    "distmincut.run_protocol": [("distmincut", "run_protocol")],
    "distmincut.near_min_cut_candidates": [("distmincut", "near_min_cut_candidates")],
    "distmincut.karger_cut": [("distmincut", "karger_cut")],
    "distmincut.score": [("distmincut", "ServerShare.estimate")],
    "oracle.min_cut_exact": [("oracle", "min_cut_exact")],
    "oracle.enumerate_cut_values": [("oracle", "enumerate_cut_values")],
    "cli.main": [("cli", "main")],
}


def _count_sparsify(counts, args, result, nested):
    counts["sparsify.sparsify.edges_in"] += args[0].m
    counts["sparsify.sparsify.edges_out"] += result.m


def _count_sparse_cut(counts, args, result, nested):
    counts["partition.find_sparse_cut.found"] += result.members is not None
    counts["partition.find_sparse_cut.uncertified"] += not result.certified


def _count_s1(counts, args, result, nested):
    counts["cutsketch.s1_samples"] += int(result.owner.size)


def _count_verbatim(counts, args, result, nested):
    counts["cutsketch.verbatim_builds"] += result.is_verbatim


def _count_encode(counts, args, result, nested):
    if not nested:  # a composite's nested envelopes are inside its own bytes
        counts["serialize.encode.bytes"] += len(result)


def _count_decode(counts, args, result, nested):
    if not nested:
        counts["serialize.decode.bytes"] += len(args[1])


def _count_candidates(counts, args, result, nested):
    counts["distmincut.near_min_cut_candidates.candidates"] += len(result[0])


# span name -> hook(counts, args, result, nested) run after a call returns;
# `nested` is true when the caller is a span of the same name
COUNTERS = {
    "sparsify.sparsify": _count_sparsify,
    "partition.find_sparse_cut": _count_sparse_cut,
    "cutsketch.cut_s1_build": _count_s1,
    "cutsketch.cut_sketch_build": _count_verbatim,
    "cutsketch.cut_basic_build": _count_verbatim,
    "serialize.encode": _count_encode,
    "serialize.decode": _count_decode,
    "distmincut.near_min_cut_candidates": _count_candidates,
}

COUNT_NAMES = [
    "sparsify.sparsify.edges_in",
    "sparsify.sparsify.edges_out",
    "partition.find_sparse_cut.found",
    "partition.find_sparse_cut.uncertified",
    "cutsketch.s1_samples",
    "cutsketch.verbatim_builds",
    "serialize.encode.bytes",
    "serialize.decode.bytes",
    "distmincut.near_min_cut_candidates.candidates",
]


class Tracer:
    """In-memory span recorder. ``spans`` holds [name, start, end, parent]
    lists; parent is an index into ``spans`` or -1 for a root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = bool(self.stack) and self.spans[self.stack[-1]][0] == name
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result, nested)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded module of the package."""
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, targets in TARGETS.items():
            for mod_name, attr in targets:
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._wrap(name, original.__func__))
                    else:
                        replacement = self._wrap(name, original)
                    setattr(cls, meth, replacement)
                    self._undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                replacement = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, replacement)
                            self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in ``spans`` order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def layer_metrics(self, passes: float) -> dict[str, tuple[float, str]]:
        """Per-layer calls and self time per pass, plus the counters;
        every target is reported, with 0 when it was never called."""
        calls = dict.fromkeys(TARGETS, 0)
        self_s = dict.fromkeys(TARGETS, 0.0)
        for (name, *_), st in zip(self.spans, self.self_times()):
            if name in calls:
                calls[name] += 1
                self_s[name] += st
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name] / passes, "calls/pass")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s/pass")
        for name, value in self.counts.items():
            if name == "partition.find_sparse_cut.found":
                found_calls = calls["partition.find_sparse_cut"]
                out[name] = (value / found_calls if found_calls else 0.0, "ratio")
            elif name.endswith(".bytes"):
                out[name] = (value / passes, "B/pass")
            else:
                out[name] = (value / passes, "count/pass")
        return out

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON."""
        data = json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans})
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(data.encode())
