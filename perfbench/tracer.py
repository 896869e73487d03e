"""Span recording by wrapping matdisc's public functions from outside.

Tracer.install() replaces every public function of the traced modules
with a wrapper that records a span: name "<module>.<function>", start,
end, parent span and a few counts read from the arguments or the
returned object.  The wrapper is bound wherever the original object is
reachable as a module attribute, which covers the names imported into
cli, quantization, suite, spectral and constructions.  Graph
construction is traced through Graph.__post_init__ (validation) and the
first build of Graph.adjacency, both under the span name "graphs.Graph".

Spans stay in memory; uninstall() restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

MODULES = ("cli", "linalg", "graphs", "discrepancy", "quantization",
           "constructions", "spectral", "suite")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end,
                self.counts]


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _graph_edges(args, kwargs, result):
    return {"edges": args[0].m}


def _family_pairs(args, kwargs, result):
    return {"pairs": result.params["samples"] * len(result.params["members"])}


#: counts recorded per span name, from (args, kwargs, returned object)
COUNTERS = {
    "linalg.read_matrix": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "graphs.read_graph": lambda a, k, r: {"edges": r.m},
    "discrepancy.disc_exact": lambda a, k, r: {
        "masks": (1 << _arg(a, k, 0, "A").n) - 1},
    "discrepancy.disc_heuristic": lambda a, k, r: {"evaluations": r.evaluations},
    "quantization.certify_sigma2": lambda a, k, r: {
        "pool_pairs": 0 if r.disc_is_exact else r.m_realized ** 2},
    "quantization.quotient_compress": lambda a, k, r: {
        "classes": _arg(a, k, 1, "partition").class_count},
    "spectral.chung_alpha_check": lambda a, k, r: {"pairs": r.instances},
    "spectral.thomason_report": lambda a, k, r: {"pairs": r.instances},
    "spectral.thomason_small_graph_sweep": lambda a, k, r: {"pairs": r.instances},
    "spectral.family_properties": _family_pairs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, parent, name, start, end)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"matdisc.{m}") for m in MODULES}
        namespaces = [importlib.import_module("matdisc"), *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, obj, COUNTERS.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._restore.append((ns, key, obj))
                            setattr(ns, key, wrapped)
        graph = mods["graphs"].Graph
        post_init = graph.__post_init__
        self._restore.append((graph, "__post_init__", post_init))
        graph.__post_init__ = self.wrap("graphs.Graph", post_init,
                                        _graph_edges)
        adjacency = vars(graph)["adjacency"]
        self._restore.append((adjacency, "func", adjacency.func))
        adjacency.func = self.wrap("graphs.Graph", adjacency.func)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
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


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = max(0.0, (s.end - s.start) - _covered(kids))
    return out


def summarize(spans: list) -> dict:
    """Per span name: calls, total duration, total self time, summed counts."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "duration": 0.0,
                                      "self": 0.0, "counts": {}})
        row["calls"] += 1
        row["duration"] += s.end - s.start
        row["self"] += selfs[s.id]
        for key, value in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return out
