"""Span tracer for the traced benchmark run, installed from outside the
package: nothing under src/ changes.

`Tracer.install` rebinds every public function of each idforest module (in
its defining module, in every module that imported the name, and in the
`idforest` namespace) to a wrapper that records one span per call: name,
parent span, start, end, and a tag (1 when the call returned something
other than None, or, for generator functions, when next() yielded).
Generator functions are timed per next() call, and a generator whose first
argument is an int (enumerate_graphs) gets one span name per value, so
enumeration time lands under a per-level span.

Spans live in flat arrays (23 bytes each) and are written out by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array


class _TimedIterator:
    """Times each next() of a generator as one span; StopIteration passes
    through the span unchanged and leaves its tag at 0."""

    __slots__ = ("_step", "_record", "_nid")

    def __init__(self, it, record, nid):
        self._step = it.__next__
        self._record = record
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        return self._record(self._nid, self._step)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self._current = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._record = self._recorder()

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _recorder(self):
        """The function every wrapper calls: it runs fn() as one span of
        name nid."""
        name_add, parent_add = self.name.append, self.parent.append
        start_add, end_add, tag_add = self.start.append, self.end.append, self.tag.append
        end, tag, current = self.end, self.tag, self._current
        clock = time.perf_counter

        def record(nid, fn, /, *args, **kwargs):
            i = len(end)
            parent = current[0]
            name_add(nid)
            parent_add(parent)
            end_add(0.0)
            tag_add(0)
            current[0] = i
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                current[0] = parent
            if result is not None:
                tag[i] = 1
            return result

        return record

    def _wrap(self, fn, label: str):
        record = self._record
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                nid = self._name_id(f"{label}[{args[0]}]" if args and type(args[0]) is int
                                    else label)
                return _TimedIterator(fn(*args, **kwargs), record, nid)
            return functools.wraps(fn)(generator_wrapper)

        nid = self._name_id(label)

        def wrapper(*args, **kwargs):
            return record(nid, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self, package, modules) -> None:
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def dump(self, stem: str) -> None:
        """Write the spans as <stem>.bin (the arrays back to back, in the
        order listed in <stem>.json) and the name table as <stem>.json."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        fields = ("name", "parent", "start", "end", "tag")
        with open(stem + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": len(self.end), "names": self.names,
                       "arrays": [[f, getattr(self, f).typecode] for f in fields],
                       "clock": "time.perf_counter, seconds"}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

# Span groups, by span name.  A span "counts" for a group when it is the
# outermost span of that group on its stack, so recursion and calls between
# functions of one group are not counted twice.
_GROUPS = {
    "canon": lambda s: s.startswith("canon."),
    "vc_exact": lambda s: s == "vc.vc_exact",
    "lp": lambda s: s == "vc.lp_half_integral",
    "kernel": lambda s: s == "vc.nt_kernel",
    "vc_decision": lambda s: s == "vc.vc_decision",
    "decision": lambda s: s in ("vc.vc_decision", "solver.idf_decision"),
    "bridges": lambda s: s in ("graph.bridges", "graph.remove_bridges",
                               "graph.connected_components"),
    "identify": lambda s: s.startswith("identify."),
    "brute_minor": lambda s: s == "oracle.brute_minor",
    "cycle_packing": lambda s: s == "minors.cycle_packing",
    "longest_cycle": lambda s: s == "minors.longest_cycle",
    "exact_fvs": lambda s: s == "minors.exact_fvs",
    "scan": lambda s: s == "obstructions.is_minor_minimal",
    "verify": lambda s: s == "obstructions.verify_section4",
    "level7": lambda s: s == "obstructions.enumerate_graphs[7]",
    "level8": lambda s: s == "obstructions.enumerate_graphs[8]",
    "new_vertex": lambda s: s == "graph.with_new_vertex",
}
_BIT = {g: 1 << i for i, g in enumerate(_GROUPS)}


class _Aggregate:
    """Span totals keyed by (name id, groups of the span's ancestors)."""

    def __init__(self, t: Tracer):
        n = len(t.end)
        dur = array("d", (e - s for s, e in zip(t.start, t.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(t.parent):
            if p >= 0:
                child[p] += dur[i]
        own = [sum(b for g, b in _BIT.items() if _GROUPS[g](label)) for label in t.names]
        layer = [label.split(".", 1)[0] for label in t.names]
        anc = array("i", bytes(4 * n))
        rows: dict[tuple[int, int], list] = {}
        for i, p in enumerate(t.parent):
            a = anc[i] = (anc[p] | own[t.name[p]]) if p >= 0 else 0
            key = (t.name[i], a)
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += t.tag[i]
        self.rows = [(own[nid], a, layer[nid], *row) for (nid, a), row in rows.items()]
        self.spans = n

    def outer(self, group: str, under: str | None = None) -> tuple[int, float, int]:
        """(calls, inclusive seconds, tagged calls) of the outermost spans of
        a group, optionally only those below a span of group `under`."""
        bit = _BIT[group]
        need = _BIT[under] if under else 0
        calls = secs = tagged = 0
        for own, anc, _, count, total, _, tags in self.rows:
            if (own & bit) and not (anc & bit) and (anc & need) == need:
                calls += count
                secs += total
                tagged += tags
        return calls, secs, tagged

    def self_s(self, layer: str) -> float:
        return sum(row[5] for row in self.rows if row[2] == layer)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(t: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans (ratios with an empty base
    read 0)."""
    agg = _Aggregate(t)
    out: dict[str, float] = {}
    out["canon.calls"], _, _ = agg.outer("canon")
    for n in (7, 8):
        _, out[f"enum.level_s.{n}"], _ = agg.outer(f"level{n}")
    classes8 = agg.outer("level8")[2]
    out["enum.candidates.8"] = agg.outer("new_vertex", "level8")[0]
    out["enum.accept_ratio.8"] = _ratio(classes8, out["enum.candidates.8"])
    out["enum.canon_calls_per_class.8"] = _ratio(agg.outer("canon", "level8")[0], classes8)
    out["scan.tests"], out["scan.s"], _ = agg.outer("scan")
    out["scan.canon_calls"] = agg.outer("canon", "scan")[0]
    out["scan.decisions"] = agg.outer("decision", "scan")[0]
    _, out["verify.s"], _ = agg.outer("verify")
    out["vc.exact_calls"], out["vc.exact_s"], _ = agg.outer("vc_exact")
    _, out["vc.lp_s"], _ = agg.outer("lp")
    _, out["vc.kernel_s"], _ = agg.outer("kernel")
    out["vc.decision_calls"] = sum(row[3] for row in agg.rows if row[0] & _BIT["vc_decision"])
    _, out["graph.bridges_s"], _ = agg.outer("bridges")
    _, out["identify.s"], _ = agg.outer("identify")
    calls, out["oracle.brute_minor_s"], found = agg.outer("brute_minor")
    out["oracle.brute_minor_calls"] = calls
    out["oracle.brute_minor_found_ratio"] = _ratio(found, calls)
    for name in ("cycle_packing", "longest_cycle", "exact_fvs"):
        _, out[f"minors.{name}_s"], _ = agg.outer(name)
    for layer in ("canon", "graph", "graphio", "identify", "vc", "solver", "minors",
                  "oracle", "obstructions", "cli"):
        out[f"{layer}.self_s"] = agg.self_s(layer)
    out["trace.spans"] = agg.spans
    return out
