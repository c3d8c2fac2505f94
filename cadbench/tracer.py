"""Span tracing from outside the library.

``Tracer.install`` replaces every public module-level function of each
layer module with a wrapper that records one span per call, wherever the
function is looked up: in its defining module and in every ``cadkit``
module that imported the name.  Spans stay in memory until ``write``.

A span is ``(name, start_ns, end_ns, parent, problem, size)``: ``parent``
is the index of the enclosing span (-1 at the top), ``problem`` the id
the benchmark set before the call, and ``size`` the length of a list
result (-1 otherwise), which is how root counts are read.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

PACKAGE = "cadkit"
LAYERS = ("polynomial", "realalg", "chains", "projection", "cadcore",
          "formulas", "qe")

Span = Tuple[str, int, int, int, object, int]
NAME, START, END, PARENT, PROBLEM, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.problem: object = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            size = -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if type(result) is list:
                    size = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.problem, size)

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every module that holds
        them; ``uninstall`` puts the originals back."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(
                        "%s.%s" % (layer, attr), obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_ns,end_ns,parent,problem,size\n")
            for i, s in enumerate(self.spans):
                out.write("%d,%s,%d,%d,%d,%s,%d\n" % ((i,) + s))


# -- derived quantities ---------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the run is single-threaded)."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def outermost(spans: Sequence[Span]) -> List[bool]:
    """True for spans with no enclosing span of the same name, so that a
    recursive function's time is counted once."""
    flags = [False] * len(spans)
    names: List[str] = []
    active: Counter = Counter()
    path: List[int] = []
    for i, s in enumerate(spans):
        while path and path[-1] != s[PARENT]:
            active[names[path.pop()]] -= 1
        flags[i] = active[s[NAME]] == 0
        names.append(s[NAME])
        active[s[NAME]] += 1
        path.append(i)
    return flags


class SpanSummary:
    """Totals over the spans of the selected problems."""

    def __init__(self, spans: Sequence[Span], problems: Iterable):
        keep = set(problems)
        outer = outermost(spans)
        selfs = self_times(spans)
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.sizes: Counter = Counter()
        for s, top, own in zip(spans, outer, selfs):
            if s[PROBLEM] not in keep:
                continue
            name = s[NAME]
            self.calls[name] += 1
            self.self_ns[name] += own
            if top:
                self.inclusive_ns[name] += s[END] - s[START]
            if s[SIZE] > 0:
                self.sizes[name] += s[SIZE]

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive_ns[n] for n in names) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def size(self, *names: str) -> int:
        return sum(self.sizes[n] for n in names)


def per_layer(summary: SpanSummary, counts: Dict[str, int],
              not_well_oriented: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit).  ``counts`` holds
    the totals read off the results (cells, factors, output cells)."""
    s = summary
    roots = s.size("chains.isolate_chain")
    refines = s.count("chains.refine_coord")
    isolate = ("realalg.isolate_roots", "realalg.isolate_with_multiplicity")
    return {
        "projection.project_all_s": (s.seconds("projection.project_all"), "s"),
        "projection.factors": (counts.get("projection.factors", 0), "count"),
        "polynomial.poly_gcd_s": (s.seconds("polynomial.poly_gcd"), "s"),
        "polynomial.poly_gcd_calls": (s.count("polynomial.poly_gcd"), "count"),
        "polynomial.squarefree_basis_s":
            (s.seconds("polynomial.squarefree_basis"), "s"),
        "polynomial.resultant_s": (s.seconds("polynomial.resultant"), "s"),
        "polynomial.resultant_calls":
            (s.count("polynomial.resultant"), "count"),
        "polynomial.discriminant_s":
            (s.seconds("polynomial.discriminant"), "s"),
        "polynomial.pseudo_divmod_calls":
            (s.count("polynomial.pseudo_divmod"), "count"),
        "chains.isolate_chain_s": (s.seconds("chains.isolate_chain"), "s"),
        "chains.isolate_chain_calls":
            (s.count("chains.isolate_chain"), "count"),
        "chains.roots": (roots, "count"),
        "chains.merge_roots_s": (s.seconds("chains.merge_chain_roots"), "s"),
        "chains.sign_at_chain_s": (s.seconds("chains.sign_at_chain"), "s"),
        "chains.sign_at_chain_calls":
            (s.count("chains.sign_at_chain"), "count"),
        "chains.refine_coord_calls": (refines, "count"),
        "chains.refines_per_root":
            (refines / roots if roots else 0.0, "ratio"),
        "realalg.isolate_s": (s.seconds(*isolate), "s"),
        "realalg.isolate_calls": (s.count(*isolate), "count"),
        "realalg.roots": (s.size(*isolate), "count"),
        "realalg.compare_calls": (s.count("realalg.compare"), "count"),
        "realalg.refine_calls": (s.count("realalg.refine"), "count"),
        "cadcore.base_s": (s.seconds("cadcore.base_cad"), "s"),
        "cadcore.lift_s": (s.seconds("cadcore.lift"), "s"),
        "cadcore.build_stack_calls": (s.count("cadcore.build_stack"), "count"),
        "cadcore.build_stack_self_s":
            (s.self_seconds("cadcore.build_stack"), "s"),
        "cadcore.cells": (counts.get("cadcore.cells", 0), "count"),
        "cadcore.not_well_oriented": (not_well_oriented, "count"),
        "qe.evaluate_matrix_s": (s.seconds("qe.evaluate_matrix"), "s"),
        "qe.propagate_s": (s.seconds("qe.propagate"), "s"),
        "qe.synthesize_s": (s.seconds("qe.synthesize"), "s"),
        "qe.output_cells": (counts.get("qe.output_cells", 0), "count"),
        "formulas.parse_s": (s.seconds("formulas.parse_formula"), "s"),
        "formulas.prenex_s": (s.seconds("formulas.prenex"), "s"),
    }


# the timings keys build_cad and qe fill in, and the spans that cover them
TIMING_SPANS = {
    "projection": ("projection.project_all",),
    "base": ("cadcore.base_cad",),
    "lifting": ("cadcore.lift",),
    "propagation": ("qe.evaluate_matrix", "qe.propagate"),
}
