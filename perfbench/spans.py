"""Span tracer for the traced benchmark run.

``Tracer.installed()`` replaces each public function named in ``WRAPPED``
by a recording wrapper in every p1parts module that binds it, so calls
through ``from .groebner import buchberger`` in ``multiproj`` are caught
as well as calls inside ``groebner``.  Leaving the block restores the
original functions; untraced runs never install anything.

A span is ``[name, start, end, parent, problem, pass, value]``: the
parent is the index of the enclosing span (-1 at the top), and ``value``
is what ``OBSERVE`` extracts from the result, such as 1 for a zero
remainder.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# Layer (module of p1parts) -> the public functions traced in it.  fields
# is left out: a wrapper would cost more than one field operation.
WRAPPED = {
    "parser": ("parse_problem",),
    "poly": ("poly_gcd", "squarefree_part"),
    "groebner": ("buchberger", "normal_form", "heuristic_radical",
                 "ideal_saturate", "radical_membership", "principal_saturate"),
    "multiproj": ("partition_variety", "root_part", "split_scan",
                  "normalize_neq"),
    "oracle": ("check_partition", "variety_points", "part_members",
               "check_extension", "enumerate_proj_space"),
    "cli": ("render_tree",),
}

# Span name -> function of the call's result giving the span's value.
OBSERVE = {
    "groebner.normal_form": lambda r: int(r.is_zero()),
    "cli.render_tree": lambda r: len(r.encode()),
    "oracle.check_extension": len,
    "oracle.enumerate_proj_space": len,
}

NAME, START, END, PARENT, PROBLEM, PASS, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.problem = None
        self.pass_index = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.problem, self.pass_index, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, problem):
        """A span around the benchmark's own work on one problem."""
        self.problem = problem
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span[VALUE] = observe(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "p1parts" or key.startswith("p1parts.")]
        patched = []
        try:
            for layer, names in WRAPPED.items():
                home = sys.modules[f"p1parts.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        if getattr(module, fname, None) is original:
                            setattr(module, fname, wrapper)
                            patched.append((module, fname, original))
            yield
        finally:
            for module, fname, original in reversed(patched):
                setattr(module, fname, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(
                ["name", "start", "end", "parent", "problem", "pass", "value"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def any_installed() -> bool:
    """True while some traced function is replaced by its wrapper."""
    return any(hasattr(getattr(sys.modules[f"p1parts.{layer}"], fname),
                       "__wrapped__")
               for layer, names in WRAPPED.items() for fname in names)


def layer_totals(spans, pass_index) -> dict:
    """Per span name: calls, inclusive and self seconds, summed value.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  The
    inclusive time ``s`` counts only spans with no ancestor of the same
    name, so recursive calls (poly_gcd) are not counted twice.
    """
    child_time = [0.0] * len(spans)
    ancestors = [frozenset()] * len(spans)
    totals = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        duration = span[END] - span[START]
        if parent >= 0:
            child_time[parent] += duration
            ancestors[i] = ancestors[parent] | {spans[parent][NAME]}
    for i, span in enumerate(spans):
        if span[PASS] != pass_index:
            continue
        name = span[NAME]
        duration = span[END] - span[START]
        row = totals.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
        row["value"] += span[VALUE]
        if name not in ancestors[i]:
            row["s"] += duration
    return totals
