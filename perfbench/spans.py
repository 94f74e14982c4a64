"""Span tracing of revtour's layers from outside the package.

``traced()`` replaces public revtour functions by timing wrappers, under
the names through which the consuming module calls them (for example
``revtour.theorems.is_indecomposable``), and restores them on exit.
Nothing under ``src/`` changes.  A name that a module no longer has is
skipped, so its span simply stops occurring.

Spans are kept in memory as flat arrays (name, parent, start, end) and
reduced once, at the end, to per-name call counts and self times.  A
span's self time is its duration minus the time its child spans cover;
spans nest strictly, so the self times of all spans add up to the root.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# Span name -> layer.  Self times of the spans of one layer add up to
# the layer's share of the traced wall time.
LAYER_OF = {
    "cli": "cli",
    "theorems": "theorems",
    "theorems.conditions": "theorems",
    "enumeration": "enumeration",
    "enumeration.loop": "enumeration",
    "pairs.irreducible": "pairs",
    "pairs.anatomy": "pairs",
    "pairs.support": "pairs",
    "comodules": "comodules",
    "core.build": "core",
    "core.indecomposable": "core",
    "core.delete": "core",
    "core.canonical": "core",
}

# (consuming module, attribute, span name).  ``enumerate_families`` is a
# generator: its span covers each step of the iterator, not its lifetime.
_CALLS = (
    ("revtour.cli", "verify_range", "theorems"),
    ("revtour.cli", "census", "enumeration.loop"),
    ("revtour.cli", "count_irreducible_pairings", "enumeration.loop"),
    ("revtour.theorems", "theorem3_conditions", "theorems.conditions"),
    ("revtour.theorems", "is_irreducible_quasi", "pairs.irreducible"),
    ("revtour.theorems", "is_irreducible_pairing", "pairs.irreducible"),
    ("revtour.enumeration", "is_irreducible_quasi", "pairs.irreducible"),
    ("revtour.enumeration", "is_irreducible_pairing", "pairs.irreducible"),
    ("revtour.theorems", "anatomy", "pairs.anatomy"),
    ("revtour.pairs", "anatomy", "pairs.anatomy"),
    ("revtour.theorems", "is_transversal", "comodules"),
    ("revtour.theorems", "minimal_comodules_total_order", "comodules"),
    ("revtour.theorems", "transitive", "core.build"),
    ("revtour.theorems", "reverse_pairs", "core.build"),
    ("revtour.enumeration", "transitive", "core.build"),
    ("revtour.enumeration", "reverse_pairs", "core.build"),
    ("revtour.theorems", "is_indecomposable", "core.indecomposable"),
    ("revtour.enumeration", "is_indecomposable", "core.indecomposable"),
    ("revtour.theorems", "delete_vertex", "core.delete"),
    ("revtour.enumeration", "canonical_form", "core.canonical"),
)
_ITERATORS = (
    ("revtour.theorems", "enumerate_families", "enumeration"),
    ("revtour.enumeration", "enumerate_families", "enumeration"),
)
# Property read on every family, from any module.
_PROPERTIES = (("revtour.pairs", "PairFamily", "support", "pairs.support"),)


class Recorder:
    """Spans of one traced pass, plus the results some spans report."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.yields = 0
        self.indecomposable_yes = 0
        self.canonical_forms: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        nid = self._id(name)
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end
        )

        def spanned(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            step = self.wrap(name, next)
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.yields += 1
                yield item

        return counted

    def _count_yes(self, verdict: bool) -> None:
        self.indecomposable_yes += bool(verdict)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.start)
        covered = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += durations[i] - covered[i]
        return out

    def edges(self) -> dict[str, dict[str, float]]:
        """Per "parent > child" span-name edge: calls and inclusive seconds."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            key = f"{self.names[self.name[p]] if p >= 0 else '-'} > {self.names[self.name[i]]}"
            row = out.setdefault(key, {"calls": 0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
        return out


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install the span wrappers for the duration of the block."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, value: object) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # Spans whose return values are tallied, for yes_ratio and classes.
    on_result = {
        "core.indecomposable": recorder._count_yes,
        "core.canonical": recorder.canonical_forms.add,
    }
    try:
        for module_name, attr, span in _CALLS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                patch(module, attr, recorder.wrap(span, fn, on_result.get(span)))
        for module_name, attr, span in _ITERATORS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                patch(module, attr, recorder.wrap_iterator(span, fn))
        for module_name, cls_name, attr, span in _PROPERTIES:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            prop = getattr(cls, attr, None) if cls is not None else None
            if isinstance(prop, property):
                patch(cls, attr, property(recorder.wrap(span, prop.fget)))
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
