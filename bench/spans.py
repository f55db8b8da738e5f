"""Spans around moeblox's public functions, recorded from outside ``src/``.

``Tracer.install`` wraps every public function of the moeblox modules
and rebinds it by name in every moeblox namespace that holds it
(``loxodrome`` imports ``canonicalize`` and friends by name, so patching
``cycles`` alone would miss those calls).  It also wraps
``__post_init__`` of ``Cycle``, ``ExtendedPoint`` and ``MoebiusMap`` to
count constructions, and numpy's ``svd`` and ``lstsq``, which moeblox
calls through ``np.linalg``.  ``uninstall`` puts every original back.

A span is ``(name, start_ns, end_ns, parent)``; spans stay in memory
until ``summary`` folds them into counts, inclusive times and self times
(a span's duration minus its direct children's).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("cycles", "numerics", "pencils", "loxodrome", "render", "scene", "cli")
CLASSES = ("Cycle", "ExtendedPoint", "MoebiusMap")
NUMPY = (("svd", "pencils.svd"), ("lstsq", "loxodrome.lstsq"))
#: Triple preparation (ROADMAP layer L2).
PREPARE = frozenset(
    "loxodrome." + name
    for name in ("apply_map", "triple_violations", "lambda_from_triple", "standard_map")
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.samples: dict[str, int] = {}  # points returned by sample_curve
        self.triples: set = set()  # distinct triples passed to loxodrome functions
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        triple_type = sys.modules["moeblox.loxodrome"].LoxodromeTriple
        triples = self.triples
        takes_triples = name.startswith("loxodrome.")
        counts_samples = name == "loxodrome.sample_curve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, stack[-1] if stack else -1)
            if takes_triples:
                triples.update(a for a in args if type(a) is triple_type)
            if counts_samples:
                self.samples[name] = self.samples.get(name, 0) + len(result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "moeblox" or n.startswith("moeblox.")]
        wrapped = {}
        for short in MODULES:
            mod = sys.modules.get("moeblox." + short)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        cycles = sys.modules["moeblox.cycles"]
        for cls_name in CLASSES:
            cls = getattr(cycles, cls_name)
            self._set(cls, "__post_init__", self._wrap(f"cycles.{cls_name}", cls.__post_init__))
        numpy = sys.modules.get("numpy")
        if numpy is not None:
            for attr, name in NUMPY:
                self._set(numpy.linalg, attr, self._wrap(name, getattr(numpy.linalg, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- recording --------------------------------------------------------

    def run_op(self, fn):
        """Run one op under a root span named ``op``."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (-1, start, end, -1)

    # -- folding ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; plus the number
        of outermost preparation calls (a preparation call made inside
        another one is part of it)."""
        names = self.names
        count: dict[str, int] = {}
        inclusive: dict[str, int] = {}
        own: dict[str, int] = {}
        children = [0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        in_prepare = [False] * len(self.spans)
        outer_prepare = 0
        for index, (key, start, end, parent) in enumerate(self.spans):
            name = names[key] if key >= 0 else "op"
            count[name] = count.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - children[index]
            inherited = in_prepare[parent] if parent >= 0 else False
            if name in PREPARE and not inherited:
                outer_prepare += 1
            in_prepare[index] = inherited or name in PREPARE
        return {
            "count": count,
            "inclusive_ns": inclusive,
            "self_ns": own,
            "outer_prepare": outer_prepare,
            "distinct_triples": len(self.triples),
            "samples": self.samples,
        }

    def span_records(self) -> list:
        names = self.names
        return [
            [names[key] if key >= 0 else "op", start, end, parent]
            for key, start, end, parent in self.spans
        ]
