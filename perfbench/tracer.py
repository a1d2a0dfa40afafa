"""Spans and counters around the public functions of each torusclass layer.

The wrappers are installed from outside the program.  Modules bind each
other's functions with ``from ... import``, so a wrapper replaces the
function in every ``torusclass`` module namespace that holds it, and the
``GradedPoly`` wrappers go on the class.  ``uninstall`` puts every
original back.

A span runs from a wrapped call's entry to its return.  Its self time is
its duration minus the time its child spans cover.  Counts and self times
are kept for every span; the full span records (name, start, end, parent,
item) are kept for the first ``span_items`` items of a pass only, because
a sweep makes millions of spans.  Wrappers record only while ``active``
is set, which the worker sets around the timed call of each item.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) of the wrapped function
LAYER_FUNCTIONS = {
    "intpoly.substitute": ("torusclass.intpoly", "substitute"),
    "quotient.normal_form": ("torusclass.quotient", "normal_form"),
    "quotient.canonicalize": ("torusclass.quotient", "canonicalize"),
    "quotient.graded_ranks": ("torusclass.quotient", "graded_ranks"),
    "invariants.cohomology": ("torusclass.invariants", "cohomology"),
    "invariants.pontrjagin": ("torusclass.invariants", "pontrjagin"),
    "invariants.stiefel_whitney": ("torusclass.invariants", "stiefel_whitney"),
    "classify.cohomology_isomorphic": ("torusclass.classify", "cohomology_isomorphic"),
    "classify.diffeomorphic": ("torusclass.classify", "diffeomorphic"),
    "classify.rigidity_class": ("torusclass.classify", "rigidity_class"),
    "classify.compare_report": ("torusclass.classify", "compare_report"),
    "isosearch.find_iso": ("torusclass.isosearch", "find_iso"),
    "isosearch.verify_iso": ("torusclass.isosearch", "verify_iso"),
    "isosearch.check_preserves": ("torusclass.isosearch", "check_preserves"),
}
MUL = "intpoly.mul"


def _after_mul(counts, args, result, frame):
    a, b = args
    counts["intpoly.mul.coef_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _after_normal_form(counts, args, result, frame):
    counts["quotient.normal_form.terms_in"] += len(args[0].terms)
    counts["quotient.normal_form.terms_out"] += len(result.poly.terms)


def _after_find_iso(counts, args, result, frame):
    counts[f"isosearch.find_iso.{result.status}"] += 1
    if "isosearch.verify_iso" not in frame.children:
        counts["isosearch.find_iso.early_exits"] += 1


def _after_verify_iso(counts, args, result, frame):
    counts["isosearch.verify_iso.accepted"] += bool(result)


def _after_check_preserves(counts, args, result, frame):
    counts["isosearch.check_preserves.passed"] += bool(result)


AFTER = {
    MUL: _after_mul,
    "quotient.normal_form": _after_normal_form,
    "isosearch.find_iso": _after_find_iso,
    "isosearch.verify_iso": _after_verify_iso,
    "isosearch.check_preserves": _after_check_preserves,
}


class _Frame:
    __slots__ = ("child_s", "children", "record")

    def __init__(self, record):
        self.child_s = 0.0
        self.children = set()
        self.record = record


class Tracer:
    def __init__(self, span_items: int = 32):
        self.active = False
        self.item = -1
        self.span_items = span_items
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []  # [name, start, end, parent span index or -1, item]
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn):
        tracer, stack, after = self, self._stack, AFTER.get(name)
        counts, self_s, spans = self.counts, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            record = None
            if tracer.item < tracer.span_items:
                record = len(spans)
                spans.append([name, 0.0, 0.0, parent.record if parent else -1, tracer.item])
            frame = _Frame(record)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame.child_s
                counts[name + ".calls"] += 1
                if parent is not None:
                    parent.child_s += duration
                    parent.children.add(name)
                if record is not None:
                    spans[record][1:3] = start, end
            if after is not None:
                after(counts, args, result, frame)
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions in every loaded torusclass module."""
        from torusclass.intpoly import GradedPoly

        modules = [m for n, m in list(sys.modules.items())
                   if n == "torusclass" or n.startswith("torusclass.")]
        for name, (modname, attr) in LAYER_FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._replace(module, key, wrapped)

        tracer, counts, init = self, self.counts, GradedPoly.__init__

        def counted_init(poly, *args, **kwargs):
            if tracer.active:
                counts["intpoly.poly_new.calls"] += 1
            init(poly, *args, **kwargs)

        self._replace(GradedPoly, "__init__", counted_init)
        for key in ("__mul__", "__rmul__"):
            self._replace(GradedPoly, key, self._wrap(MUL, vars(GradedPoly)[key]))

    def _replace(self, owner, key, value):
        self._installed.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()
