"""Outside-in tracing of ascart for the benchmark's traced run.

The tracer wraps public entry points where they are called: it replaces
the name in every ``ascart`` module that imported it, plus the operators of
``FieldElement``, ``Poly`` and ``PartialFraction``.  Layer entry points get
spans; field operations get counters only, because a span per field
operation would cost more than the operation.  Spans are kept in memory as
(name, start, end, parent) and reduced when the traced pass ends: a span's
self time is its duration minus the durations of its direct children, which
nest inside it because the package is single-threaded.

``Tracer.restore`` puts every patched name back, so code measured after it
runs unmodified.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from ascart.finite_field import FieldElement
from ascart.ratfunc import PartialFraction, Poly

# (defining module, function name, span name)
SPANNED_FUNCTIONS = (
    ("ascart.curve", "validate", "curve.validate"),
    ("ascart.curve", "basis", "curve.basis"),
    ("ascart.ratfunc", "partial_fractions", "ratfunc.partial_fractions"),
    ("ascart.cartier", "cartier_matrix", "cartier.matrix"),
    ("ascart.invariants", "rank", "invariants.rank"),
    ("ascart.invariants", "p_rank_stable", "invariants.p_rank"),
    ("ascart.zeta", "count_points", "zeta.count_points"),
    ("ascart.zeta", "l_from_counts", "zeta.l_from_counts"),
    ("ascart.zeta", "newton_polygon", "zeta.polygons"),
    ("ascart.zeta", "hodge_polygon", "zeta.polygons"),
    ("ascart.zeta", "compare_polygons", "zeta.polygons"),
)

# (class, method, span name)
SPANNED_METHODS = (
    (Poly, "__mul__", "ratfunc.poly_mul"),
    (Poly, "__rmul__", "ratfunc.poly_mul"),
    (PartialFraction, "__mul__", "ratfunc.pf_mul"),
)

# FieldElement method -> counter name.  Counts include operations that other
# counted operations make internally (pth_root multiplies, trace adds).
COUNTED_FIELD_OPS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "inverse": "inv",
    "pth_root": "pth_root",
    "trace_to_prime": "trace",
    "is_zero": "is_zero",
}


def _count_points_elements(spec, s) -> int:
    """Field elements count_points(spec, s) enumerates; counted as zeta.elements."""
    return spec.field.order**s


class Tracer:
    """Patches ascart on ``install`` and records spans and counts until ``restore``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tally = _count_points_elements if name == "zeta.count_points" else None
        counts = self.counts

        def wrapped(*args, **kwargs):
            if tally is not None:
                counts["zeta.elements"] += tally(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return wrapped

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        try:
            modules = [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == "ascart" or n.startswith("ascart."))
            ]
            for module_name, attr, span_name in SPANNED_FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._spanned(span_name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._set(module, attr, wrapped)
            for cls, attr, span_name in SPANNED_METHODS:
                self._set(cls, attr, self._spanned(span_name, cls.__dict__[attr]))
            for attr, name in COUNTED_FIELD_OPS.items():
                self._set(FieldElement, attr, self._counted(name, FieldElement.__dict__[attr]))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reduction ----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, int]] = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            t = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["total_ns"] += end - start
            t["self_ns"] += end - start - children
        return totals
