"""In-memory spans around the public functions of price-kit's layers.

A :class:`Tracer` replaces each public function of the layer modules with
a wrapper, in every ``pricekit`` module namespace that holds it (so a call
that ``pricekit.cli`` or ``pricekit.entropy`` makes through an imported
name is seen), and wraps ``QuantumProcess.__init__`` on the class.  Spans
are appended to a list and summarised after the run; nothing under the
package is edited, and :meth:`Tracer.uninstall` restores every attribute.

``measure`` gets no spans: its calls are sub-microsecond and frequent, so
wrapping them would cost more than the work they do; their time appears in
the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from types import FunctionType

LAYERS = ("cli", "process", "price", "laws", "entropy", "openproc", "quantum")
WRAPPED_CLASSES = {"quantum": ("QuantumProcess",)}
OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for an op's root span
    op: int
    cells: int = 0   # environmental_profile only: |blocks_a| * |blocks_b|

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _cells(args, kwargs) -> int:
    part_a = kwargs.get("part_a", args[1] if len(args) > 1 else None)
    part_b = kwargs.get("part_b", args[2] if len(args) > 2 else None)
    return len(part_a.blocks) * len(part_b.blocks)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import pricekit  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pricekit" or n.startswith("pricekit."))]
        for layer in LAYERS:
            mod = sys.modules[f"pricekit.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for target in modules:
                    if vars(target).get(attr) is fn:
                        self._patch(target, attr, wrapper)
            for cls_name in WRAPPED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, "__init__",
                            self._wrap(f"{layer}.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def _patch(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_cells = name == "entropy.environmental_profile"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._op)
            if count_cells:
                span.cells = _cells(args, kwargs)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Call ``fn`` under a root span named ``bench.op``; return its result."""
        self._op = op_id
        idx = len(self.spans)
        span = Span(OP_SPAN, 0.0, 0.0, -1, op_id)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = -1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous on one thread, so children of one span are
    disjoint intervals inside it and their durations add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def inclusive_time(spans: list[Span], name: str) -> float:
    """Total duration of the outermost spans called ``name``."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op averages of the per-layer metrics, keyed by metric name."""
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(t for s, t in zip(spans, selfs) if s.layer == layer) / n_ops, "s/op")
        out[f"{layer}.calls"] = (sum(1 for s in spans if s.layer == layer) / n_ops, "calls/op")

    def calls(name):
        return sum(1 for s in spans if s.name == name) / n_ops

    def inclusive(name):
        return inclusive_time(spans, name) / n_ops

    for name in ("process.fitness", "process.validate", "process.price_factorize",
                 "entropy.environmental_profile", "quantum.QuantumProcess",
                 "quantum.q_fitness"):
        out[f"{name}.calls"] = (calls(name), "calls/op")
    out["entropy.environmental_profile.self_s"] = (
        sum(t for s, t in zip(spans, selfs) if s.name == "entropy.environmental_profile") / n_ops,
        "s/op")
    out["entropy.cells"] = (sum(s.cells for s in spans) / n_ops, "cells/op")
    for name in ("entropy.third_law", "entropy.dispersion_mixing_bounds",
                 "entropy.reversibility", "entropy.intergenerational_ec_change",
                 "entropy.ks_entropy_curve", "laws.standard_reports", "laws.stationarity",
                 "openproc.kgs", "quantum.embed_process", "quantum.q_partition_entropy",
                 "quantum.q_factorize"):
        out[f"{name}.s"] = (inclusive(name), "s/op")
    out["quantum.QuantumProcess.init_s"] = (inclusive("quantum.QuantumProcess"), "s/op")
    return out
