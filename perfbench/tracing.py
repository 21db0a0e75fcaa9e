"""Span tracing installed from outside the package (standard library only).

The worker imports this module before ``ioqfr`` and before numpy, so it
must not import anything that loads BLAS.

Each traced function or method is replaced by a wrapper that records a
span: layer name, start, end, the enclosing span and a work measure. A module
calls a function through whatever name its own globals hold (``bounds``
keeps its own ``matrix_spectrum``, ``response_matrix`` and ``hermitize``),
so a module-level function is rebound in every loaded ``ioqfr`` module that
holds it; a method is replaced on its class. A target that does not exist
at the traced commit is skipped, and a layer whose targets are all missing
is reported absent instead of failing the run.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Work measures: computed flops of a complex LU (8 n^3 / 3 real flops for
# order n), and the right-hand sides of a solve.
def _lu_flops(_self, a, *args, **kwargs) -> float:
    return 8.0 * len(a) ** 3 / 3.0


def _rhs_count(_self, b, *args, **kwargs) -> float:
    shape = getattr(b, "shape", ())
    return 1.0 if len(shape) < 2 else float(shape[1])


# (layer, module, attribute, work measure). An attribute "Class.method" is a
# method; "*" stands for every function named in the module's __all__.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("numkit.lu_factor", "numkit", "LUFactor.__init__", _lu_flops),
    ("numkit.lu_solve", "numkit", "LUFactor.solve", _rhs_count),
    ("numkit.eig", "numkit", "eig", None),
    ("numkit.pinv", "numkit", "pinv", None),
    ("numkit.psd_inv_sqrt", "numkit", "psd_inv_sqrt", None),
    ("hilbert", "hilbert", "*", None),
    ("lindblad.liouvillian", "lindblad", "liouvillian", None),
    ("lindblad.steady_state", "lindblad", "steady_state", None),
    ("lindblad.prepare", "lindblad", "prepare", None),
    ("lindblad.resolvent", "lindblad", "Resolvent.__init__", None),
    ("lindblad.resolvent", "lindblad", "Resolvent.apply", None),
    ("lindblad.resolvent", "lindblad", "Resolvent.apply_many", None),
    ("response.response_matrix", "response", "response_matrix", None),
    ("spectra.matrix_spectrum", "spectra", "matrix_spectrum", None),
    ("models.build", "models", "rf_model", None),
    ("models.build", "models", "kerr_cat_model", None),
    ("models.build", "models", "classical_jump_model", None),
    ("models.build", "lindblad", "LindbladModel.__post_init__", None),
    ("bounds.evaluate_point", "bounds", "evaluate_point", None),
    ("bounds.activity_matrix", "bounds", "activity_matrix", None),
    ("bounds.certify_bound", "bounds", "certify_bound", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    work: float = 0.0  # the layer's work measure, when it has one


class Tracer:
    """Collects spans in memory; the worker summarizes them when it ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.enabled = True
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self._clock(), 0.0,
                        self._stack[-1] if self._stack else -1,
                        work(*args, **kwargs) if work else 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
        return traced

    def install(self, package: str = "ioqfr", targets=TARGETS) -> None:
        """Wrap every target found in the already imported ``package``."""
        prefix = package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(prefix))]
        for layer, module_name, attr, work in targets:
            module = sys.modules.get(prefix + module_name)
            if module is None:
                continue
            if attr == "*":
                for name in getattr(module, "__all__", ()):
                    if callable(getattr(module, name, None)):
                        self._rebind(modules, getattr(module, name), layer, work)
                continue
            owner, _, method = attr.partition(".")
            obj = getattr(module, owner, None)
            if obj is None:
                continue
            if method:
                fn = vars(obj).get(method)
                if fn is None:
                    continue
                setattr(obj, method, self.wrap(layer, fn, work))
                self.installed.add(layer)
            else:
                self._rebind(modules, obj, layer, work)

    def _rebind(self, modules, original: Callable, layer: str, work) -> None:
        wrapped = self.wrap(layer, original, work)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        self.installed.add(layer)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def count_within(spans: list[Span], name: str, ancestor: str) -> int:
    """Spans called ``name`` that run inside a span called ``ancestor``."""
    total = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != ancestor:
            parent = spans[parent].parent
        total += parent >= 0
    return total


def summarize(tracer: Tracer) -> dict:
    """Per-layer totals of one worker: count, self time, summed work,
    and every span duration of the layers reported as percentiles."""
    layers: dict[str, dict] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = layers.setdefault(span.name, {"count": 0, "self_s": 0.0,
                                              "total_s": 0.0, "work": 0.0})
        entry["count"] += 1
        entry["self_s"] += own
        entry["total_s"] += span.end - span.start
        entry["work"] += span.work
    point_durations = [s.end - s.start for s in tracer.spans
                       if s.name == "bounds.evaluate_point"]
    return {
        "installed": sorted(tracer.installed),
        "layers": layers,
        "evaluate_point_durations": point_durations,
        "lu_factor_in_points": count_within(
            tracer.spans, "numkit.lu_factor", "bounds.evaluate_point"),
    }
