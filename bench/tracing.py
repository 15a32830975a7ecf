"""In-memory span tracer installed from the benchmark's own files.

The tracer wraps public functions of the ``spin7`` modules by replacing
module attributes; the library itself is not modified.  A wrapped
function is replaced wherever a loaded ``spin7`` module binds it, so the
names that other modules import with ``from spin7.forms import wedge``
(and the ``expm`` bound in ``spin7.projection``) are covered as well.

Spans are recorded only inside a scope opened with :meth:`Tracer.scope`
(one per request, plus one for set-up), so input generation and output
checks running between requests leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) pairs wrapped by the tracer; the span name is
# "<module>.<attribute>" with the "spin7." prefix dropped.
TARGETS = {
    "spin7.forms": ("wedge", "hodge_star", "contract", "inner"),
    "spin7.linalg": ("rref", "nullspace", "rank", "solve"),
    "spin7.splits": ("operator_matrix", "infinitesimal_action",
                     "two_form_split", "three_form_split", "four_form_split",
                     "stabilizer_dimension", "su4_two_form_refinement",
                     "cylinder_two_form_types"),
    "spin7.projection": ("fourth_exterior_power", "apply_map", "expm",
                         "theta_project", "type_projector"),
    "spin7.wps": ("scan_admissible", "singular_strata", "well_formed",
                  "diagonal_quasismooth", "isolated_z4_check",
                  "involution_check"),
    "spin7.charnum": ("steenbrink_hodge", "euler_characteristics",
                      "noether_pg"),
    "spin7.config": ("load_config", "analyze"),
    "spin7.invariants": ("compute_report",),
    "spin7.cli": ("main", "render_analysis"),
}
# methods wrapped on their class: (module, class, method)
METHOD_TARGETS = (("spin7.charnum", "GradedMonomialRing", "hilbert"),)

# the layer of a span is the first component of its name
LAYERS = ("forms", "linalg", "splits", "projection", "wps", "charnum",
          "config", "invariants", "cli")


class Tracer:
    """Records (name, start, end, parent, scope) spans in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.scopes: list[str] = []   # scope id -> label ("setup" or kind)
        self._stack: list[int] = []   # indices of open spans
        self._scope = -1
        self._restore: list[tuple[object, str, object]] = []
        self.scan_counts = {"enumerated": 0, "diagonal": 0, "accepted": 0}

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target, importing the modules that hold them."""
        for module_name in TARGETS:
            importlib.import_module(module_name)
        spin7_modules = [m for name, m in list(sys.modules.items())
                         if (name == "spin7" or name.startswith("spin7."))
                         and m is not None]
        for module_name, attrs in TARGETS.items():
            module = sys.modules[module_name]
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{module_name[6:]}.{attr}", original)
                for m in spin7_modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, key, value))
                            setattr(m, key, wrapper)
        for module_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(f"{module_name[6:]}.{method}", original))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        observe = (tracer._observe_scan if name == "wps.scan_admissible"
                   else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._scope < 0:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer._scope))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer._scope)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_scan(self, candidates):
        self.scan_counts["enumerated"] += len(candidates)
        self.scan_counts["accepted"] += sum(c.accepted for c in candidates)
        self.scan_counts["diagonal"] += sum(
            not any(sum(c.weights) % a for a in c.weights)
            for c in candidates)

    @contextmanager
    def scope(self, label: str):
        """Record the spans of one request (or of set-up) under ``label``."""
        self.scopes.append(label)
        self._scope = len(self.scopes) - 1
        try:
            yield
        finally:
            self._scope = -1
            self._stack.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self, include) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over
        the scopes whose label satisfies ``include``."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, scope) in enumerate(self.spans):
            if not include(self.scopes[scope]):
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return dict(out)

    def layer_calls(self, include) -> dict[str, int]:
        """Calls per layer over the scopes whose label satisfies
        ``include`` (zero for layers never entered)."""
        calls = dict.fromkeys(LAYERS, 0)
        for name, row in self.aggregate(include).items():
            calls[name.split(".")[0]] += row["calls"]
        return calls

    def write(self, path):
        """Write every span as one JSON line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, scope in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "scope": scope,
                    "label": self.scopes[scope]}) + "\n")
