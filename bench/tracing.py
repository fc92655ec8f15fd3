"""Tracing from outside the library: wrappers around every public function.

``Tracer.install()`` replaces every module-level binding of every public
function defined in ``abmod.*``.  The modules import each other with
``from .x import f``, so one function has many bindings; patching only
``abmod.x.f`` would miss most callers.  The arithmetic dunders of ``Scalar``
and ``Series`` get counting wrappers, and ``IntertwinerSystem.solve`` gets a
timing wrapper.

A *layer* is a module of ``abmod`` (``linalg``, ``invariants``, ...).  A call
that enters a layer from another layer opens a span: (function, start, end,
parent span, item id).  Calls inside the layer it is already in are counted
but open no span, which keeps the span list small.  A layer's self time is
the length of its spans minus the part covered by their child spans.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

_NOW = time.perf_counter_ns

# Functions whose inclusive time is summed over outermost calls.
GROUPS = {
    "linalg.rref": "elim",
    "linalg.nullspace": "elim",
    "linalg.det": "elim",
    "linalg.inverse": "elim",
    "linalg.solve": "elim",
    "linalg.eigenvalues": "eigen",
    "morphisms.IntertwinerSystem.solve": "solve",
    "morphisms.find_invertible": "find_invertible",
    "morphisms.verify_intertwiner": "verify",
}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse")
SERIES_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "invert")


def public_functions() -> dict:
    """``{"layer.name": function}`` for every public function defined in a
    loaded ``abmod`` module (lru-cached functions included)."""
    found = {}
    for modname, module in sorted(sys.modules.items()):
        if module is None or not modname.startswith("abmod."):
            continue
        layer = modname.split(".", 1)[1]
        for name, value in vars(module).items():
            if name.startswith("_") or not callable(value) or inspect.isclass(value):
                continue
            if getattr(value, "__module__", None) != modname:
                continue
            found[f"{layer}.{name}"] = value
    return found


class Tracer:
    """Counts, group timings and layer-boundary spans of one traced pass."""

    def __init__(self):
        self.active = False
        self.item = None
        self.calls = Counter()
        self.ops = Counter()  # "scalars" / "series" -> dunder calls
        self.spans = []       # [name, start_ns, end_ns, parent index, item id]
        self.stack = [("", -1)]  # (layer, span index) of the open spans
        self.group_depth = Counter()
        self.group_ns = Counter()
        self.group_calls = Counter()
        self.charpolys = Counter()
        self.saturate_steps = 0
        self.params_alive = 0
        self.fd_errors = Counter()
        self._undo = []
        self._seen = {}
        self._cache0 = None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding; ``uninstall`` puts the originals back."""
        import abmod  # noqa: F401  (loads every submodule)
        from abmod import morphisms, scalars, series

        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "abmod" or modname.startswith("abmod.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._patch_attr(module, attr, wrappers[id(value)])
        self._cache0 = abmod.invariants.saturate.cache_info()
        name = "morphisms.IntertwinerSystem.solve"
        self._patch_attr(morphisms.IntertwinerSystem, "solve",
                         self._wrap(name, morphisms.IntertwinerSystem.solve))
        for cls, layer, ops in ((scalars.Scalar, "scalars", SCALAR_OPS),
                                (series.Series, "series", SERIES_OPS)):
            for op in ops:
                self._patch_attr(cls, op, self._counting(layer, getattr(cls, op)))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    def _patch_attr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counting(self, layer, fn):
        ops = self.ops

        def counted(*args):
            if self.active:
                ops[layer] += 1
            return fn(*args)

        return counted

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        group = GROUPS.get(name)
        after = {
            "invariants.saturate": self._after_saturate,
            "morphisms.IntertwinerSystem.solve": self._after_solve,
            "determination.verify_fd": self._after_verify_fd,
            "linalg.poly_roots_qi": self._after_poly_roots,
        }.get(name)
        tracer = self
        calls, stack, spans = self.calls, self.stack, self.spans
        depth, group_ns, group_calls = self.group_depth, self.group_ns, self.group_calls

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            boundary = stack[-1][0] != layer
            outer = group is not None and depth[group] == 0
            if not (boundary or outer or after):
                return fn(*args, **kwargs)
            if group is not None:
                depth[group] += 1
            if boundary:
                index = len(spans)
                spans.append(None)
                stack.append((layer, index))
            start = _NOW()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _NOW()
                if boundary:
                    stack.pop()
                    spans[index] = (name, start, end, stack[-1][1], tracer.item)
                if group is not None:
                    depth[group] -= 1
                    if outer:
                        group_ns[group] += end - start
                        group_calls[group] += 1
            if after:
                after(args, result)
            return result

        functools.update_wrapper(traced, fn)
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    # -- per-function hooks, called with the arguments and the result ----

    def _after_saturate(self, args, result):
        # A cache miss returns an object not seen before; keeping the
        # objects alive keeps their ids unique.
        if id(result) not in self._seen:
            self._seen[id(result)] = result
            self.saturate_steps += result.steps

    def _after_solve(self, args, result):
        self.params_alive += len(args[0].alive)

    def _after_verify_fd(self, args, result):
        for failure in result["failures"]:
            self.fd_errors[failure["error"]] += 1

    def _after_poly_roots(self, args, result):
        self.charpolys[tuple((c.re, c.im) for c in args[0])] += 1

    # -- results ----------------------------------------------------------

    def layer_table(self) -> dict:
        """``{layer: {"calls": n, "spans": n, "self_s": s, "total_s": s}}``."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        table = {}
        for name, count in self.calls.items():
            row = table.setdefault(name.split(".", 1)[0],
                                   {"calls": 0, "spans": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += count
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            row = table[span[0].split(".", 1)[0]]
            row["spans"] += 1
            row["total_s"] += (span[2] - span[1]) / 1e9
            row["self_s"] += (span[2] - span[1] - child_ns[index]) / 1e9
        return table

    def summary(self) -> dict:
        """Everything a traced pass reports, as JSON-able data."""
        from abmod import invariants

        info = invariants.saturate.cache_info()
        return {
            "calls": dict(self.calls),
            "ops": dict(self.ops),
            "layers": self.layer_table(),
            "group_s": {g: ns / 1e9 for g, ns in self.group_ns.items()},
            "group_calls": dict(self.group_calls),
            "charpoly_calls": sum(self.charpolys.values()),
            "charpoly_distinct": len(self.charpolys),
            "saturate_steps": self.saturate_steps,
            "saturate_hits": info.hits - self._cache0.hits,
            "saturate_misses": info.misses - self._cache0.misses,
            "params_alive": self.params_alive,
            "fd_errors": dict(self.fd_errors),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


def merge_summaries(parts: list) -> dict:
    """Add up the summaries of several traced processes (the ``cli`` pass)."""
    def add(into, part):
        for key, value in part.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            else:
                into[key] = into.get(key, 0) + value
        return into

    total = {}
    for part in parts:
        add(total, part)
    return total
