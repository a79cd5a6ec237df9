"""Tracing kronbrist from outside the program.

``Tracer.install()`` wraps every public function defined in the layer
modules, and rebinds each wrapper wherever a caller resolves the function:
in its own module, in every module that did ``from .x import f``, and in the
package namespace.  ``Matrix.__matmul__``, ``Matrix.apply``,
``Matrix.from_rows``, ``Report.to_json`` and ``Report.to_table`` are wrapped
on their classes.  Nothing in ``src/`` changes.

Each call becomes a span (name, parent span, start, end) kept in flat arrays
in memory.  At the end the spans give each function's call count and self
time (its duration minus the durations of its child spans), and are written
out as folded stacks (``layer.func;layer.func self_microseconds`` per line),
the input format of flame-graph tools.
"""

import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType

LAYERS = ("linalg", "modules", "bristles", "families", "cover", "modfile", "report", "scenarios")

METHODS = {
    ("linalg", "Matrix", "__matmul__"): "linalg.matmul",
    ("linalg", "Matrix", "apply"): "linalg.apply",
    ("linalg", "Matrix", "from_rows"): "linalg.from_rows",
    ("report", "Report", "to_json"): "report.to_json",
    ("report", "Report", "to_table"): "report.to_table",
}

# per-function metrics reported as <name>.calls and <name>.self_s
CALLS_AND_SELF = (
    "linalg.rref", "linalg.kernel_basis", "linalg.subspace_sum", "linalg.matmul",
    "linalg.apply", "linalg.from_rows",
    "modules.hom_dim", "modules.hom_basis", "modules.ar_translate",
    "modules.trace_submodule", "modules.find_isomorphism",
    "bristles.enumerate_bristles", "bristles.is_bristled",
    "cover.push_down", "modfile.parse_module_file",
)
SELF_ONLY = ("report.to_json", "report.to_table")
CALLS_ONLY = ("scenarios.run_scenario",)


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.iso_unknown = 0

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name: str, fn):
        """Add the counters a function's arguments or result carry."""
        if name == "linalg.rref":
            def rref(A):
                cells = A.rows * A.cols
                self.rref_cells += cells
                self.rref_max_cells = max(self.rref_max_cells, cells)
                return fn(A)
            return rref
        if name == "modules.find_isomorphism":
            def find_isomorphism(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.iso_unknown += result.status == "unknown"
                return result
            return find_isomorphism
        return fn

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kronbrist.{layer}")
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, self._observe(name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "kronbrist" and not module_name.startswith("kronbrist."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(f"kronbrist.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def _self_times(self) -> list:
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        return own

    def metrics(self) -> dict:
        """Per-layer metrics of this process, from its spans."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, own in zip(self.span_name, self._self_times()):
            calls[name_id] += 1
            self_s[name_id] += own
        by_name_calls = dict(zip(self.names, calls))
        by_name_self = dict(zip(self.names, self_s))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, own in by_name_self.items():
            layer_self[name.split(".")[0]] += own
        out = {}
        for name in CALLS_AND_SELF + CALLS_ONLY:
            out[f"{name}.calls"] = by_name_calls.get(name, 0)
        for name in CALLS_AND_SELF + SELF_ONLY:
            out[f"{name}.self_s"] = by_name_self.get(name, 0.0)
        for layer in ("linalg", "modules", "bristles", "families", "cover", "scenarios"):
            out[f"{layer}.self_s"] = layer_self[layer]
        out["linalg.rref.cells"] = self.rref_cells
        out["linalg.rref.max_cells"] = self.rref_max_cells
        out["modules.find_isomorphism.unknown"] = self.iso_unknown
        return out

    def write_folded(self, path: Path):
        """Write self time per call path, in microseconds, as folded stacks."""
        path_of = []          # span -> call-path id
        path_ids = {}         # (parent path id, name id) -> call-path id
        path_names = []
        totals = []
        for i, (name_id, parent, own) in enumerate(
                zip(self.span_name, self.span_parent, self._self_times())):
            parent_path = path_of[parent] if parent >= 0 else -1
            key = (parent_path, name_id)
            pid = path_ids.get(key)
            if pid is None:
                pid = path_ids[key] = len(path_names)
                prefix = path_names[parent_path] + ";" if parent_path >= 0 else ""
                path_names.append(prefix + self.names[name_id])
                totals.append(0.0)
            path_of.append(pid)
            totals[pid] += own
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{p} {round(t * 1e6)}\n" for p, t in zip(path_names, totals)),
                        encoding="utf-8")
