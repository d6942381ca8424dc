"""Timing wrappers around the package's public entry points.

``Tracer`` replaces each wrapped function with a wrapper that records a
span: name, parent span, start and end. The wrapper is bound wherever the
function is bound, including namespaces that imported it by name (``cli``
imports ``run_design_flow`` and its siblings, ``design`` imports the stack
builders). Spans stay in flat arrays until the run ends, then reduce to
per-layer calls, busy time (outermost spans of the layer) and self time
(span minus its child spans). Nothing inside the package changes.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "stripcavity"

# layer name -> (module, entry points); None means every function in __all__.
LAYERS = {
    "cli": ("stripcavity.cli", ["main"]),
    "design": ("stripcavity.design",
               ["run_design_flow", "sweep_curves", "reproduce_table2", "mlc_convergence"]),
    "analytic": ("stripcavity.analytic", None),
    "tmm": ("stripcavity.tmm", ["scatter", "input_impedance", "sweep", "argmax_absorptance"]),
    "kernels": ("stripcavity._kernels", ["chain_product", "chain_sweep"]),
    "stack": ("stripcavity.stack", ["build_ssc", "build_dsc", "build_mlc", "load_stack_config"]),
    "materials": ("stripcavity.materials", ["load_registry"]),
}

# span name -> (counter, amount of work from (args, result))
COUNTERS = {
    "tmm.sweep": ("tmm.points", lambda args, res: len(args[2])),
    "tmm.scatter": ("tmm.points", lambda args, res: 1),
    "tmm.input_impedance": ("tmm.points", lambda args, res: 1),
    "kernels.chain_sweep": ("kernels.layer_points", lambda args, res: len(args[0]) * len(args[3])),
    "kernels.chain_product": ("kernels.layer_points", lambda args, res: len(args[0])),
    "stack.build_ssc": ("stack.layers_built", lambda args, res: len(res.layers)),
    "stack.build_dsc": ("stack.layers_built", lambda args, res: len(res.layers)),
    "stack.build_mlc": ("stack.layers_built", lambda args, res: len(res.layers)),
    "stack.load_stack_config": ("stack.layers_built", lambda args, res: len(res.stack.layers)),
}


def _entry_points(module, names):
    if names is None:
        names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    return {name: getattr(module, name) for name in names}


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name, fn in _entry_points(module, names).items():
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")

    def _wrap(self, fn, layer: str, span: str):
        name_id = len(self.names)
        self.names.append(span)
        self.layer_of.append(layer)
        names_append, parent_append = self.span_name.append, self.parent.append
        start_append, end_append, end = self.start.append, self.end.append, self.end
        stack, perf = self._stack, time.perf_counter
        counter, count = COUNTERS.get(span, (None, None))
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = len(end)
            names_append(name_id)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if count is not None:
                counters[counter] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @property
    def spans(self) -> int:
        return len(self.end)

    def summary(self) -> dict[str, float]:
        """Totals over every recorded span: per layer calls, busy_ms, self_ms;
        ``tmm.argmax_ms`` and ``tmm.argmax_sweeps``; plus the work counters."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        layers = list(LAYERS)
        layer_idx = np.array([layers.index(l) for l in self.layer_of], dtype=np.int64)[names]
        parent_layer = np.where(has_parent, layer_idx[np.where(has_parent, parent, 0)], -1)
        outermost = parent_layer != layer_idx

        out: dict[str, float] = {}
        for i, layer in enumerate(layers):
            mine = layer_idx == i
            out[f"{layer}.calls"] = float(mine.sum())
            out[f"{layer}.busy_ms"] = float(dur[mine & outermost].sum() * 1e3)
            out[f"{layer}.self_ms"] = float(self_time[mine].sum() * 1e3)

        argmax = names == self.names.index("tmm.argmax_absorptance")
        sweep = names == self.names.index("tmm.sweep")
        parent_is_argmax = np.zeros(len(dur), bool)
        parent_is_argmax[has_parent] = argmax[parent[has_parent]]
        out["tmm.argmax_calls"] = float(argmax.sum())
        out["tmm.argmax_ms"] = float(dur[argmax].sum() * 1e3)
        out["tmm.argmax_sweeps"] = float((sweep & parent_is_argmax).sum())
        out.update({k: float(v) for k, v in self.counters.items()})
        return out
