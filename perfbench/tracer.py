"""Outside-in span tracer for the spingate layers.

The tracer wraps public functions of each package module from outside
the package; nothing under src/ knows it exists.  The package imports by
name (`from .ansatz import circuit_unitary`), so a wrapper is installed
on every module attribute that refers to the original function, which is
the name each caller looks up at call time.  Methods are wrapped on their
class.

A span is (name, parent span, start, end).  Spans live in flat arrays in
memory while the run goes and are written out once it ends.  The tracer
keeps one parent stack, so it is meant for a single-threaded run.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

import numpy as np


_INHERITED = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str | Callable[[object], str],
             on_result: Callable | None = None) -> Callable:
        """`fn` recording one span per call.

        `name` is the span name, or a function of the call's first argument
        that gives it (used for methods whose layer depends on the instance).
        `on_result(args, result)` runs after the span closes.
        """
        fixed = self._id(name) if isinstance(name, str) else None
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fixed if fixed is not None else self._id(name(args[0])))
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap module.attr at every spingate module attribute bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_result)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spingate" and not mod_name.startswith("spingate."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"{module.__name__}.{attr} is not bound in any spingate module")

    def install_method(self, cls: type, attr: str, name, on_result=None) -> None:
        """Wrap a method on `cls`; an inherited one is shadowed, then removed again."""
        self._undo.append((cls, attr, cls.__dict__.get(attr, _INHERITED)))
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, on_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


class SpanTable:
    """Aggregates over the recorded spans: calls, busy time, self time.

    A span's layer is its name up to the first dot.  Self time is a span's
    duration minus the durations of its direct children.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        self._has_parent = self.parent >= 0
        np.add.at(child, self.parent[self._has_parent], self.dur[self._has_parent])
        self.exclusive = self.dur - child
        self.layers = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of_name = np.array([self.layers.index(n.split(".", 1)[0]) for n in self.names],
                                 dtype=int)
        self.layer = layer_of_name[self.nid]
        self.parent_layer = np.full_like(self.layer, -1)
        self.parent_layer[self._has_parent] = self.layer[self.parent[self._has_parent]]

    def _name_mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.nid.shape, dtype=bool)
        return self.nid == self.names.index(name)

    def _layer_mask(self, layer: str) -> np.ndarray:
        if layer not in self.layers:
            return np.zeros(self.nid.shape, dtype=bool)
        return self.layer == self.layers.index(layer)

    def calls(self, name: str) -> int:
        return int(self._name_mask(name).sum())

    def busy_s(self, name: str) -> float:
        return float(self.dur[self._name_mask(name)].sum())

    def p50_us(self, name: str) -> float:
        durations = self.dur[self._name_mask(name)]
        return float(np.median(durations) * 1e6) if durations.size else 0.0

    def self_s(self, name: str) -> float:
        return float(self.exclusive[self._name_mask(name)].sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.exclusive[self._layer_mask(layer)].sum())

    def layer_calls(self, layer: str) -> int:
        return int(self._layer_mask(layer).sum())

    def layer_busy_s(self, layer: str) -> float:
        """Time inside the layer, counting nested spans of the same layer once."""
        mask = self._layer_mask(layer)
        if layer in self.layers:
            mask &= self.parent_layer != self.layers.index(layer)
        return float(self.dur[mask].sum())


@contextmanager
def traced_layers(tracer: Tracer, on_optimizer_result: Callable):
    """Trace the public functions of each spingate layer the workloads run.

    `on_optimizer_result(args, trace)` receives every OptimizationTrace.
    """
    from spingate import ansatz, cost, harness, linalg, noise, optimize, seeding, simulator

    for fn in ("gate_matrices", "layer_unitary", "circuit_unitary"):
        tracer.install_function(ansatz, fn, f"ansatz.{fn}")
    tracer.install_function(linalg, "hs_overlap", "linalg.hs_overlap")
    for fn in ("amplitude_damping", "bell_prep_state", "readout_vector",
               "hs_test_probability", "evolve_density"):
        tracer.install_function(simulator, fn, f"simulator.{fn}")
    tracer.install_function(seeding, "derive_rng", "seeding.derive_rng")
    tracer.install_function(seeding, "derive_subseed", "seeding.derive_subseed")
    tracer.install_function(noise, "perturb", "noise.perturb")
    tracer.install_function(noise, "robustness_sweep", "noise.sweep")
    for fn in ("lbfgs_minimize", "nelder_mead_minimize"):
        tracer.install_function(optimize, fn, f"optimize.{fn}", on_optimizer_result)
    tracer.install_function(optimize, "run_single_restart", "optimize.run_single_restart")
    tracer.install_function(optimize, "multi_restart", "optimize.multi_restart")
    tracer.install_function(harness, "run_experiment", "harness.run_experiment")

    cost_names = {"exact-trace": "cost.exact", "hs-test-statevector": "cost.statevector",
                  "hs-test-density": "cost.density"}
    tracer.install_method(cost.CostEvaluator, "cost", lambda ev: cost_names[ev.mode])
    tracer.install_method(cost.CostEvaluator, "gradient", "cost.grad")
    tracer.install_method(cost.CostEvaluator, "_prepare_density_fastpath", "cost.density.setup")
    # Every file the harness writes goes through Path.write_text.
    tracer.install_method(pathlib.Path, "write_text", "harness.write")
    try:
        yield tracer
    finally:
        tracer.uninstall()
