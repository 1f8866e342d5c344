"""The benchmark's tracer still finds every package function it wraps.

`perfbench/tracer.py` looks its functions and methods up by name, so a
rename under src/ would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from spingate import optimize
from spingate.cost import CostEvaluator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_installs_and_uninstalls_every_wrapper(monkeypatch):
    tracer = load_tracer(monkeypatch)
    originals = (optimize.multi_restart, optimize.lbfgs_minimize, CostEvaluator.cost)
    with tracer.traced_layers(tracer.Tracer(), lambda args, trace: None):
        assert optimize.multi_restart is not originals[0]
        assert optimize.lbfgs_minimize is not originals[1]
        assert CostEvaluator.cost is not originals[2]
    assert (optimize.multi_restart, optimize.lbfgs_minimize, CostEvaluator.cost) == originals
