"""Per-call time of each cost kernel at several circuit depths.

Calls the public CostEvaluator methods at a seeded parameter vector, so it
also covers routes no workload runs: the two-register statevector oracle
(simulator) and the after-each-gate and final-only damping placements.
"""

from __future__ import annotations

import time

import numpy as np

from spingate.ansatz import build_hva
from spingate.cost import CostEvaluator
from spingate.hamiltonian import heisenberg_spec
from spingate.optimize import InitScheme
from spingate.simulator import NoisyCircuitPlan, amplitude_damping
from spingate.targets import toffoli

DEPTHS = (1, 6, 12)
DAMPING_P = 0.01
BATCHES = 5

_PLACEMENTS = {"density_layer": "after-each-layer", "density_gate": "after-each-gate",
               "density_final": "final-only"}
KERNELS = ("exact", "grad", "statevector", *_PLACEMENTS)


def _kernel_calls(m: int):
    target = toffoli()
    circuit = build_hva(heisenberg_spec(target.n), m)
    exact = CostEvaluator(circuit, target, mode="exact-trace")
    calls = {"exact": exact.cost, "grad": exact.gradient,
             "statevector": CostEvaluator(circuit, target, mode="hs-test-statevector").cost}
    for kernel, placement in _PLACEMENTS.items():
        plan = NoisyCircuitPlan(circuit, amplitude_damping(DAMPING_P), placement)
        calls[kernel] = CostEvaluator(circuit, target, mode="hs-test-density", plan=plan).cost
    return calls


def _per_call_s(fn, theta: np.ndarray, budget_s: float) -> float:
    """Median over BATCHES batches of the mean call time within a batch."""
    fn(theta)  # first call pays lazy set-up, which users pay once per run
    t0 = time.perf_counter()
    fn(theta)
    once = max(time.perf_counter() - t0, 1e-7)
    per_batch = max(1, int(budget_s / BATCHES / once))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn(theta)
        samples.append((time.perf_counter() - t0) / per_batch)
    return float(np.median(samples))


def depth_table(seed: int, budget_s: float) -> dict[str, float]:
    """{'cost.<kernel>.us_m<m>': microseconds per call}, `budget_s` per entry."""
    theta = InitScheme().sample(np.random.default_rng(seed), heisenberg_spec(3).q)
    table = {}
    for m in DEPTHS:
        for kernel, fn in _kernel_calls(m).items():
            table[f"cost.{kernel}.us_m{m}"] = _per_call_s(fn, theta, budget_s) * 1e6
    return table
