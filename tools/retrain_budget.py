"""Compare simplex-phase lengths of the damping re-training, start by start.

    PYTHONPATH=src python3 tools/retrain_budget.py --seeds 10 7 3 5 \\
        --placements after-each-layer final-only after-each-gate --lengths 50 75 100

For each master seed and target, the script compiles the gate as a
damping sweep does (`multi_restart` with the default [optimizer] and
init), then at each damping grid point builds the re-training starts with
`harness._damping_inits` (warm kicks, or fresh draws with `--cold`) and
re-trains them with `optimize.retrain`: once with REFERENCE_ITERS
simplex iterations, and once per asked length.  The length is set on
`optimize.RETRAIN_SIMPLEX_ITERS` for that one call and restored after it.

For each length it prints one JSON object per placement, comparing every
start with its own REFERENCE_ITERS result:

* `above` and `below`: the starts whose final cost ends more than
  THRESHOLD above or below it, and `above_starts`, each start that ends
  above as [seed, target, p, start index, reference cost, new cost];
* `mean_cost_difference`: the mean of new minus reference final cost;
* `worst_point_drop`: the largest fall of a grid point's mean fidelity
  over its starts, and where it happened;
* `density_evals` and `retrain_s`, beside `reference_density_evals` and
  `reference_retrain_s`: the density cost evaluations and wall seconds
  of the re-trainings (density gradients are not counted).

A length equal to REFERENCE_ITERS is re-run, not copied, so it must
print 0 above, 0 below and the reference's evaluation count.  The
default protocol (4 seeds, 2 targets, 5 grid points, 20 starts) re-trains
800 starts per placement and length, about half a minute each after each
layer or final-only and a few minutes after each gate, on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from spingate import optimize  # noqa: E402
from spingate.cost import CostEvaluator  # noqa: E402
from spingate.harness import (DEFAULT_DAMPING_GRID, ExperimentConfig, _damping_inits,  # noqa: E402
                              _evaluator)
from spingate.simulator import PLACEMENTS, NoisyCircuitPlan, amplitude_damping  # noqa: E402

# the simplex length every start is compared against: the value the
# re-training ran with before any length was chosen by this script
REFERENCE_ITERS = 150
# a final cost this far from its reference counts as above or below it
THRESHOLD = 1e-4
DEFAULT_TARGETS = ("toffoli:6", "fredkin:5")


@contextmanager
def simplex_iters(length: int):
    """Run the re-trainings inside with `length` simplex iterations."""
    saved = optimize.RETRAIN_SIMPLEX_ITERS
    optimize.RETRAIN_SIMPLEX_ITERS = length
    try:
        yield
    finally:
        optimize.RETRAIN_SIMPLEX_ITERS = saved


def retrain_at(circuit, target, plan, starts, cfg, length) -> tuple[np.ndarray, int, float]:
    """Final costs, density cost evaluations and seconds of one re-training batch."""
    density = CostEvaluator(circuit, target, plan=plan)
    with simplex_iters(length):
        start = time.perf_counter()
        traces = optimize.retrain(density, starts, cfg.optimizer)
        elapsed = time.perf_counter() - start
    return np.array([t.final_cost for t in traces]), density.eval_count, elapsed


def measure(seeds, targets, placements, lengths, warm, restarts, grid) -> list[dict]:
    """One result dict per (length, placement), in that order."""
    tally = {(L, pl): {"above": [], "below": 0, "diffs": [], "drops": [], "evals": 0,
                       "seconds": 0.0, "ref_evals": 0, "ref_seconds": 0.0}
             for L in lengths for pl in placements}
    for seed in seeds:
        for name, m in targets:
            cfg = ExperimentConfig(kind="damping-sweep", target=name, m=(m,), master_seed=seed,
                                   damping_grid=grid, damping_restarts=restarts,
                                   warm_start=warm)
            noiseless = _evaluator(cfg, m)
            theta_star = optimize.multi_restart(noiseless, cfg.init, cfg.optimizer).best.final_theta
            circuit = noiseless.circuit
            for gi, p in enumerate(grid):
                starts = _damping_inits(cfg, theta_star, gi, circuit.q)
                for placement in placements:
                    plan = NoisyCircuitPlan(circuit, amplitude_damping(float(p)), placement)
                    ref, ref_evals, ref_s = retrain_at(circuit, noiseless.target, plan, starts,
                                                       cfg, REFERENCE_ITERS)
                    for L in lengths:
                        new, evals, seconds = retrain_at(circuit, noiseless.target, plan, starts,
                                                         cfg, L)
                        t = tally[L, placement]
                        diff = new - ref
                        t["above"] += [[seed, name, float(p), int(i), float(ref[i]), float(new[i])]
                                       for i in np.flatnonzero(diff > THRESHOLD)]
                        t["below"] += int(np.count_nonzero(diff < -THRESHOLD))
                        t["diffs"].append(diff)
                        # mean fidelity is 1 - mean cost, so it drops by the mean rise
                        t["drops"].append((float(diff.mean()), seed, name, float(p)))
                        t["evals"] += evals
                        t["seconds"] += seconds
                        t["ref_evals"] += ref_evals
                        t["ref_seconds"] += ref_s

    results = []
    for (L, placement), t in tally.items():
        drop, seed, name, p = max(t["drops"])
        results.append({
            "length": L, "reference_length": REFERENCE_ITERS, "placement": placement,
            "starts": "warm" if warm else "cold", "seeds": list(seeds),
            "targets": [f"{n}:{m}" for n, m in targets], "grid": list(grid),
            "restarts_per_point": restarts, "n_starts": int(sum(d.size for d in t["diffs"])),
            "above": len(t["above"]), "below": t["below"], "above_starts": t["above"],
            "mean_cost_difference": float(np.concatenate(t["diffs"]).mean()),
            "worst_point_drop": {"drop": drop, "seed": seed, "target": name, "p": p},
            "density_evals": t["evals"], "reference_density_evals": t["ref_evals"],
            "retrain_s": round(t["seconds"], 3),
            "reference_retrain_s": round(t["ref_seconds"], 3),
        })
    return results


def _target(text: str) -> tuple[str, int]:
    name, _, m = text.partition(":")
    return name, int(m)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[10, 7, 3, 5])
    parser.add_argument("--targets", type=_target, nargs="+",
                        default=[_target(t) for t in DEFAULT_TARGETS],
                        help=f"target:m pairs (default: {' '.join(DEFAULT_TARGETS)})")
    parser.add_argument("--placements", nargs="+", choices=PLACEMENTS,
                        default=["after-each-layer"])
    parser.add_argument("--lengths", type=int, nargs="+", default=[50, 75, 100])
    parser.add_argument("--cold", action="store_true",
                        help="fresh init draws as starts (warm_start = false)")
    parser.add_argument("--restarts", type=int, default=20, help="starts per grid point")
    parser.add_argument("--grid", type=float, nargs="+", default=list(DEFAULT_DAMPING_GRID))
    args = parser.parse_args(argv)
    for result in measure(args.seeds, args.targets, args.placements, args.lengths,
                          not args.cold, args.restarts, tuple(args.grid)):
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
