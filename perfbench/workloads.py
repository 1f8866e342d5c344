"""The three benchmark workloads and the checks run on their outputs.

Each workload is one `run_experiment` call, the entry point the CLI uses.
Why these three: `compile-toffoli` is the paper's headline job (adjoint
gradient plus exact-trace cost under L-BFGS); `noise-sampled` runs the
exact-trace cost forward many times at one fixed parameter vector, with
the noise and seeding layers busy and almost no gradients; and
`damping-retrain` is the only one on the 64x64 density route, driven by
Nelder-Mead.  A change to one route is exercised by one workload and
bypassed by the others.

Importing this module imports spingate, so the caller must have set up
the import path and BLAS threads first (see benchenv).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spingate import harness
from spingate.ansatz import build_hva
from spingate.cost import CostEvaluator
from spingate.hamiltonian import heisenberg_spec
from spingate.harness import ExperimentConfig
from spingate.optimize import OptimizerConfig
from spingate.simulator import NoisyCircuitPlan, amplitude_damping
from spingate.targets import resolve_target

ROUTE_TOLERANCE = 1e-10

# Fields that hold wall-clock readings; reruns may differ only in these.
WALL_CLOCK_CSV_COLUMNS = {"elapsed_ms"}
WALL_CLOCK_RECORD_FIELDS = ("created_utc", "run_dir")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    target: str
    m: int
    restarts: int
    noise_samples: int = 200
    damping_grid: tuple[float, ...] = ()
    damping_restarts: int = 1

    def config(self, master_seed: int, output_dir: Path, smoke: bool = False) -> ExperimentConfig:
        """The experiment config; `smoke` shrinks every size to check plumbing only."""
        kwargs = dict(kind=self.kind, target=self.target, m=(self.m,),
                      master_seed=master_seed, output_dir=str(output_dir),
                      optimizer=OptimizerConfig(algorithm="lbfgs", restarts=self.restarts))
        if self.kind == "coherent-noise-sweep":
            kwargs.update(noise_mode="uniform-sample", noise_samples=self.noise_samples)
        if self.kind == "damping-sweep":
            kwargs.update(damping_grid=self.damping_grid, damping_restarts=self.damping_restarts,
                          damping_placement="after-each-layer")
        if smoke:
            kwargs.update(m=(2,), noise_samples=10, noise_grid=(0.0, 0.05, 0.1),
                          damping_grid=self.damping_grid[:1], damping_restarts=1,
                          optimizer=OptimizerConfig(algorithm="lbfgs",
                                                    restarts=min(self.restarts, 2), max_iters=10))
        return ExperimentConfig(**kwargs)


WORKLOADS = {w.name: w for w in (
    Workload("compile-toffoli", "compile", "toffoli", m=6, restarts=10),
    Workload("noise-sampled", "coherent-noise-sweep", "fredkin", m=5, restarts=4,
             noise_samples=300),
    Workload("damping-retrain", "damping-sweep", "toffoli", m=6, restarts=2,
             damping_grid=(0.005, 0.02), damping_restarts=1),
)}


def master_seed(seed: int, k: int) -> int:
    """Master seed of call `k` in a run at `seed`: call 0 uses `seed` itself."""
    return seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def build_evaluators(cfg: ExperimentConfig) -> list[CostEvaluator]:
    """The evaluators a run of `cfg` builds: exact-trace, then one density per damping point."""
    target = resolve_target(cfg.target)
    circuit = build_hva(heisenberg_spec(target.n), cfg.single_m)
    evaluators = [CostEvaluator(circuit, target, mode="exact-trace")]
    if cfg.kind == "damping-sweep":
        for p in cfg.damping_grid:
            plan = NoisyCircuitPlan(circuit, amplitude_damping(float(p)), cfg.damping_placement)
            evaluators.append(CostEvaluator(circuit, target, mode="hs-test-density", plan=plan))
    return evaluators


@contextmanager
def capture_compile_summaries(sink: list):
    """Keep every compile-phase RestartSummary that run_experiment produces.

    The harness does not return the summary for every experiment kind, so
    the benchmark takes it on its way out of `harness.multi_restart`.
    """
    original = harness.multi_restart

    def capture(*args, **kwargs):
        summary = original(*args, **kwargs)
        sink.append(summary)
        return summary

    harness.multi_restart = capture
    try:
        yield
    finally:
        harness.multi_restart = original


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON value {token}")


def _csv_cells(text: str):
    for line in text.splitlines()[1:]:
        yield from line.split(",")


def _nonfinite_cells(cells) -> int:
    bad = 0
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue  # a label, not a number
        bad += not math.isfinite(value)
    return bad


def canonical_outputs(run_dir: Path) -> dict[str, str]:
    """Every output file with its wall-clock fields removed, for rerun comparison."""
    out = {}
    for path in sorted(run_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            rows = [line.split(",") for line in text.splitlines()]
            keep = [i for i, col in enumerate(rows[0]) if col not in WALL_CLOCK_CSV_COLUMNS]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
        elif path.name == "run_record.json":
            record = json.loads(text)
            for key in WALL_CLOCK_RECORD_FIELDS:
                record.pop(key, None)
            text = json.dumps(record, sort_keys=True)
        out[path.name] = text
    return out


class OutputChecker:
    """Checks one call's outputs; holds the evaluators the route check reuses."""

    def __init__(self, cfg: ExperimentConfig):
        target = resolve_target(cfg.target)
        circuit = build_hva(heisenberg_spec(target.n), cfg.single_m)
        plan = NoisyCircuitPlan(circuit, amplitude_damping(0.0), "after-each-layer")
        self.routes = {
            "exact-trace": CostEvaluator(circuit, target, mode="exact-trace"),
            "hs-test-statevector": CostEvaluator(circuit, target, mode="hs-test-statevector"),
            "hs-test-density": CostEvaluator(circuit, target, mode="hs-test-density", plan=plan),
        }

    def problems(self, cfg: ExperimentConfig, run_dir: Path, theta_star: np.ndarray) -> list[str]:
        """Everything wrong with one call's outputs; empty when all checks pass."""
        found = []
        record = None
        for path in sorted(run_dir.iterdir()):
            text = path.read_text()
            if path.suffix == ".json":
                try:
                    record = json.loads(text, parse_constant=_reject_constant)
                except ValueError as exc:
                    found.append(f"{path.name}: {exc}")
                continue
            cells = _csv_cells(text) if path.suffix == ".csv" else text.split()
            bad = _nonfinite_cells(cells)
            if bad:
                found.append(f"{path.name}: {bad} non-finite numbers")
        if record is None:
            return found + ["run_record.json missing or unreadable"]

        if cfg.kind == "coherent-noise-sweep":
            expected = 1.0 - record["results"]["compiled_cost"]
            lines = (run_dir / "noise_sweep.csv").read_text().splitlines()
            header = lines[0].split(",")
            col_delta, col_fid = header.index("delta"), header.index("mean_fidelity")
            zero_rows = [row.split(",") for row in lines[1:]
                         if float(row.split(",")[col_delta]) == 0.0]
            if len(zero_rows) != len(cfg.noise_kinds):
                found.append(f"expected one delta=0 row per noise kind, got {len(zero_rows)}")
            for row in zero_rows:
                if float(row[col_fid]) != expected:
                    found.append(f"delta=0 fidelity {row[col_fid]} != 1 - compiled_cost {expected!r}")

        costs = {name: ev.cost(theta_star) for name, ev in self.routes.items()}
        spread = max(costs.values()) - min(costs.values())
        if not spread <= ROUTE_TOLERANCE:
            found.append(f"cost routes disagree by {spread:.3e} at theta*: {costs}")
        return found
