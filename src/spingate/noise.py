"""Coherent (quasi-static) parameter noise and robustness sweeps.

Two physical noise kinds map onto disjoint coordinate sets of the
compiled parameter vector:

* "charge"  shifts every exchange-coupling coefficient (the weight-2
  terms), modelling electrostatic detuning of the inter-site barriers;
* "nuclear" shifts the single-site Z-field coefficients, modelling a
  slowly varying magnetic background.

A perturbation either adds the amplitude delta outright
("deterministic-shift") or adds one shared draw u ~ Uniform[0, delta]
per realization ("uniform-sample").  Realization r's draw is delta times
the r-th double of the one stream `derive_rng(noise.seed)`, so the first
k realizations do not depend on how many are drawn.  Perturbed vectors
are returned unwrapped: the cost is 2*pi-periodic anyway, and the
unwrapped values keep their physical reading as coefficient shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostEvaluator
from .errors import NegativeAmplitude
from .hamiltonian import HamiltonianSpec
from .optimize import MAX_COUNT
from .seeding import derive_rng, derive_subseed

NOISE_KINDS = ("charge", "nuclear")
NOISE_MODES = ("deterministic-shift", "uniform-sample")

DEFAULT_DELTA_GRID = np.round(np.arange(0, 21) * 0.025, 6)


@dataclass(frozen=True)
class CoherentNoise:
    """One noise setting: which coordinates, how strong, drawn how."""

    kind: str
    delta: float
    mode: str = "deterministic-shift"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not np.isfinite(self.delta) or self.delta < 0.0:
            raise NegativeAmplitude(f"noise amplitude must be >= 0, got {self.delta!r}")

    def affected_indices(self, spec: HamiltonianSpec) -> list[int]:
        if self.kind == "charge":
            return spec.coupling_indices()
        return spec.local_indices("Z")


def check_delta_grid(delta_grid) -> np.ndarray:
    """The grid as a float array.

    Raises ValueError unless the grid is non-empty, non-negative and
    strictly ascending; a NaN entry fails the test.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.size == 0 or not (np.all(grid >= 0.0) and np.all(np.diff(grid) > 0.0)):
        raise ValueError("delta grid must be non-negative and strictly ascending")
    return grid


def _shifted_stack(theta: np.ndarray, noise: CoherentNoise, spec: HamiltonianSpec,
                   count: int) -> np.ndarray:
    """`count` rows: row r is theta with realization r's shift added.

    Deterministic mode shifts every row by noise.delta.  Sampled mode
    shifts row r by delta times the r-th double of derive_rng(noise.seed).
    A zero amplitude leaves every row a bit-identical copy of theta.
    """
    stack = np.tile(np.asarray(theta, dtype=float), (count, 1))
    if noise.delta == 0.0:
        return stack
    if noise.mode == "deterministic-shift":
        shifts = np.full(count, noise.delta)
    else:
        shifts = noise.delta * derive_rng(noise.seed).random(count)
    stack[:, noise.affected_indices(spec)] += shifts[:, None]
    return stack


def perturb(theta: np.ndarray, noise: CoherentNoise, spec: HamiltonianSpec,
            realization: int = 0) -> np.ndarray:
    """Shifted copy of theta; unaffected coordinates are bit-identical.

    Deterministic mode adds noise.delta; sampled mode adds one shared
    u ~ Uniform[0, delta], the realization-th draw of noise.seed's stream,
    so it equals row `realization` of a sweep's stack.  A realization
    outside [0, MAX_COUNT) raises ValueError.
    """
    if not 0 <= realization < MAX_COUNT:
        raise ValueError(f"realization must lie in [0, {MAX_COUNT}), got {realization!r}")
    return _shifted_stack(theta, noise, spec, realization + 1)[realization]


def robustness_sweep(evaluator: CostEvaluator, theta_star: np.ndarray,
                     kind: str, delta_grid, mode: str = "deterministic-shift",
                     samples: int = 200, seed: int = 0) -> list[dict]:
    """Fidelity of the compiled gate as the noise amplitude grows.

    Returns one row per grid point: {delta, mean_fidelity, std_fidelity,
    samples}.  Deterministic mode needs a single evaluation per point;
    sampled mode averages `samples` realizations with per-point derived
    seeds.  Each point's realizations are evaluated as one stack.  The
    grid must be non-negative and strictly ascending, and `samples` must
    lie in [1, MAX_COUNT] in either mode.
    """
    if not 1 <= samples <= MAX_COUNT:
        raise ValueError(f"samples must lie in [1, {MAX_COUNT}], got {samples!r}")
    grid = check_delta_grid(delta_grid)
    spec = evaluator.circuit.spec
    rows = []
    for gi, delta in enumerate(grid):
        noise = CoherentNoise(kind=kind, delta=float(delta), mode=mode,
                              seed=derive_subseed(seed, gi))
        sampled = mode == "uniform-sample" and delta > 0.0
        stack = _shifted_stack(theta_star, noise, spec, samples if sampled else 1)
        fids = 1.0 - evaluator.costs(stack)
        rows.append({"delta": float(delta),
                     "mean_fidelity": float(fids.mean()),
                     "std_fidelity": float(fids.std()),
                     "samples": len(fids)})
    return rows
