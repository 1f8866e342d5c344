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
from .errors import NegativeAmplitude, check_amount, check_count
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
        check_amount("noise amplitude", self.delta, error=NegativeAmplitude)
        check_count("noise seed", self.seed, 0, error=ValueError)

    def affected_indices(self, spec: HamiltonianSpec) -> list[int]:
        if self.kind == "charge":
            return spec.coupling_indices()
        return spec.local_indices("Z")


def check_delta_grid(delta_grid) -> np.ndarray:
    """The grid as a float array.

    Raises ValueError unless the grid is a list of numbers, not bools, that
    is non-empty, finite, non-negative and strictly ascending.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.ndim != 1 or any(isinstance(d, (bool, np.bool_)) for d in delta_grid):
        raise ValueError(f"delta grid must be a list of numbers, got {delta_grid!r}")
    if grid.size == 0 or not (np.isfinite(grid).all() and (grid >= 0.0).all()
                              and (np.diff(grid) > 0.0).all()):
        raise ValueError("delta grid must be finite, non-negative and strictly ascending")
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
    that is not an integer in [0, MAX_COUNT) raises ValueError.
    """
    check_count("realization", realization, 0, MAX_COUNT - 1, error=ValueError)
    return _shifted_stack(theta, noise, spec, realization + 1)[realization]


def robustness_sweep(evaluator: CostEvaluator, theta_star: np.ndarray,
                     kind: str, delta_grid, mode: str = "deterministic-shift",
                     samples: int = 200, seed: int = 0) -> list[dict]:
    """Fidelity of the compiled gate as the noise amplitude grows.

    Returns one row per grid point: {delta, mean_fidelity, std_fidelity,
    samples}.  Deterministic mode needs a single evaluation per point;
    sampled mode averages `samples` realizations with per-point derived
    seeds.  Each point's realizations are evaluated as one stack.  The
    grid must be finite, non-negative and strictly ascending, and `samples` must
    be an integer in [1, MAX_COUNT] in either mode (ValueError otherwise).
    """
    check_count("samples", samples, 1, MAX_COUNT, error=ValueError)
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
