"""Deterministic RNG derivation from a master seed.

Every randomized component derives its generator from (master_seed,
stream counters...) so that runs are reproducible bit for bit and
independent of execution order across restarts or grid points.  A
negative seed or counter raises ValueError, as numpy's SeedSequence does.
"""

from __future__ import annotations

import numpy as np


def derive_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Generator for a named stream: same (seed, counters) -> same draws."""
    entropy = [int(master_seed)] + [int(s) for s in stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_subseed(master_seed: int, *stream: int) -> int:
    """A well-mixed integer sub-seed for a counter-named stream."""
    entropy = [int(master_seed)] + [int(s) for s in stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
