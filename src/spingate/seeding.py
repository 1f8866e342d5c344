"""Deterministic RNG derivation from a master seed.

Every randomized component derives its generator from (master_seed,
stream counters...) so that runs are reproducible bit for bit and
independent of execution order across restarts or grid points.

`derive_rng` builds numpy's SeedSequence -> PCG64 -> Generator for one
stream and is the definition of every stream.  `first_randoms` gives, for
a whole array of counters r at once, the first `random()` double of
`derive_rng(master_seed, r)` without building a generator: it restates
numpy's SeedSequence hash mixing, PCG64 seeding and PCG64's XSL-RR output
step in wrapping uint32/uint64 array arithmetic (array operations wrap
silently, where numpy scalar operations would warn).  Sampled noise draws
its one double per realization this way.
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


# numpy's SeedSequence constants; its entropy pool holds four 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit words
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative integer, least significant first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: xor the running constant, advance it, multiply by it."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """The eight 32-bit words SeedSequence.generate_state(4, uint64) reads.

    `entropy` holds one uint32 array per entropy word, one entry per stream.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = b & np.uint64(_MASK32), b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & np.uint64(_MASK32)) + (p10 & np.uint64(_MASK32))
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step, state * multiplier + inc modulo 2^128."""
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _first_random(entropy: list[np.ndarray]) -> np.ndarray:
    """First Generator.random() double of PCG64(SeedSequence(entropy)) per stream."""
    w = [x.astype(np.uint64) for x in _seed_words(entropy)]
    # generate_state(4, uint64) views the words as little-endian uint64;
    # PCG64 seeds its state from words 0-1 and its increment from 2-3
    s_hi, s_lo, i_hi, i_lo = (w[2 * k] | (w[2 * k + 1] << np.uint64(32)) for k in range(4))
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    # srandom: state = 0, step, add the seed, step; then random() steps once more
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR output: rotate hi ^ lo right by the top six bits of the state
    x, rot = hi ^ lo, hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


def first_randoms(master_seed: int, counters) -> np.ndarray:
    """First `random()` double of `derive_rng(master_seed, r)` for each counter r.

    Entry i equals `derive_rng(master_seed, counters[i]).random()` bit for
    bit, so `delta * first_randoms(seed, counters)[i]` equals that
    stream's `uniform(0.0, delta)`.  A negative seed raises ValueError, as
    derive_rng does; so does a counter outside [0, 2^32), which would take
    more than one entropy word.
    """
    seed_words = _words(int(master_seed))
    values = [int(c) for c in counters]
    if not all(0 <= v <= _MASK32 for v in values):
        raise ValueError("counters must lie in [0, 2^32)")
    entropy = [np.full(len(values), w, dtype=np.uint32) for w in seed_words]
    return _first_random(entropy + [np.array(values, dtype=np.uint32)])
