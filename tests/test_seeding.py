import numpy as np
import pytest

from spingate.seeding import derive_rng, derive_subseed


def test_same_stream_same_draws():
    a = derive_rng(10, 1, 2).normal(size=8)
    b = derive_rng(10, 1, 2).normal(size=8)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    streams = [(1,), (2,), (3,), (1, 1), (2, 7)]
    draws = [derive_rng(10, *s).normal(size=8) for s in streams]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j]), (streams[i],
                                                            streams[j])


def test_trailing_zero_stream_collapses():
    # SeedSequence pads its entropy with zeros, so [seed] and [seed, 0]
    # are the same stream; that is why the named stream ids in the
    # harness start at 1
    a = derive_rng(10).normal(size=8)
    b = derive_rng(10, 0).normal(size=8)
    assert np.array_equal(a, b)


def test_subseed_stable_and_distinct():
    s = derive_subseed(10, 3, 4)
    assert s == derive_subseed(10, 3, 4)
    assert s != derive_subseed(10, 4, 3)  # counter order matters
    assert 0 <= s < 2 ** 32


def test_numpy_style_inputs_accepted():
    assert derive_subseed(np.int64(10), np.int64(2)) == derive_subseed(10, 2)
    with pytest.raises(ValueError):
        derive_rng(-1, 0)
