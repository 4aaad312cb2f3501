import numpy as np
import pytest

from bmckde.cv import make_folds
from bmckde.rng import FOLD_STREAM, philox_stream, rekey

SEEDS = [0, 1, (1 << 64) - 1, (1 << 63) + 5]


def keyed_generator(seed, stream):
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_stream_is_the_keyed_philox_stream(seed):
    for stream in (0, 1, 7, FOLD_STREAM):
        got = philox_stream(seed, stream).standard_normal(37)
        assert got.tobytes() == keyed_generator(seed, stream).standard_normal(37).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_rekey_restarts_the_stream_whatever_was_drawn_before(seed):
    gen = philox_stream(3, 9)
    for stream in (1, 2, 2, FOLD_STREAM):
        # leave a half-used buffer and a pending 32-bit word behind
        gen.random(3)
        gen.integers(0, 10, 5, dtype=np.uint32)
        draws = rekey(gen, seed, stream).standard_normal((5, 2))
        assert draws.tobytes() == keyed_generator(seed, stream).standard_normal((5, 2)).tobytes()


@pytest.mark.parametrize("n,K,seed", [(3, 8, 0), (8, 5, (1 << 64) - 1), (10, 7, (1 << 63) + 5)])
def test_make_folds_uses_the_fold_stream(n, K, seed):
    perm = philox_stream(seed, FOLD_STREAM).permutation(1 << n)
    expected = np.empty(1 << n, dtype=np.int64)
    expected[perm] = np.arange(1 << n) % K
    assert np.array_equal(make_folds(n, K, seed).assignment, expected)
