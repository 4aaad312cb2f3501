"""Deterministic random-stream plumbing.

All randomness in the package flows through counter-based Philox streams,
keyed by a (seed, stream id) pair.  A stream may come from a new generator
(``philox_stream``) or from re-keying an existing one (``rekey``, which skips
the cost of building a bit generator); either way its output is a pure
function of its key, so simulation order, worker count, and scheduling never
change results.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream-id namespace: generation k of a tree sample draws from stream k,
# auxiliary consumers (fold partitions, ...) use ids far above any depth.
FOLD_STREAM = 0x666F_6C64  # disjoint from generation ids (depth <= 62)


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Generator for the (seed, stream) pair; identical keys give identical output."""
    return rekey(np.random.Generator(np.random.Philox()), seed, stream)


def rekey(gen: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Reset a Philox-backed ``gen`` to the start of the (seed, stream) stream.

    Every field of the bit generator's state is overwritten (counter at zero,
    buffer empty), so the draws that follow are those of
    ``philox_stream(seed, stream)`` whatever ``gen`` produced before.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed & _MASK64, stream & _MASK64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit ints."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, index: int) -> int:
    """Per-replication seed: independent 64-bit streams from one master seed."""
    return splitmix64((master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64)
