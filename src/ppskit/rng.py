"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator whose
key is derived from a user seed plus a string path naming the consumer
(e.g. ``substream(seed, "sweep", cell, rep)``).  Seed and path fully
determine the stream, so repetitions and sweep cells can run in any order,
or in parallel, and still reproduce bit-identical results.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import InvalidInputError, is_whole


def check_seed(seed) -> None:
    """Raise InvalidInputError unless ``seed`` is a whole number.

    An integral float such as 3.0 keys the same stream as 3, and a
    fraction is rejected rather than truncated onto a neighbouring seed's
    stream.  Value types that hold a seed call this at construction.
    """
    if not is_whole(seed):
        raise InvalidInputError(f"seed must be a whole number, got {seed!r}")


def stream_key(seed: int, *path) -> np.ndarray:
    """Derive a 128-bit Philox key from ``seed`` (see :func:`check_seed`)
    and a stream path."""
    check_seed(seed)
    tag = "/".join([str(int(seed))] + [str(p) for p in path])
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


@functools.cache
def _key_sequence():
    """Seed-sequence class whose state is a given Philox key.

    A Philox stream is fixed by its key alone, so the generator takes the
    key as its seed sequence's state instead of seeding (and discarding) a
    ``SeedSequence``.  Built on first use, so that importing the package
    loads no ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            # Philox asks for exactly its key: two 64-bit words.
            return self.key

    return KeySequence


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); identical inputs replay.

    Its state is that of ``Generator(Philox(key=stream_key(seed, *path)))``.
    """
    seq = _key_sequence()(stream_key(seed, *path))
    return np.random.Generator(np.random.Philox(seq))


def multinomial_counts(n: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact multinomial draw by chained conditional binomials.

    Cost is O(#outcomes) independent of n (binomial draws are O(1)), so
    trial budgets of 1e12 are as cheap as 1e3.  The total is exactly n.
    """
    probs = np.asarray(probs, dtype=float).reshape(-1)
    tail = float(probs.sum())
    cells = probs.tolist()
    counts = [0] * len(cells)
    remaining = int(n)
    for idx in range(len(cells) - 1):
        if remaining == 0 or tail <= 0.0:
            break
        p = min(max(cells[idx] / tail, 0.0), 1.0)
        c = int(rng.binomial(remaining, p))
        counts[idx] = c
        remaining -= c
        tail -= cells[idx]
    counts[-1] += remaining
    return np.array(counts, dtype=np.int64)
