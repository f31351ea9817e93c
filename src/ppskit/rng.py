"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator whose
key is derived from a user seed plus a string path naming the consumer
(e.g. ``substream(seed, "counts", cell, rep)``).  Seed and path fully
determine the stream, so repetitions and sweep cells can run in any order,
or in parallel, and still reproduce bit-identical results.

Counts are drawn by :func:`multinomial_counts`, one call per stream: a
simulated acquisition draws all its settings' tables at once, and a
bootstrap draws all its resamples of one record at once.  A sweep cell
checks every rep's tables once (:func:`outcome_rows`) and draws each rep
from its own stream, taken in turn from :func:`substreams`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidInputError, check_trials, is_whole


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


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); identical inputs replay.

    It is ``Generator(Philox(key=stream_key(seed, *path)))``.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))


_ZEROS = np.zeros(4, dtype=np.uint64)  # a fresh Philox's counter and buffer


def substreams(seed: int, *path, count: int):
    """The generators of ``substream(seed, *path, i)`` for i in
    range(``count``), in turn.  They are one generator whose Philox is
    re-keyed through its ``state`` for each i, which costs less than
    building a new one, so each is valid only until the next is taken:
    draw from it before taking the next."""
    rng = substream(seed, *path, 0)
    for i in range(count):
        if i:
            key = stream_key(seed, *path, i)
            rng.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
        yield rng


def multinomial_counts(n: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact multinomial draws of ``n`` trials, one per row of ``probs``.

    ``probs`` holds outcome probabilities along its last axis, with any
    leading shape, checked and normalized by :func:`outcome_rows`.
    numpy's ``multinomial`` draws a row as a chain of conditional
    binomials in C, O(#outcomes) at any n, so trial budgets of 1e12 are as
    cheap as 1e3.  Rows are drawn in order from ``rng``, so each row's
    counts are those of drawing it alone, next.  Returns int64 counts of
    ``probs``' shape; every row totals exactly n.
    """
    return rng.multinomial(check_trials("n", n, 0), outcome_rows(probs))


def outcome_rows(probs) -> np.ndarray:
    """Outcome probabilities along the last axis, each row divided by its
    sum, as :func:`multinomial_counts` draws them.  Entries down to -1e-12
    are roundoff and count as 0, as in
    :class:`~ppskit.detection.OutcomeProbs`.  The checks run once over
    the whole stack, so a caller drawing its rows from several streams
    checks them once and hands each row to ``rng.multinomial``.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 0 or probs.shape[-1] == 0:
        raise InvalidInputError(f"outcome probabilities need an outcome axis, got shape {probs.shape}")
    lowest = probs.min(initial=0.0)  # initial: a table of no rows draws nothing
    if not lowest >= -1e-12:  # a NaN fails too
        raise InvalidInputError("outcome probabilities must be finite and nonnegative")
    if lowest < 0.0:
        probs = np.maximum(probs, 0.0)
    with np.errstate(over="ignore"):  # an infinite sum is rejected below
        total = probs.sum(axis=-1, keepdims=True)
    if not (total.min(initial=np.inf) > 0.0 and total.max(initial=0.0) < np.inf):
        raise InvalidInputError("outcome probabilities must be finite, with a positive sum")
    return probs / total
