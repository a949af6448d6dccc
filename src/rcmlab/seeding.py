"""Splittable, reproducible random streams.

Every randomized routine takes a 64-bit master seed.  Independent replicas
derive child streams through ``numpy.random.SeedSequence`` spawn keys, so the
stream of replica i never depends on how many replicas run or in what order.

Replica i of stream s under master m draws from
``rng_for(child_seed(m, s, i))``: a 64-bit child int from the SeedSequence
with spawn key (s, i), then a PCG64 generator seeded from that int's own
SeedSequence.  An ensemble of n replicas gets its generators from
:func:`replica_rngs`, which runs numpy's SeedSequence hash (the entropy pool
and ``generate_state``, in uint32 arithmetic) for all n replicas at once,
twice: once for the child ints, once for the four 64-bit words PCG64 asks its
seed sequence for.  numpy's own PCG64 seeding then runs on those words, so
generator i is bit for bit ``rng_for(child_seed(m, s, i))``; the tests check
this against ``SeedSequence``, so a change in numpy's hash fails loudly
rather than letting the streams drift.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def seed_sequence(master, *path):
    """SeedSequence for a master seed and a tuple of child indices."""
    if master < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(p) for p in path))


def rng_for(master, *path):
    """Generator seeded deterministically from (master, path)."""
    return np.random.default_rng(seed_sequence(master, *path))


def child_seed(master, *path):
    """A derived 64-bit integer seed, e.g. for labeling replica fields."""
    return int(seed_sequence(master, *path).generate_state(2, dtype=np.uint64)[0])


def replica_seeds(master, stream, n):
    """``child_seed(master, stream, i)`` for i < n, as a uint64 array."""
    lo, hi = _child_words(master, stream, n)
    return lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)


def replica_rngs(master, stream, n):
    """Generators ``rng_for(child_seed(master, stream, i))`` for i < n, bit for
    bit, made one at a time as the returned :class:`ReplicaRngs` is iterated."""
    return ReplicaRngs(_seed_words(*_child_words(master, stream, n)))


class ReplicaRngs:
    """A sized, sliceable run of replica generators, one per row of PCG64
    seed words.  Iterating makes each generator only when it is reached, so a
    consumer that drops one before asking for the next holds one at a time."""

    def __init__(self, words):
        self.words = words

    def __len__(self):
        return len(self.words)

    def __getitem__(self, window):
        return ReplicaRngs(self.words[window])

    def __iter__(self):
        for row in self.words:
            yield np.random.Generator(np.random.PCG64(_Words(row)))


class _Words(ISeedSequence):
    """Precomputed PCG64 seed words, handed to numpy's own PCG64 seeding."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or dtype is not np.uint64:
            raise ValueError("precomputed words serve PCG64's generate_state(4, uint64)")
        return self.words


def _child_words(master, stream, n):
    """Low and high uint32 words of ``child_seed(master, stream, i)``, i < n."""
    if master < 0:
        raise ValueError("seed must be a nonnegative integer")
    if stream < 0:
        raise ValueError("stream must be a nonnegative integer")
    # SeedSequence pads a spawned sequence's entropy to the pool size; every
    # word but the replica index is shared, so it hashes as a length-1 array.
    # Each index is one uint32 word: n rows of 32-byte seed words cannot
    # reach 2**32 replicas in memory.
    entropy = _int_words(int(master))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    words = [np.array([w], dtype=np.uint32) for w in entropy + _int_words(int(stream))]
    words.append(np.arange(n, dtype=np.uint32))
    return _generate_state(_mix_entropy(words), 2)


def _seed_words(lo, hi):
    """``SeedSequence(child).generate_state(4, uint64)`` for each child int
    lo + 2**32 hi, as an (n, 4) array.  A child below 2**32 is one entropy
    word, which hashes as its zero high word does: the pool pads short
    entropy with zero words."""
    state = np.stack(_generate_state(_mix_entropy([lo, hi]), 2 * _POOL_SIZE), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _int_words(value):
    """SeedSequence's uint32 words of a nonnegative int, least significant
    first ([0] for 0)."""
    out = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        out.append(value & _MASK32)
    return out


def _hasher(const, mult):
    """SeedSequence's hashmix with its running constant: each call xors in
    the constant, steps it, multiplies by it and folds the high half down."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _mix_entropy(words):
    """SeedSequence's entropy pool, four uint32 arrays, from entropy
    ``words``: word k of every row as a uint32 array of shape (1,) or (n,)."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool, n_words):
    """SeedSequence's ``generate_state(n_words, uint32)`` from a pool, as a
    list of n_words uint32 arrays."""
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(n_words)]
