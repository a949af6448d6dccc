"""The batched replica seeding against numpy's own SeedSequence.

``replica_rngs`` and ``replica_seeds`` reimplement numpy's SeedSequence hash
over a whole ensemble; these tests pin them to ``SeedSequence`` itself, so a
numpy release that changes the hash fails here instead of moving streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from rcmlab.seeding import (ReplicaRngs, _seed_words, _Words, child_seed, replica_rngs,
                            replica_seeds, rng_for, seed_sequence)

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5]
STREAMS = [0, 1, 2, 10, 11]


@settings(max_examples=80, deadline=None)
@given(master=st.sampled_from(MASTERS) | st.integers(0, 2**70),
       stream=st.sampled_from(STREAMS),
       boundary=st.sampled_from([0, 3, 128, 1024, 4096]),
       before=st.integers(0, 3), width=st.integers(1, 7))
def test_replica_seeding_matches_seed_sequence(master, stream, boundary, before, width):
    # a window that starts a little before a chunk boundary and crosses it
    start = max(0, boundary - before)
    stop = start + width
    seeds = replica_seeds(master, stream, stop)
    rngs = replica_rngs(master, stream, stop)
    assert seeds.dtype == rngs.words.dtype == np.uint64
    assert len(seeds) == len(rngs) == stop
    for i in range(start, stop):
        child = SeedSequence(entropy=master, spawn_key=(stream, i)).generate_state(2, np.uint64)[0]
        assert int(seeds[i]) == int(child) == child_seed(master, stream, i)
        assert (rngs.words[i].tolist()
                == SeedSequence(int(child)).generate_state(4, np.uint64).tolist())
    window = rngs[start:stop]
    assert len(window) == width
    for i, rng in enumerate(window, start):
        reference = rng_for(child_seed(master, stream, i))
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.integers(0, 2**63, 2).tolist() == reference.integers(0, 2**63, 2).tolist()


@settings(max_examples=60, deadline=None)
@given(child=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1))
@example(child=0)
@example(child=1)
@example(child=2**32 - 1)
@example(child=2**32)
@example(child=2**64 - 1)
def test_seed_words_of_one_and_two_word_child_ints(child):
    # a child below 2**32 is one entropy word to SeedSequence
    lo = np.array([child & 0xFFFFFFFF], dtype=np.uint32)
    hi = np.array([child >> 32], dtype=np.uint32)
    words = _seed_words(lo, hi)
    assert words.tolist() == [SeedSequence(child).generate_state(4, np.uint64).tolist()]
    (rng,) = ReplicaRngs(words)
    assert rng.standard_normal(3).tolist() == rng_for(child).standard_normal(3).tolist()


def test_empty_ensemble_and_lazy_generators():
    assert len(replica_rngs(5, 0, 0)) == 0 and replica_seeds(5, 0, 0).size == 0
    rngs = replica_rngs(5, 0, 3)
    first, second = iter(rngs), iter(rngs)
    # every pass makes fresh generators, each at the start of its stream
    assert next(first).random() == next(second).random() == rng_for(child_seed(5, 0, 0)).random()


def test_negative_seeds_are_rejected_like_seed_sequence():
    with pytest.raises(ValueError) as expected:
        seed_sequence(-1, 0, 0)
    message = str(expected.value)
    for batch in (replica_rngs, replica_seeds):
        with pytest.raises(ValueError) as got:
            batch(-1, 0, 4)
        assert str(got.value) == message
        with pytest.raises(ValueError, match="stream must be a nonnegative integer"):
            batch(3, -1, 4)


def test_precomputed_words_serve_only_pcg64_seeding():
    words = replica_rngs(0, 0, 1).words[0]
    assert _Words(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="generate_state"):
        _Words(words).generate_state(8, np.uint32)
