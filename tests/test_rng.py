import numpy as np
import pytest

from queryvote.rng import _streams, derive_seed, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, derive_seed(0, 3), derive_seed(2**40, 1, 7)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", [0, 1])
@pytest.mark.parametrize("count", [1, 2, 250])
def test_streams_match_their_substreams(seed, tag, count):
    """Each one-pass stream has its substream's PCG64 state and first draws."""
    for voter, rng in enumerate(_streams(seed, tag, count)):
        reference = substream(seed, tag, voter)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.integers(2**63, size=2).tolist() == reference.integers(2**63, size=2).tolist()


def test_streams_yield_one_generator():
    """Every voter's stream is the one generator, set before each yield."""
    streams = list(_streams(5, 1, 3))
    assert streams[0] is streams[1] is streams[2]
    assert streams[0].bit_generator.state == substream(5, 1, 2).bit_generator.state


def test_seeds_and_tags_are_masked_to_64_bits():
    for seed, tag in ((-1, 1), (2**64 + 3, 2**64 + 1), (2**70 - 5, -2)):
        for voter, rng in enumerate(_streams(seed, tag, 4)):
            expected = substream(seed & (2**64 - 1), tag & (2**64 - 1), voter)
            assert rng.bit_generator.state == expected.bit_generator.state


def test_streams_on_random_seeds_and_voters():
    rng = substream(2026, 1018)
    for _ in range(30):
        seed = int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64))
        tag = int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64))
        count = int(rng.integers(1, 60))
        states = [g.bit_generator.state for g in _streams(seed, tag, count)]
        assert states == [substream(seed, tag, v).bit_generator.state for v in range(count)]
