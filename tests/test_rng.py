import re

import numpy as np
import pytest

from queryvote.rng import _streams, derive_seed, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, derive_seed(0, 3), derive_seed(2**40, 1, 7)]


def numpy_int(value: int):
    """``value`` as the numpy int type that holds it."""
    return np.int64(value) if value < 0 else np.uint64(value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("as_numpy", [0, 1])
@pytest.mark.parametrize("count", [1, 2, 250])
def test_streams_match_their_substreams(seed, as_numpy, count):
    """Each one-pass stream has its substream's PCG64 state and first draws,
    whether the seed is handed over as a Python int or a numpy int."""
    for voter, rng in enumerate(_streams(numpy_int(seed) if as_numpy else seed, count)):
        reference = substream(seed, 1, voter)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.integers(2**63, size=2).tolist() == reference.integers(2**63, size=2).tolist()


def test_streams_yield_one_generator():
    """Every voter's stream is the one generator, set before each yield."""
    streams = list(_streams(5, 3))
    assert streams[0] is streams[1] is streams[2]
    assert streams[0].bit_generator.state == substream(5, 1, 2).bit_generator.state


def test_seeds_and_tags_are_masked_to_64_bits():
    for seed, tag in ((-1, 1), (2**64 + 3, 2**64 + 1), (2**70 - 5, -2)):
        for voter, rng in enumerate(_streams(seed, 4)):
            expected = substream(seed & (2**64 - 1), 1, voter)
            assert rng.bit_generator.state == expected.bit_generator.state
            masked = substream(seed & (2**64 - 1), tag & (2**64 - 1), voter)
            assert substream(seed, tag, voter).bit_generator.state == masked.bit_generator.state


def test_streams_on_random_seeds_and_voters():
    rng = substream(2026, 1018)
    for _ in range(30):
        seed = int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64))
        count = int(rng.integers(1, 60))
        states = [g.bit_generator.state for g in _streams(seed, count)]
        assert states == [substream(seed, 1, v).bit_generator.state for v in range(count)]


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**63 - 1, 2**64 - 1, -1])
def test_numpy_int_seeds_and_paths_are_their_values(seed):
    """A numpy int seed or tag gives the stream and the seed of the Python int it holds."""
    path = (1, 2**40, 3)
    seed_forms = [seed, numpy_int(seed), *([np.int64(seed)] if 0 <= seed < 2**63 else [])]
    path_forms = [path, tuple(map(np.int64, path)), tuple(map(np.uint64, path))]
    reference = substream(seed, *path).bit_generator.state
    for as_seed in seed_forms:
        for as_path in path_forms:
            assert substream(as_seed, *as_path).bit_generator.state == reference
            derived = derive_seed(as_seed, *as_path)
            assert derived == derive_seed(seed, *path) and type(derived) is int
        states = [g.bit_generator.state for g in _streams(as_seed, 3)]
        assert states == [substream(seed, 1, v).bit_generator.state for v in range(3)]


@pytest.mark.parametrize("bad", [1.5, "7", True, np.array(7), np.float64(7.0)])
def test_seeds_and_paths_that_are_not_ints_are_refused(bad):
    for call in (substream, derive_seed, lambda seed: list(_streams(seed, 2))):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {bad!r}")):
            call(bad)
    for call in (substream, derive_seed):
        with pytest.raises(ValueError, match=re.escape(f"path must be an int, got {bad!r}")):
            call(7, 0, bad)
