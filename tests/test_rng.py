import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import queryvote
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
    for voter, rng in enumerate(_streams(numpy_int(seed) if as_numpy else seed, (1,), (count,))):
        reference = substream(seed, 1, voter)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.integers(2**63, size=2).tolist() == reference.integers(2**63, size=2).tolist()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "prefix, shape",
    [
        ((), (3,)),  # 2 or 3 words: the index word lies in the pool
        ((1,), (2, 3)),
        ((2**32,), (4,)),  # a prefix tag of two words
        ((1, 0), (5,)),
        ((1, 2**40, 3), (2, 2)),  # the head fills the pool; the index words lie beyond it
        ((1, 7, 9), (8, 5)),  # a sweep's voter orders: (tag, culture, election), (strategy, repeat)
        ((2**64 - 1, 2**33), (3, 1, 2)),
        ((), ()),  # one stream, no index words
        ((1, 2), (0, 3)),  # no streams
    ],
)
def test_streams_over_a_shape_match_their_substreams(seed, prefix, shape):
    """Entropies of 2 to 9 words, with the index words in or beyond the
    pool: every index of the shape, in C order, has its substream's state."""
    indexes = list(itertools.product(*map(range, shape)))
    states = [rng.bit_generator.state for rng in _streams(seed, prefix, shape)]
    assert states == [substream(seed, *prefix, *index).bit_generator.state for index in indexes]


def test_streams_of_long_entropies_match_their_substreams():
    """Entropies of 3 to 20 words, beyond the precomputed hash constants too,
    on random seeds, prefixes and shapes."""
    rng = substream(2026, 31)
    for words in range(3, 21):
        seed = int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64))
        dims = int(rng.integers(1, 3))
        prefix = tuple(int(rng.integers(2**64, dtype=np.uint64)) >> 32 for _ in range(words - 1 - dims))
        shape = tuple(int(rng.integers(1, 4)) for _ in range(dims))
        states = [g.bit_generator.state for g in _streams(seed, prefix, shape)]
        indexes = itertools.product(*map(range, shape))
        assert states == [substream(seed, *prefix, *index).bit_generator.state for index in indexes]


def test_streams_refuse_a_prefix_tag_that_is_not_an_int():
    with pytest.raises(ValueError, match=re.escape("path must be an int, got 1.5")):
        list(_streams(7, (1, 1.5), (2,)))


def test_streams_yield_independent_generators():
    """Every index's stream is a generator of its own, so an earlier one keeps
    its state while later ones are drawn from."""
    streams = list(_streams(5, (1,), (3,)))
    assert len({id(rng) for rng in streams}) == 3
    for voter, rng in enumerate(streams):
        assert rng.bit_generator.state == substream(5, 1, voter).bit_generator.state


def test_seeds_and_tags_are_masked_to_64_bits():
    for seed, tag in ((-1, 1), (2**64 + 3, 2**64 + 1), (2**70 - 5, -2)):
        for voter, rng in enumerate(_streams(seed, (1,), (4,))):
            expected = substream(seed & (2**64 - 1), 1, voter)
            assert rng.bit_generator.state == expected.bit_generator.state
            masked = substream(seed & (2**64 - 1), tag & (2**64 - 1), voter)
            assert substream(seed, tag, voter).bit_generator.state == masked.bit_generator.state


def test_streams_on_random_seeds_and_voters():
    rng = substream(2026, 1018)
    for _ in range(30):
        seed = int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64))
        count = int(rng.integers(1, 60))
        states = [g.bit_generator.state for g in _streams(seed, (1,), (count,))]
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
        states = [g.bit_generator.state for g in _streams(as_seed, (1,), (3,))]
        assert states == [substream(seed, 1, v).bit_generator.state for v in range(3)]


@pytest.mark.parametrize("bad", [1.5, "7", True, np.array(7), np.float64(7.0)])
def test_seeds_and_paths_that_are_not_ints_are_refused(bad):
    for call in (substream, derive_seed, lambda seed: list(_streams(seed, (1,), (2,)))):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {bad!r}")):
            call(bad)
    for call in (substream, derive_seed):
        with pytest.raises(ValueError, match=re.escape(f"path must be an int, got {bad!r}")):
            call(7, 0, bad)


def test_importing_the_package_leaves_numpy_random_unloaded():
    """numpy loads ``numpy.random`` on first use; importing the package does
    not use it, so a process that draws nothing does not pay for it."""
    src = Path(queryvote.__file__).parent.parent
    code = "import sys, queryvote; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.stdout.split() == ["False"], result.stderr
