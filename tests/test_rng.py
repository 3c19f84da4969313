import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import queryvote
from half_draws import HalfDraws, edge_halves
from queryvote.rng import _lemire, _raw_halves, _streams, derive_seed, substream

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
    not use it, so a process that draws nothing does not pay for it. Nor does
    it load the process pool's modules, which only a sweep with ``jobs > 1``
    uses."""
    src = Path(queryvote.__file__).parent.parent
    modules = ["numpy.random", "concurrent.futures", "multiprocessing"]
    code = f"import sys, queryvote; print(*(name in sys.modules for name in {modules}))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.stdout.split() == ["False"] * len(modules), result.stderr


def drawn_from(generator: np.random.Generator) -> HalfDraws:
    """The plain reference draws, read from the generator's 32-bit draws as
    :func:`_raw_halves` fetches them, a block of words at a time."""

    def halves():
        while True:
            yield from _raw_halves(generator, 256).tolist()

    return HalfDraws(halves())


def mixed_calls(control: np.random.Generator, count: int):
    """``count`` random calls ``(method, args)`` of the kinds the cost audit
    makes and the edges of what ``HalfDraws`` copies."""
    calls = []
    for _ in range(count):
        kind = int(control.integers(7))
        low = int(control.integers(-40, 40))
        if kind == 0:  # a small range, one value (no draw) included
            calls.append(("integers", (low, low + int(control.integers(1, 30)))))
        elif kind == 1:  # just above 2**31 values, about half of all draws rejected
            calls.append(("integers", (low, low + 2**31 + int(control.integers(-2, 9)))))
        elif kind == 2:  # up to the widest range copied, 2**32 - 1 values
            calls.append(("integers", (low, low + 2**32 - int(control.integers(1, 2**20)))))
        elif kind == 3:  # the audit's integers(1, 9, size=k), k of them
            calls.append(("size", (1, 9, int(control.integers(0, 6)))))
        elif kind == 4:  # Floyd's choice, size near pop, where picks collide
            pop = int(control.integers(0, 12))
            calls.append(("choice", (pop, int(control.integers(max(pop - 3, 0), pop + 1)))))
        elif kind == 5:
            pop = int(control.integers(1, 60))
            calls.append(("choice", (pop, int(control.integers(0, pop + 1)))))
        else:  # Floyd's choice from a large population
            pop = int(control.integers(10001, 2**32))
            calls.append(("choice", (pop, int(control.integers(0, min(pop // 50, 40) + 1)))))
    return calls


def numpy_draw(rng: np.random.Generator, method: str, args: tuple):
    if method == "integers":
        return int(rng.integers(*args))
    if method == "size":
        low, high, size = args
        return rng.integers(low, high, size=size).tolist()
    pop, size = args
    return rng.choice(pop, size=size, replace=False).tolist()


def copied_draw(draws: HalfDraws, method: str, args: tuple):
    if method == "size":
        low, high, size = args
        return [draws.integers(low, high) for _ in range(size)]
    return getattr(draws, method)(*args)


@pytest.mark.parametrize("block", range(4))
def test_draws_equal_numpy_over_mixed_call_sequences(block):
    """On 120 seeds, each a random sequence of scalar and sized integers and
    Floyd's choice, the plain reference draws made from the raw halves equal
    numpy's; afterwards both streams are at the same position, so their next
    draws are equal too."""
    control = substream(2026, 34, block)
    for seed in range(30 * block, 30 * block + 30):
        reference = substream(seed, 0)
        draws = drawn_from(substream(seed, 0))
        for method, args in mixed_calls(control, 60):
            expected = numpy_draw(reference, method, args)
            assert copied_draw(draws, method, args) == expected, (seed, method, args)
        assert draws.integers(0, 2**31 + 1) == int(reference.integers(0, 2**31 + 1))
        assert draws.integers(0, 7) == int(reference.integers(0, 7))


def test_draws_continue_a_buffered_half_word():
    """A generator whose last draw left the high half of a word buffered
    gives that half first, as numpy continues from it, and is left after the
    halves it gave."""
    for seed in range(20):
        reference, wrapped = substream(seed, 1), substream(seed, 1)
        for rng in (reference, wrapped):
            rng.integers(0, 10, size=seed % 3 + 1)
        assert wrapped.bit_generator.state["has_uint32"] == (seed % 3 + 1) % 2
        halves = _raw_halves(wrapped, 20)
        assert len(halves) == 40 + (seed % 3 + 1) % 2
        draws = HalfDraws(halves.tolist())
        assert [draws.integers(0, 1000) for _ in range(5)] == reference.integers(0, 1000, 5).tolist()
        assert draws.choice(30, 6) == reference.choice(30, size=6, replace=False).tolist()
        skipped = len(halves) - len(draws.log)
        reference.integers(0, 2**32, size=skipped, dtype=np.uint32)
        assert wrapped.integers(0, 2**20, size=4).tolist() == reference.integers(0, 2**20, size=4).tolist()


def test_raw_halves_are_the_generators_32_bit_draws_in_order():
    """numpy's full-range uint32 draws are its 32-bit draws themselves."""
    for seed, words in ((0, 1), (1, 7), (2, 300)):
        expected = substream(seed, 0).integers(0, 2**32, size=2 * words, dtype=np.uint32)
        halves = _raw_halves(substream(seed, 0), words)
        assert halves.dtype == np.uint64 and halves.tolist() == expected.tolist()


@pytest.mark.parametrize("span", [2, 3, 5, 6, 7, 8, 24, 25, 2**31 + 1, 2**32 - 1])
def test_lemire_maps_and_rejects_each_half_as_the_reference_draws(span):
    """On random halves and on those at the rejection edge, ``_lemire`` gives
    the value of every half the reference accepts and marks every half it
    rejects."""
    halves = [0, 1, 2**31, 2**32 - 1, *substream(35, span).integers(0, 2**32, size=200).tolist()]
    if span & (span - 1):
        halves += edge_halves(span)
    values, rejected = _lemire(np.array(halves, np.uint64), span)
    assert values.dtype == np.int64
    for half, value, refused in zip(halves, values.tolist(), rejected.tolist()):
        draws = HalfDraws([half])
        try:
            assert draws.integers(0, span) == value and not refused, half
        except StopIteration:
            assert refused, half
    assert bool(rejected.any()) is bool(span & (span - 1))


@pytest.mark.parametrize(
    "method, args",
    [
        ("integers", (0, 2**32)),  # numpy takes a plain 32-bit draw
        ("integers", (-(2**31), 2**31)),
        ("integers", (0, 2**40)),  # numpy's 64-bit method
        ("integers", (3, 3)),
        ("integers", (4, 2)),
        ("choice", (20_000, 401)),  # numpy shuffles the population's tail
        ("choice", (10_001, 201)),
        ("choice", (2**32, 1)),
        ("choice", (3, 4)),
        ("choice", (3, -1)),
    ],
)
def test_draws_refuse_what_numpy_draws_another_way(method, args):
    """Out of the copied domain a reference call is refused before it draws
    anything, so no test compares with a draw that numpy makes another way."""
    reference, draws = substream(5, 0), drawn_from(substream(5, 0))
    with pytest.raises(ValueError, match="^draws copy "):
        getattr(draws, method)(*args)
    assert draws.integers(0, 2**31 + 1) == int(reference.integers(0, 2**31 + 1))


def test_draws_at_the_edges_of_floyds_choice_equal_numpy():
    reference, draws = substream(6, 0), drawn_from(substream(6, 0))
    for pop, size in ((20_000, 400), (10_001, 200), (10_000, 10_000), (2**32 - 1, 3), (0, 0)):
        assert draws.choice(pop, size) == reference.choice(pop, size=size, replace=False).tolist()
    assert draws.integers(0, 5) == int(reference.integers(0, 5))


def test_draws_refuse_a_generator_other_than_pcg64():
    with pytest.raises(ValueError, match="^draws copy PCG64 only, got MT19937$"):
        _raw_halves(np.random.Generator(np.random.MT19937(0)), 1)
