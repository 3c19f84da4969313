"""Seeded random streams with a stable splitting scheme.

All randomness in the package flows through :func:`substream`, which derives
an independent generator from a 64-bit seed and a path of integer tags via
numpy's ``SeedSequence``. The same ``(seed, path)`` yields the same stream on
every platform, and distinct paths yield non-overlapping streams, so work
keyed by path (one voter, one experiment cell) can be filled in parallel
without changing the result.

One vectorised seed mix, the private :func:`_states`, runs
``SeedSequence``'s entropy mixing and state generation for many entropies at
once, each a head of words every stream shares and a tail of its own; each
stream's ``PCG64`` then seeds itself from its four state words,
bit-identical to its ``SeedSequence`` without building one. With the seed
and prefix words as the head, :func:`_stream_states` gives the rows of
``substream(seed, *prefix, *index)`` for every index of a shape, and
:func:`_streams` their generators: the voters ``(1,), (n,)`` of an election,
or a sweep's voter orders ``(1,), (cultures, elections, strategies,
repeats)``. :func:`_derived_states` seeds the cost audit's cells, the
streams ``substream(derive_seed(seed, fi, ai), 0)``, in two passes.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .core import _whole

_MASK = (1 << 64) - 1

# SeedSequence's hash constants and shift, as numpy defines them. Its k-th
# hashmix (counted from 0 over one pool mixing) xors with _HASH_A[k] and
# multiplies by _HASH_A[k + 1]; the k-th word of generate_state likewise uses
# _HASH_B[k] and _HASH_B[k + 1].
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE, _XSHIFT = 4, np.uint32(16)
_MASK32 = (1 << 32) - 1


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    return np.array([start * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)], np.uint32)


def _hashmixes(words: int) -> int:
    """The hashmix calls of one pool mixing of ``words`` entropy words: one per
    pool word, one per (source, target) pair of pool words, and one per pool
    word for each entropy word beyond the pool."""
    return _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(words - _POOL_SIZE, 0)


# Enough hashmix constants for an entropy of up to 16 words; a longer one
# computes its own.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _hashmixes(16) + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
# The constants of the hashmix call that mixes pool word src into pool word
# dst, at [src, dst]: the calls run over the sources, then their other pool
# words, from call 4 on. A source is not mixed into itself; that entry is unused.
_SRC, _DST = np.indices((_POOL_SIZE, _POOL_SIZE))
_CALLS = _POOL_SIZE + (_POOL_SIZE - 1) * _SRC + _DST - (_DST > _SRC)
_CROSS_XOR, _CROSS_MULT = _HASH_A[_CALLS], _HASH_A[_CALLS + 1]
# generate_state(4, uint64) takes 8 uint32 words, cycling through the pool.
_CYCLE = [*range(_POOL_SIZE)] * 2


def _entropy(seed: int, path: tuple[int, ...]) -> list[int]:
    return [_whole("seed", seed) & _MASK, *(_whole("path", p) & _MASK for p in path)]


def substream(seed: int, *path: int) -> np.random.Generator:
    """An independent generator for the given seed and integer tag path."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed derived from ``(seed, path)``.

    Used to give nested components (per-election cultures, per-cell
    experiment runs) their own independent seeds.
    """
    return int(np.random.SeedSequence(_entropy(seed, path)).generate_state(1, np.uint64)[0])


def _words(values: list[int]) -> list[int]:
    """``values`` as ``SeedSequence`` reads a list of ints: each one's 32-bit
    words, low first, and 0 as ``[0]``."""
    words = []
    for value in values:
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values``, broadcast against the calls'
    constants ``xor`` and ``mult``."""
    values = (values ^ xor) * mult
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


class _State:
    """The words a ``SeedSequence`` would give ``PCG64`` to seed from.

    :func:`_generator` registers it as numpy's ``ISeedSequence`` once per
    process, and not on import, which would load ``numpy.random``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
        return self.words


@functools.cache
def _register() -> None:
    np.random.bit_generator.ISeedSequence.register(_State)


def _states(head: list[int], tails: np.ndarray) -> np.ndarray:
    """``SeedSequence(head + row).generate_state(4, np.uint64)`` of every row
    of a ``(streams, k)`` uint32 array ``tails``, as C-contiguous rows: the
    four words each stream's ``PCG64`` seeds itself from. ``head`` is the
    uint32 words every stream's entropy starts with.

    The first four words of an entropy fill the pool and are mixed with
    each other; each word beyond them is then mixed into every pool word.
    ``SeedSequence`` pads a shorter entropy with zeros to fill the pool, so
    ``[w]`` and ``[w, 0, 0, 0]`` mix alike. Every step is taken for every
    stream at once, over its entropy as a row of uint32 words, so a head of
    any length mixes alike.
    """
    words = len(head) + tails.shape[1]
    hash_a = _HASH_A
    if _hashmixes(words) >= len(hash_a):
        hash_a = _hash_constants(_INIT_A, _MULT_A, _hashmixes(words) + 1)
    entropy = np.zeros((len(tails), max(words, _POOL_SIZE)), np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head) : words] = tails
    pool = _hashmix(entropy[:, :_POOL_SIZE], hash_a[:_POOL_SIZE], hash_a[1 : _POOL_SIZE + 1])
    # Every pool word is mixed into every other, in order of source then
    # target; a source word does not change while it is mixed in.
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_XOR[src], _CROSS_MULT[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # Word i beyond the pool takes the hashmix calls after those of the first i.
    for i, column in enumerate(entropy.T[_POOL_SIZE:], _POOL_SIZE):
        constants = hash_a[_hashmixes(i) : _hashmixes(i + 1) + 1]
        pool = _mix(pool, _hashmix(column[:, None], constants[:-1], constants[1:]))
    hashed = (pool[:, _CYCLE] ^ _HASH_B[:-1]) * _HASH_B[1:]
    hashed ^= hashed >> _XSHIFT
    # generate_state's uint64 words are its uint32 words in pairs, low first;
    # PCG64 reads each row's four from memory, so the rows are C-contiguous.
    seeds = hashed[:, 1::2].astype(np.uint64) << np.uint64(32) | hashed[:, ::2]
    return np.ascontiguousarray(seeds)


def _index_words(shape: tuple[int, ...]) -> np.ndarray:
    """Every index of ``shape``, in C order, as a row of uint32 words: every
    index entry is below 2**32, so one word."""
    return np.indices(shape, np.uint32).reshape(len(shape), math.prod(shape)).T


def _generator(state: np.ndarray) -> np.random.Generator:
    """The generator whose ``PCG64`` seeds itself from a row of :func:`_states`,
    made in this process or another: a sweep's workers are handed theirs.
    Those words are all it holds of its seed, so unlike a ``substream`` it
    cannot ``spawn``.
    """
    _register()
    return np.random.Generator(np.random.PCG64(_State(state)))


def _stream_states(seed: int, prefix: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """The :func:`_states` rows of ``substream(seed, *prefix, *index)`` for
    every index of ``shape``, in C order, in one pass: the words of the
    masked seed and prefix are the head, each index the tail."""
    return _states(_words(_entropy(seed, prefix)), _index_words(shape))


def _streams(
    seed: int, prefix: tuple[int, ...], shape: tuple[int, ...]
) -> Iterator[np.random.Generator]:
    """The generators of :func:`_stream_states`' rows."""
    return map(_generator, _stream_states(seed, prefix, shape))


def _derived_states(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The :func:`_states` rows of ``substream(derive_seed(seed, *index), 0)``
    for every index of ``shape``, in C order, in two passes.

    A derived seed is the first uint64 word of its entropy's state. Its
    substream's entropy is the seed's low and high words, then the path's
    0: ``[low, high, 0]``, or ``[low, 0]`` for a seed below 2**32, which
    both pad to the pool as ``[low, high]`` does.
    """
    derived = _stream_states(seed, (), shape)[:, 0]
    halves = derived[:, None] >> np.uint64([0, 32]) & np.uint64(_MASK32)
    return _states([], halves.astype(np.uint32))
