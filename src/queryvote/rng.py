"""Seeded random streams with a stable splitting scheme.

All randomness in the package flows through :func:`substream`, which derives
an independent generator from a 64-bit seed and a path of integer tags via
numpy's ``SeedSequence``. The same ``(seed, path)`` yields the same stream on
every platform, and distinct paths yield non-overlapping streams, so work
keyed by path (one voter, one experiment cell) can be filled in parallel
without changing the result.

The private :func:`_streams` yields the streams ``substream(seed, *prefix,
*index)`` for every index of a shape in one pass: the voters ``(1, v)`` of
an election, or the voter orders ``(si, repeat)`` of one election of a sweep.
It runs ``SeedSequence``'s entropy mixing and state generation for every
index at once over uint32 arrays, and each index's ``PCG64`` seeds itself
from its four state words, so each stream is bit-identical to its
``substream`` without building a ``SeedSequence`` per index.
"""

from __future__ import annotations

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


def _words(value: int) -> list[int]:
    """``value`` as ``SeedSequence`` reads an int: 32-bit words, low first; 0 is ``[0]``."""
    words = [value & _MASK32]
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

    :func:`_streams` registers it as numpy's ``ISeedSequence`` when it first
    runs, so that importing the package does not load ``numpy.random``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
        return self.words


def _streams(
    seed: int, prefix: tuple[int, ...], shape: tuple[int, ...]
) -> Iterator[np.random.Generator]:
    """The generators ``substream(seed, *prefix, *index)`` for every index of
    ``shape``, in C order.

    Each entropy is the words of the masked seed and prefix (the head), then
    one word per index entry, and only the index words differ. The first
    four words fill the pool, padded with zeros, and are mixed with each
    other; each word beyond them is then mixed into every pool word. When
    the head fills the pool, one ``SeedSequence`` of the head gives the pool
    that every index shares; otherwise the pool is mixed for every index at
    once, over a row of uint32 words per index. The index words beyond the
    pool and ``generate_state(4, uint64)`` are likewise taken for every
    index at once, and each index's ``PCG64`` seeds itself from its own
    four words, as it does from its ``SeedSequence``. Those words are all a
    yielded generator holds of its seed, so unlike a ``substream`` it cannot
    ``spawn``.
    """
    head = _words(_whole("seed", seed) & _MASK)
    for tag in prefix:
        head += _words(_whole("path", tag) & _MASK)
    count = math.prod(shape)
    # Every index entry is below 2**32, so one word.
    index = np.indices(shape, np.uint32).reshape(len(shape), count).T
    words = len(head) + len(shape)
    hash_a = _HASH_A
    if _hashmixes(words) >= len(hash_a):
        hash_a = _hash_constants(_INIT_A, _MULT_A, _hashmixes(words) + 1)
    if len(head) >= _POOL_SIZE:
        pool, beyond = np.random.SeedSequence(head).pool[None], index
    else:
        entropy = np.zeros((count, max(words, _POOL_SIZE)), np.uint32)
        entropy[:, : len(head)] = head
        entropy[:, len(head) : words] = index
        pool = _hashmix(entropy[:, :_POOL_SIZE], hash_a[:_POOL_SIZE], hash_a[1 : _POOL_SIZE + 1])
        beyond = entropy[:, _POOL_SIZE:words]
        # Every pool word is mixed into every other, in order of source then
        # target; a source word does not change while it is mixed in.
        for src in range(_POOL_SIZE):
            mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_XOR[src], _CROSS_MULT[src]))
            mixed[:, src] = pool[:, src]
            pool = mixed
    at = _hashmixes(words - beyond.shape[1])
    for column in beyond.T:
        constants = hash_a[at : at + _POOL_SIZE + 1]
        pool = _mix(pool, _hashmix(column[:, None], constants[:-1], constants[1:]))
        at += _POOL_SIZE
    hashed = (pool[:, _CYCLE] ^ _HASH_B[:-1]) * _HASH_B[1:]
    hashed ^= hashed >> _XSHIFT
    # generate_state's uint64 words are its uint32 words in pairs, low first;
    # PCG64 reads each index's four from memory, so the rows are C-contiguous.
    seeds = hashed[:, 1::2].astype(np.uint64) << np.uint64(32) | hashed[:, ::2]
    seeds = np.ascontiguousarray(seeds)
    np.random.bit_generator.ISeedSequence.register(_State)
    for state in seeds:
        yield np.random.Generator(np.random.PCG64(_State(state)))
