"""Seeded random streams with a stable splitting scheme.

All randomness in the package flows through :func:`substream`, which derives
an independent generator from a 64-bit seed and a path of integer tags via
numpy's ``SeedSequence``. The same ``(seed, path)`` yields the same stream on
every platform, and distinct paths yield non-overlapping streams, so work
keyed by path (one voter, one experiment cell) can be filled in parallel
without changing the result.

The private :func:`_streams` yields the streams ``substream(seed, tag, v)``
of voters ``v = 0..count-1`` in one pass: it runs ``SeedSequence``'s entropy
mixing and state generation for every voter at once over uint32 arrays, and
finishes PCG64's seeding in Python ints, so each stream is bit-identical to
its ``substream`` without building a ``SeedSequence``, ``PCG64`` and
``Generator`` per voter.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

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
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    return np.array([start * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)], np.uint32)


# Enough hashmix calls for an entropy of 2 + 2 + 1 words (seed, tag, voter).
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
# The pool words each pool word is mixed into, by source.
_TARGETS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
# generate_state(4, uint64) takes 8 uint32 words, cycling through the pool.
_CYCLE = [*range(_POOL_SIZE)] * 2


def _entropy(seed: int, path: tuple[int, ...]) -> list[int]:
    return [int(seed) & _MASK, *(int(p) & _MASK for p in path)]


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


def _hashmix(values: np.ndarray, at: int, width: int) -> np.ndarray:
    """SeedSequence's hashmix of column j of ``values`` (broadcast to ``width``
    columns) as its ``at + j``-th call."""
    values = (values ^ _HASH_A[at : at + width]) * _HASH_A[at + 1 : at + width + 1]
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


def _streams(seed: int, tag: int, count: int) -> Iterator[np.random.Generator]:
    """The generators ``substream(seed, tag, v)`` for ``v = 0..count-1``, in order.

    Each voter's entropy is the words of the masked seed, tag and voter id,
    and only the voter's word differs. So one pass of ``SeedSequence``'s
    pool mixing and ``generate_state(4, uint64)``, over a row of uint32
    words per voter, gives every voter's PCG64 seed; each yield sets the
    ``(state, inc)`` that ``PCG64`` derives from that seed on one reused
    bit generator.

    The same ``Generator`` object is yielded every time, so draw from it
    before asking for the next: ``list(_streams(...))`` holds ``count``
    references to one generator in the state of the last voter.
    """
    words = _words(int(seed) & _MASK) + _words(int(tag) & _MASK) + [0]
    entropy = np.empty((count, len(words)), np.uint32)
    entropy[:] = words
    entropy[:, -1] = np.arange(count, dtype=np.uint32)
    # The pool takes the first words, padded with zeros, each hashed in turn.
    pool = np.zeros((count, _POOL_SIZE), np.uint32)
    pool[:, : min(len(words), _POOL_SIZE)] = entropy[:, :_POOL_SIZE]
    pool, at = _hashmix(pool, 0, _POOL_SIZE), _POOL_SIZE
    # Every pool word is mixed into every other, in order of source then
    # target; a source word does not change while it is mixed in.
    for src, targets in enumerate(_TARGETS):
        pool[:, targets] = _mix(pool[:, targets], _hashmix(pool[:, src, None], at, len(targets)))
        at += len(targets)
    for word in range(_POOL_SIZE, len(words)):
        pool = _mix(pool, _hashmix(entropy[:, word, None], at, _POOL_SIZE))
        at += _POOL_SIZE
    hashed = (pool[:, _CYCLE] ^ _HASH_B[:-1]) * _HASH_B[1:]
    hashed ^= hashed >> _XSHIFT
    # generate_state's uint64 words are its uint32 words in little-endian pairs.
    seeds = hashed.astype("<u4", order="C").view("<u8").tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for high_state, low_state, high_seq, low_seq in seeds:
        # PCG64 seeds with inc = seq << 1 | 1, then steps, adds the state and steps.
        inc = ((high_seq << 64 | low_seq) << 1 | 1) & _MASK128
        state = ((inc + (high_state << 64 | low_state)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator
