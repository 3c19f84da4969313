"""Election model: candidates, rankings, committees, and Borda scoring.

Candidates are the dense integer ids ``0..m-1``. A voter's ranking is a
permutation of those ids, most preferred first. A committee is a frozenset of
candidate ids of the election's committee size ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

PreferenceOrder = tuple[int, ...]
Committee = frozenset[int]


def _is_id_array(rows, m: int) -> bool:
    """Whether ``rows`` is an n x m integer-dtype ndarray, read by :func:`_id_table` as it is."""
    return (
        isinstance(rows, np.ndarray)
        and rows.dtype.kind in "iu"
        and rows.ndim == 2
        and rows.shape[1] == m
    )


def _id_table(rows: Sequence[Sequence], m: int) -> tuple[np.ndarray, int | None, bool]:
    """``rows`` as an n x m int32 array, the index of the first row that is
    not a permutation of the ints ``0..m-1`` (None when every row is one),
    and whether every id is a plain ``int``.

    An n x m integer-dtype ndarray is range-checked row by row and copied;
    a row with an entry outside ``0..m-1`` is all -1 in the copy. Any other
    ``rows`` are read id by id: an id is an int by type, so its type has
    ``__index__``, which floats and strings lack, and is not bool. A row that
    holds anything else, or not ``m`` entries, is all -1 in the array.
    """
    if _is_id_array(rows, m):
        inside = rows.min(axis=1) >= 0
        if m <= np.iinfo(rows.dtype).max:
            inside &= rows.max(axis=1) < m
        table = rows.astype(np.int32)
        table[~inside] = -1
        plain = False
    else:
        kinds = set(map(type, chain.from_iterable(rows)))
        ints = {kind for kind in kinds if kind is not bool and hasattr(kind, "__index__")}
        blank = (-1,) * m
        filled = [
            row if len(row) == m and (ints == kinds or ints.issuperset(map(type, row))) else blank
            for row in rows
        ]
        try:
            table = np.fromiter(chain.from_iterable(filled), np.int32, len(rows) * m)
        except OverflowError:
            # An id beyond int32 is no candidate.
            filled = [row if 0 <= min(row) and max(row) < m else blank for row in filled]
            table = np.fromiter(chain.from_iterable(filled), np.int32, len(rows) * m)
        table = table.reshape(len(rows), m)
        plain = kinds <= {int}
    bad = (np.sort(table, axis=1) != np.arange(m)).any(axis=1)
    return table, int(bad.argmax()) if bad.any() else None, plain


def _places_of(rankings: np.ndarray) -> np.ndarray:
    """``places[v, c]``: the place of candidate c in row v of ``rankings``."""
    places = np.empty_like(rankings)
    np.put_along_axis(places, rankings, np.arange(rankings.shape[1]), axis=1)
    return places


@dataclass(frozen=True)
class Election:
    """An ordinal election with ``m`` candidates and a target committee size ``k``.

    ``voters`` may be given as any rows of candidate ids, or as an n x m
    integer-dtype ndarray, which is read as it is; either way they are
    stored as a tuple of tuples of ints. The rankings are checked once, as
    one n x m int array, which is kept, read-only, in the private
    ``_rankings``; it takes no part in ``==``, ``hash`` or ``repr``, and
    neither does its inverse, ``_places``, built on first read. An array
    passed in is copied, never kept or frozen.
    """

    m: int
    voters: tuple[PreferenceOrder, ...]
    k: int
    _rankings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one candidate, got m={self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"committee size k={self.k} outside [1, {self.m}]")
        voters = self.voters
        if not _is_id_array(voters, self.m):
            voters = tuple(map(tuple, voters))
        if not len(voters):
            raise ValueError("election needs at least one voter")
        rankings, bad, plain = _id_table(voters, self.m)
        if bad is not None:
            raise ValueError(f"voter {bad} ranking is not a permutation of ints 0..{self.m - 1}")
        rankings.flags.writeable = False
        object.__setattr__(self, "voters", voters if plain else tuple(map(tuple, rankings.tolist())))
        object.__setattr__(self, "_rankings", rankings)

    @property
    def n(self) -> int:
        """Number of voters."""
        return len(self.voters)

    @cached_property
    def _places(self) -> np.ndarray:
        """``_places[v, c]``: the place of candidate c in voter v's ranking, read-only."""
        places = _places_of(self._rankings)
        places.flags.writeable = False
        return places


def borda_scores(election: Election) -> list[int]:
    """Total Borda score per candidate.

    A candidate ranked at 1-based position ``i`` earns ``m - i`` points from
    that voter; totals are summed over all voters.
    """
    return (election.n * (election.m - 1) - election._places.sum(axis=0)).tolist()


def select_top_k(scores: Sequence[float], k: int) -> Committee:
    """The ``k`` highest-scoring candidates; ties go to the smaller candidate id."""
    m = len(scores)
    if not 0 <= k <= m:
        raise ValueError(f"cannot pick k={k} winners from {m} candidates")
    order = sorted(range(m), key=lambda c: (-scores[c], c))
    return frozenset(order[:k])


def k_borda(election: Election) -> Committee:
    """The committee of the ``k`` candidates with the highest total Borda scores."""
    return select_top_k(borda_scores(election), election.k)


def hamming(a: Committee, b: Committee) -> int:
    """Symmetric-difference distance between two equal-size committees.

    Always an even integer in ``[0, 2k]``; a single member swap counts 2.
    """
    if len(a) != len(b):
        raise ValueError(f"committees differ in size: {len(a)} vs {len(b)}")
    return len(frozenset(a) ^ frozenset(b))
