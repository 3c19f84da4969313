"""Election model: candidates, rankings, committees, and Borda scoring.

Candidates are the dense integer ids ``0..m-1``. A voter's ranking is a
permutation of those ids, most preferred first. A committee is a frozenset of
candidate ids of the election's committee size ``k``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

PreferenceOrder = tuple[int, ...]
Committee = frozenset[int]


def _is_int_type(kind: type) -> bool:
    """The one rule for an int that a caller hands the package: ``kind`` has
    ``__index__``, which floats and strings lack, and is neither bool nor an
    ndarray (whose ``__index__`` holds for 0-d arrays only)."""
    return kind is not bool and not issubclass(kind, np.ndarray) and hasattr(kind, "__index__")


@lru_cache(maxsize=None)
def _is_real_type(kind: type) -> bool:
    """The one rule for a real number a caller hands the package: ``kind`` is
    a ``numbers.Real`` (so no str, complex or Decimal) and not bool."""
    return kind is not bool and issubclass(kind, numbers.Real)


def _whole(name: str, value) -> int:
    """``value`` as a plain int if its type passes :func:`_is_int_type`;
    anything else is a ``ValueError`` naming the field."""
    if not _is_int_type(type(value)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return operator.index(value)


def _fold(name: str) -> str:
    return name.strip().lower().replace("-", "").replace("_", "")


def _named(table, name, what: str) -> tuple:
    """The one rule for a name a caller hands the package: ``(key, entry)`` of the
    entry of ``table`` (a dict, or an Enum keyed by its values) that ``name`` is, or
    whose key it equals apart from case, surrounding spaces, ``-`` and ``_``."""
    if isinstance(table, type):
        if isinstance(name, table):
            return name.value, name
        table = table._value2member_map_
    if isinstance(name, str) and name in table:
        return name, table[name]
    folded = _fold(name) if isinstance(name, str) else None
    for key, entry in table.items():
        if entry is name or folded and _fold(key) == folded:
            return key, entry
    raise ValueError(f"unknown {what} {name!r}; choose one of: {', '.join(table)}")


def _id_table(rows: Sequence[Sequence], m: int) -> tuple[np.ndarray, int | None]:
    """``rows`` as an n x m int32 array, and the index of the first row that
    is not a permutation of the ints ``0..m-1`` (None when every row is one).

    An n x m integer-dtype ndarray is checked by one sort of its rows, in
    its own dtype, and copied as int32; the copy of a bad row holds whatever
    the cast makes of it. Any other ``rows`` are read into tuples, and each
    distinct id type is tested once by :func:`_is_int_type`. A row that
    holds an id of another type, or not ``m`` entries, is all -1 in the array.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (m,):
        bad = (np.sort(rows, axis=1) != np.arange(m)).any(axis=1)
        table = rows.astype(np.int32)
    else:
        rows = [tuple(row) for row in rows]
        kinds = set(map(type, chain.from_iterable(rows)))
        ints = set(filter(_is_int_type, kinds))
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
        bad = (np.sort(table, axis=1) != np.arange(m)).any(axis=1)
    return table, int(bad.argmax()) if bad.any() else None


def _places_of(rankings: np.ndarray) -> np.ndarray:
    """``places[v, c]``: the place of candidate c in row v of ``rankings``."""
    places = np.empty_like(rankings)
    np.put_along_axis(places, rankings, np.arange(rankings.shape[1]), axis=1)
    return places


class _Rows:
    """The ``voters`` field of :class:`Election`, a data descriptor.

    The constructor's rows are kept in the instance's ``__dict__`` only until
    ``__post_init__`` takes them out to check them. After that the field is
    the rankings as a tuple of tuples of ints, built from ``_rankings`` on
    first read and cached in the same slot.
    """

    def __get__(self, election, owner=None):
        if election is None:
            # No class-level value, so the field has no default.
            raise AttributeError("voters")
        rows = election.__dict__.get("voters")
        if rows is None:
            rows = election.__dict__["voters"] = tuple(map(tuple, election._rankings.tolist()))
        return rows

    def __set__(self, election, rows):
        election.__dict__["voters"] = rows


@dataclass(frozen=True)
class Election:
    """An ordinal election with ``m`` candidates and a target committee size ``k``.

    ``voters`` may be given as any rows of candidate ids, or as an n x m
    integer-dtype ndarray, which is read as it is; an array passed in is
    copied, never kept or frozen. The rankings are checked once, as one
    n x m int array, kept read-only in the private ``_rankings``, and that
    array is all the election stores. ``voters``, a tuple of tuples of ints,
    is built from it on first read and cached; ``n`` is its row count.
    ``==`` compares ``m``, ``k`` and the two arrays, which answers as
    comparing ``voters`` would, since each determines the other; ``hash``
    and ``repr`` read ``voters``. ``_rankings`` and its inverse ``_places``,
    built on first read, are neither compared nor shown. A pickle rebuilds
    the election from ``(m, _rankings, k)``.
    """

    m: int
    voters: tuple[PreferenceOrder, ...] = _Rows()
    k: int
    _rankings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _whole("m", self.m))
        object.__setattr__(self, "k", _whole("k", self.k))
        if self.m < 1:
            raise ValueError(f"need at least one candidate, got m={self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"committee size k={self.k} outside [1, {self.m}]")
        rankings, bad = _id_table(self.__dict__.pop("voters"), self.m)
        if not len(rankings):
            raise ValueError("election needs at least one voter")
        if bad is not None:
            raise ValueError(f"voter {bad} ranking is not a permutation of ints 0..{self.m - 1}")
        rankings.flags.writeable = False
        object.__setattr__(self, "_rankings", rankings)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.m == other.m
            and self.k == other.k
            and np.array_equal(self._rankings, other._rankings)
        )

    def __reduce__(self):
        return Election, (self.m, self._rankings, self.k)

    @property
    def n(self) -> int:
        """Number of voters."""
        return self._rankings.shape[0]

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
    m, k = len(scores), _whole("k", k)
    if not 0 <= k <= m:
        raise ValueError(f"cannot pick k={k} winners from {m} candidates")
    if isinstance(scores, np.ndarray):
        floats = scores.dtype.kind == "f"
    else:
        floats = set(map(type, scores)) == {float}
    # Only floats are sorted as floats: numpy would round an int beyond 2**53
    # listed with floats, and negating an int dtype can wrap. As Python
    # objects, ints, Fractions and mixed scores compare exactly.
    row = np.asarray(scores) if floats else np.array(scores, dtype=object)
    return frozenset(_top_k_rows(row[None], k)[0].tolist())


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k`` highest-scoring candidates, the one tie rule of the
    package: a stable sort of the negated scores keeps equal scores, ``0.0``
    and ``-0.0`` among them, in id order, so ties go to the smaller id."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def k_borda(election: Election) -> Committee:
    """The committee of the ``k`` candidates with the highest total Borda scores."""
    # Every Borda total is an int far below 2**53, so it sorts exactly as a float.
    return select_top_k(np.array(borda_scores(election), dtype=float), election.k)


def hamming(a: Committee, b: Committee) -> int:
    """Symmetric-difference distance between two equal-size committees.

    Always an even integer in ``[0, 2k]``; a single member swap counts 2.
    """
    if len(a) != len(b):
        raise ValueError(f"committees differ in size: {len(a)} vs {len(b)}")
    return len(frozenset(a) ^ frozenset(b))
