"""Election model: candidates, rankings, committees, and Borda scoring.

Candidates are the dense integer ids ``0..m-1``. A voter's ranking is a
permutation of those ids, most preferred first. A committee is a frozenset of
candidate ids of the election's committee size ``k``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

PreferenceOrder = tuple[int, ...]
Committee = frozenset[int]


@dataclass(frozen=True)
class Election:
    """An ordinal election with ``m`` candidates and a target committee size ``k``."""

    m: int
    voters: tuple[PreferenceOrder, ...]
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one candidate, got m={self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"committee size k={self.k} outside [1, {self.m}]")
        # operator.index refuses floats and strings but takes bools, so those are refused by type.
        reference = list(range(self.m))
        voters = []
        for i, voter in enumerate(map(tuple, self.voters)):
            try:
                ranking = tuple(map(operator.index, voter))
            except TypeError:
                ranking = ()
            if bool in map(type, voter) or sorted(ranking) != reference:
                raise ValueError(f"voter {i} ranking is not a permutation of ints 0..{self.m - 1}")
            voters.append(ranking)
        if not voters:
            raise ValueError("election needs at least one voter")
        object.__setattr__(self, "voters", tuple(voters))

    @property
    def n(self) -> int:
        """Number of voters."""
        return len(self.voters)


def borda_scores(election: Election) -> list[int]:
    """Total Borda score per candidate.

    A candidate ranked at 1-based position ``i`` earns ``m - i`` points from
    that voter; totals are summed over all voters.
    """
    scores = [0] * election.m
    top = election.m - 1
    for voter in election.voters:
        for position, candidate in enumerate(voter):
            scores[candidate] += top - position
    return scores


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
