"""Positional scoring over partial preferences, and the end-to-end rule.

A voter known only as an ordered partition contributes, to every candidate in
a class, the average of the positional scores over the positions the class
spans. On a fully resolved profile this reduces to ordinary positional
scoring.

Every total is added by one scorer, :func:`_totals`, from a table of shares
by row and place whose classes are filled by :func:`_fill`. A profile
returned by :func:`~queryvote.strategies.run_elicitation` reads the cached
:func:`_share_table` of its schedule at each voter's level, as a budget sweep
does. Any other profile is checked first, one candidate id at a time, and
reads one row per pattern of class sizes. So an elicited profile scores
exactly like its plain tuple.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate, chain, pairwise
from operator import add
from typing import Sequence

import numpy as np

from .core import Committee, Election, _id_table, _places_of, select_top_k
from .queries import OrderedPartition
from .strategies import BudgetPolicy, ElicitationRun, QuestionType, _Profile, run_elicitation

ScoringVector = tuple


def borda_vector(m: int) -> ScoringVector:
    """The Borda scoring vector (m-1, m-2, ..., 0)."""
    return tuple(range(m - 1, -1, -1))


def validate_scoring_vector(scoring: Sequence) -> ScoringVector:
    scoring = tuple(scoring)
    if not scoring:
        raise ValueError("scoring vector must not be empty")
    for index, entry in enumerate(scoring):
        try:
            finite = math.isfinite(entry)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"scoring vector entry {index} is {entry!r}, not a finite number")
    if any(a < b for a, b in zip(scoring, scoring[1:])):
        raise ValueError("scoring vector must be non-increasing")
    return scoring


def _fill(row: np.ndarray, scoring: ScoringVector, bounds: Sequence[int]) -> None:
    """Give each place of every class between consecutive ``bounds`` the mean
    of ``scoring`` over the class's places; class sums come before dividing,
    so Borda shares are exact."""
    for a, b in pairwise(bounds):
        row[a:b] = sum(scoring[a:b]) / (b - a)


def _share_table(schedule, scoring: ScoringVector) -> np.ndarray:
    """``table[q, p]``: the share of place p after q questions of ``schedule``, read-only.

    Vectors that compare equal can add to different bits, as ``(2**53, 1, 1)``
    and ``(2.0**53, 1.0, 1.0)`` do, so the cache also keys on each entry's repr.
    """
    return _cached_share_table(schedule, scoring, tuple(map(repr, scoring)))


@lru_cache(maxsize=32)
def _cached_share_table(schedule, scoring: ScoringVector, spelling) -> np.ndarray:
    table = np.empty((len(schedule.cuts), schedule.m))
    _fill(table[0], scoring, (0, schedule.m))
    # Question q cuts one class, places bounds[q][0]..bounds[q][-1]-1, at bounds[q].
    for q, bounds in enumerate(schedule.bounds):
        table[q + 1] = table[q]
        _fill(table[q + 1], scoring, bounds)
    table.flags.writeable = False
    return table


def _totals(table: np.ndarray, rows: Sequence[int], places: np.ndarray) -> list[float]:
    """Each candidate c's total of ``table[rows[v], places[v, c]]`` over the
    voters v, added from 0.0 one row at a time, in row order."""
    shares = table[np.asarray(rows, dtype=np.intp)[:, None], places]
    if places.shape[1] == 1:
        # numpy adds a lone column pairwise, so that one is added in Python.
        return [reduce(add, shares[:, 0].tolist(), 0.0)]
    # With two or more columns, a reduce adds row after row.
    return np.add.reduce(shares, axis=0).tolist()


def partial_scores(profile: Sequence[OrderedPartition], scoring: Sequence) -> list[float]:
    """Total score per candidate over a profile of ordered partitions.

    Candidates in a class spanning positions ``L..L+size-1`` (1-based) each
    get the mean of ``scoring[L-1 .. L+size-2]`` from that voter. Class sums
    are taken before dividing, so Borda scores come out exact. Totals are
    summed voter by voter in profile order, so a float scoring vector gives
    the bits of adding one share at a time.

    A profile returned by ``run_elicitation`` is read from its schedule,
    levels and places. Any other profile is first checked: each voter's
    classes must hold every int ``0..len(scoring)-1`` exactly once.
    """
    scoring = validate_scoring_vector(scoring)
    m = len(scoring)
    if type(profile) is _Profile and profile._schedule.m == m:
        return _totals(_share_table(profile._schedule, scoring), profile._levels, profile._places)
    profile = tuple(profile)
    ids, bad, _ = _id_table([tuple(chain.from_iterable(partition)) for partition in profile], m)
    if bad is not None:
        raise ValueError(f"voter {bad} partition does not cover candidates 0..{m - 1}")
    by_voter = [tuple(accumulate(map(len, partition), initial=0)) for partition in profile]
    # One row of shares by place per distinct pattern of class bounds.
    rows = {bounds: row for row, bounds in enumerate(dict.fromkeys(by_voter))}
    table = np.empty((len(rows), m))
    for row, bounds in zip(table, rows):
        _fill(row, scoring, bounds)
    return _totals(table, [rows[bounds] for bounds in by_voter], _places_of(ids))


def query_based_committee(
    election: Election,
    kind: QuestionType,
    policy: BudgetPolicy,
    cost,
    budget,
    voter_order: Sequence[int] | None = None,
    scoring: Sequence | None = None,
    record_log: bool = True,
) -> tuple[Committee, ElicitationRun]:
    """Elicit under the budget, score the partial profile, pick the top k.

    Returns the committee together with the full elicitation record. The
    scoring vector, one entry per candidate, defaults to Borda; ties go to
    the smaller candidate id.
    """
    scoring = borda_vector(election.m) if scoring is None else validate_scoring_vector(scoring)
    if len(scoring) != election.m:
        raise ValueError(f"scoring vector has {len(scoring)} entries for {election.m} candidates")
    run = run_elicitation(
        election, kind, policy, cost, budget, voter_order=voter_order, record_log=record_log
    )
    totals = partial_scores(run.profile, scoring)
    return select_top_k(totals, election.k), run
