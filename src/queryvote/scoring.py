"""Positional scoring over partial preferences, and the end-to-end rule.

A voter known only as an ordered partition contributes, to every candidate in
a class, the average of the positional scores over the positions the class
spans. On a fully resolved profile this reduces to ordinary positional
scoring.

A profile returned by :func:`~queryvote.strategies.run_elicitation` is scored
from the arrays it was read from: each voter's candidates in class order and
each voter's level. Any other profile is checked first, one candidate id at a
time; both are then scored by the same steps, so their totals are the same
bits.
"""

from __future__ import annotations

import math
from itertools import chain, pairwise
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


def _read_profile(profile, m: int) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
    """``(ids, patterns, pattern_of)`` of a profile over candidates ``0..m-1``.

    ``ids[v]`` lists voter v's candidates class by class, best first;
    ``patterns`` are the distinct lists of class sizes and ``pattern_of[v]``
    is the index of voter v's. An elicited profile over m candidates gives
    the arrays it keeps; any other is checked.
    """
    if type(profile) is _Profile and profile._ids.shape[1] == m:
        levels, pattern_of = np.unique(profile._levels, return_inverse=True)
        cuts = profile._cuts
        patterns = [tuple(b - a for a, b in pairwise(cuts[q])) for q in levels.tolist()]
        return profile._ids, patterns, pattern_of
    profile = tuple(profile)
    ids, bad, _ = _id_table([tuple(chain.from_iterable(partition)) for partition in profile], m)
    if bad is not None:
        raise ValueError(f"voter {bad} partition does not cover candidates 0..{m - 1}")
    by_voter = [tuple(map(len, partition)) for partition in profile]
    rows = {sizes: row for row, sizes in enumerate(dict.fromkeys(by_voter))}
    return ids, list(rows), np.array([rows[sizes] for sizes in by_voter], dtype=np.intp)


def partial_scores(profile: Sequence[OrderedPartition], scoring: Sequence) -> list[float]:
    """Total score per candidate over a profile of ordered partitions.

    Candidates in a class spanning positions ``L..L+size-1`` (1-based) each
    get the mean of ``scoring[L-1 .. L+size-2]`` from that voter. Class sums
    are taken before dividing, so Borda scores come out exact. Totals are
    summed voter by voter in profile order, so a float scoring vector gives
    the bits of adding one share at a time.

    A profile returned by ``run_elicitation`` is read from the arrays it
    keeps. Any other profile is first checked: each voter's classes must
    hold every int ``0..len(scoring)-1`` exactly once.
    """
    scoring = validate_scoring_vector(scoring)
    m = len(scoring)
    ids, patterns, pattern_of = _read_profile(profile, m)
    # One row of shares by place per distinct pattern of class sizes.
    by_place = np.empty((len(patterns), m))
    for row, sizes in enumerate(patterns):
        start = 0
        for size in sizes:
            by_place[row, start : start + size] = sum(scoring[start : start + size]) / size
            start += size
    # shares[v, c]: voter v's share for candidate c, read at c's place.
    shares = by_place[pattern_of[:, None], _places_of(ids)]
    if not len(shares):
        return [0.0] * m
    # An accumulate adds row after row, so each total is the sum in voter order.
    return np.add.accumulate(shares, axis=0)[-1].tolist()


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
