"""Positional scoring over partial preferences, and the end-to-end rule.

A voter known only as an ordered partition contributes, to every candidate in
a class, the average of the positional scores over the positions the class
spans. On a fully resolved profile this reduces to ordinary positional
scoring.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import Committee, Election, select_top_k
from .queries import OrderedPartition
from .strategies import BudgetPolicy, ElicitationRun, QuestionType, run_elicitation

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


def partial_scores(profile: Sequence[OrderedPartition], scoring: Sequence) -> list[float]:
    """Total score per candidate over a profile of ordered partitions.

    Candidates in a class spanning positions ``L..L+size-1`` (1-based) each
    get the mean of ``scoring[L-1 .. L+size-2]`` from that voter. Class sums
    are taken before dividing, so Borda scores come out exact.
    """
    scoring = validate_scoring_vector(scoring)
    m = len(scoring)
    totals = [0.0] * m
    for index, partition in enumerate(profile):
        flattened = [c for cls in partition for c in cls]
        if sorted(flattened) != list(range(m)):
            raise ValueError(f"voter {index} partition does not cover candidates 0..{m - 1}")
        start = 0
        for cls in partition:
            size = len(cls)
            share = sum(scoring[start : start + size]) / size
            for c in cls:
                totals[c] += share
            start += size
    return totals


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
