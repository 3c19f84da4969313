"""Refinement queries and the simulated voter that answers them.

A query shows a voter a subset of candidates together with a vector of bucket
ratios, and asks for an ordered partition of the subset into indifference
classes whose sizes follow the ratios. The answer never contradicts the
voter's underlying ranking; within a class nothing is revealed.

:func:`make_question` builds each question type's query. A run's transcript
is ``ElicitationRun.log``, kept in memory only: one ``LogEntry(voter, query,
answer, cost)`` per question asked, in the order charged.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .core import PreferenceOrder

BucketVector = tuple
OrderedPartition = tuple[tuple[int, ...], ...]

RATIO_TOLERANCE = 1e-9


class InfeasibleQueryError(ValueError):
    """A query that asks for more indifference classes than it has candidates."""


class QuestionType(Enum):
    """The four question shapes: peel the best, the worst, both ends, or halve."""

    NEXT = "N"
    LAST = "L"
    NEXT_AND_LAST = "NL"
    SPLIT = "S"


def _is_exact(values: Iterable) -> bool:
    # The concrete-type test skips the slower ABC check for the common cases.
    return all(type(v) in (int, Fraction) or isinstance(v, Rational) for v in values)


def validate_buckets(ratios: Sequence) -> BucketVector:
    """Check bucket ratios: each positive, summing to 1 (tolerance for floats)."""
    ratios = tuple(ratios)
    if not ratios:
        raise ValueError("bucket vector must not be empty")
    exact = _is_exact(ratios)
    # A rational's denominator is positive, so its numerator carries the sign.
    signs = (b.numerator for b in ratios) if exact else ratios
    if any(s <= 0 for s in signs):
        raise ValueError(f"bucket ratios must be positive, got {ratios}")
    if exact:
        # Sum in integers over the least common denominator.
        common = math.lcm(*(b.denominator for b in ratios))
        total = sum(b.numerator * (common // b.denominator) for b in ratios)
        if total != common:
            raise ValueError(f"bucket ratios must sum to 1, got {Fraction(total, common)}")
        return ratios
    total = sum(ratios)
    if not math.isclose(float(total), 1.0, rel_tol=0.0, abs_tol=RATIO_TOLERANCE):
        raise ValueError(f"bucket ratios must sum to 1, got {float(total)!r}")
    return ratios


def _candidate_ids(values: Iterable) -> tuple[int, ...]:
    """Candidate ids read with ``operator.index``, which refuses floats and
    strings; it takes bools, so those are refused by type."""
    ids = tuple(values)
    try:
        if bool not in map(type, ids):
            return tuple(map(operator.index, ids))
    except TypeError:
        pass
    bad = next(c for c in ids if type(c) is bool or not hasattr(c, "__index__"))
    raise ValueError(f"candidate ids must be ints, got {bad!r}")


@dataclass(frozen=True)
class RefinementQuery:
    """A candidate subset plus the bucket ratios it should be partitioned by."""

    subset: tuple[int, ...]
    buckets: BucketVector

    def __post_init__(self):
        subset = _candidate_ids(self.subset)
        if not subset:
            raise ValueError("query subset must not be empty")
        if len(set(subset)) != len(subset):
            raise ValueError(f"query subset has repeated candidates: {subset}")
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "buckets", validate_buckets(self.buckets))
        if len(self.buckets) > len(subset):
            raise InfeasibleQueryError(
                f"{len(self.buckets)} buckets cannot partition {len(subset)} candidates"
            )


def bucket_sizes(buckets: Sequence, subset_size: int) -> tuple[int, ...]:
    """Integer class sizes realizing the bucket ratios over ``subset_size`` items.

    Largest-remainder rounding: floor every ideal size ``b_j * subset_size``,
    then hand the leftover units to the largest fractional parts (earlier
    index wins ties). Classes must be non-empty, so a zero-size bucket then
    borrows one unit from a bucket sitting above its own ideal (largest
    surplus first); such a donor stays within 1 of its ideal, so whenever the
    ratios admit any valid partition at all, this finds one. If no donor
    exists the ratios are unsatisfiable (possible only for lopsided vectors
    with nearly as many buckets as candidates); the starved bucket is then
    dropped and the rest renormalized, so the result may have fewer entries
    than ``buckets``.
    """
    buckets = validate_buckets(buckets)
    count = len(buckets)
    if count > subset_size:
        raise InfeasibleQueryError(
            f"{count} buckets cannot partition {subset_size} candidates"
        )
    ideals = [b * subset_size for b in buckets]
    sizes = [math.floor(x) for x in ideals]
    leftover = subset_size - sum(sizes)
    by_remainder = sorted(range(count), key=lambda j: (sizes[j] - ideals[j], j))
    for j in by_remainder[:leftover]:
        sizes[j] += 1

    for j in range(count):
        if sizes[j] > 0:
            continue
        donors = [i for i in range(count) if sizes[i] >= 2 and sizes[i] > ideals[i]]
        if not donors:
            keep = [i for i in range(count) if i != j]
            remaining = sum(buckets[i] for i in keep)
            return bucket_sizes(tuple(buckets[i] / remaining for i in keep), subset_size)
        donor = max(donors, key=lambda i: (sizes[i] - ideals[i], sizes[i], -i))
        sizes[donor] -= 1
        sizes[j] += 1
    return tuple(sizes)


def slice_classes(ranked: Sequence[int], sizes: Sequence[int]) -> OrderedPartition:
    """Cut a best-first candidate sequence into consecutive classes of the given sizes."""
    classes = []
    start = 0
    for size in sizes:
        classes.append(tuple(sorted(ranked[start : start + size])))
        start += size
    return tuple(classes)


def answer_query(secret: PreferenceOrder, query: RefinementQuery) -> OrderedPartition:
    """Simulate a truthful voter answering ``query``.

    The queried subset is sorted by the voter's secret ranking and cut into
    consecutive classes sized by :func:`bucket_sizes`, which is the unique
    answer consistent with the ranking. Classes are reported as sorted id
    tuples; the order inside a class carries no information.
    """
    position = {c: i for i, c in enumerate(secret)}
    unknown = [c for c in query.subset if c not in position]
    if unknown:
        raise ValueError(f"candidates {unknown} do not appear in the voter's ranking")
    ranked = sorted(query.subset, key=position.__getitem__)
    return slice_classes(ranked, bucket_sizes(query.buckets, len(ranked)))


def make_question(kind: QuestionType, subset: Iterable[int]) -> RefinementQuery | None:
    """Build the bucket vector of a question type over ``subset``.

    Returns None when the subset has at most one candidate: there is nothing
    left to ask, and a no-op question must not charge the budget.
    """
    ids = tuple(sorted(_candidate_ids(subset)))
    s = len(ids)
    if s <= 1:
        return None
    if kind is QuestionType.NEXT:
        ratios = (Fraction(1, s), Fraction(s - 1, s))
    elif kind is QuestionType.LAST:
        ratios = (Fraction(s - 1, s), Fraction(1, s))
    elif kind is QuestionType.NEXT_AND_LAST:
        if s == 2:
            ratios = (Fraction(1, 2), Fraction(1, 2))
        else:
            ratios = (Fraction(1, s), Fraction(s - 2, s), Fraction(1, s))
    elif kind is QuestionType.SPLIT:
        ratios = (Fraction((s + 1) // 2, s), Fraction(s // 2, s))
    else:
        raise ValueError(f"unknown question type: {kind!r}")
    return RefinementQuery(subset=ids, buckets=ratios)
