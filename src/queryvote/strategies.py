"""Budgeted elicitation: question types, budget policies, and one run in closed form.

A truthful voter answers a question by cutting the shown class along their
own ranking, so every class known about a voter is a run of consecutive
places in that ranking. Questions always target the oldest range still worth
splitting (2 or more candidates), first in first out from ``(0, m)``.

Under a registry cost that walk never reads a ranking: the class sizes of an
answer and the price of a question depend only on the size of the range
shown. So one :class:`Schedule` per (question type, cost, m) holds, for every
voter alike, the range asked at each step, its price and the cuts after q
questions, and a voter's whole state is its level: the number of questions
it has answered. A run is one function of (schedule, budget policy, voter
order, budget), :func:`_elicit`: levels never rise along the voter order,
so each policy yields them as runs ``(level, count)``, which ``_elicit``
returns as they are, with the spend; :func:`_levels` expands them into the
level of each place with one ``np.repeat``. :func:`run_elicitation`
builds the voters' classes level by level and class by class: the voters at
one level share its cuts, so a wider class is a block of their rankings'
columns sorted row by row, and a run of one-candidate classes is one gather
of those columns. The transcript is read off the schedule at the same levels. The profile it
returns is a tuple that also keeps its schedule, each voter's level and the
election's places, so :func:`~queryvote.scoring.partial_scores` scores it
from one table of shares by level and place, as a sweep does; any other
profile is checked candidate by candidate. The cached tables and the kept
arrays are read-only.

Two ways to spend the budget, each with a closed form in the levels, so that
each budget is computed on its own in time linear in schedule and voters:

* ``EQUAL``: round-robin over the voters, one question per visit, skipping a
  voter whose next question is unaffordable or who has nothing left to
  answer; the run ends after a full round in which nothing was asked. A
  voter refused at level r stays refused, since the spend only grows and
  the price of question r is fixed, and so is every later voter at level r.
  So round r asks the first ``j_r = min(j_{r-1}, (cap - spent) // price_r)``
  voters of the order, all at level r: one run of levels per round. Under
  exact prices the rounds that ask every voter are found by one search of
  the running prices, and only the rounds after them are walked.
  Hence ``EQUAL`` is not monotone in the budget. Under ``S-EQ``, IC seed 1,
  100 x 250, ``variance_aware`` and the identity order, a budget of 799
  leaves voter 0 at level 2 (spent 700); at 800 round 0 asks four voters,
  not three, and leaves nothing for round 1, so voter 0 stays at level 1.
* ``FCFS``: fully resolve the first voter before touching the second, and so
  on; the run ends the moment the current voter's next question does not fit
  in the remaining budget (partial progress on that voter is kept). So the
  first ``cap // full`` voters are resolved, and the next one stops at the
  last level whose running price fits in what is left: at most three runs.

The spend is exact. When the prices are Fractions, it is kept as an int
count of ``1/D`` units, D their least common denominator: every price is a
whole number of units, so the sum is exact, and ``units <= floor(budget *
D)``, over the exact value of the budget (a finite float is a dyadic
rational), holds exactly when ``units / D <= budget``. Int prices
(``candidates``) are whole units with D = 1. Float prices (``computational``)
are summed one at a time in the order charged, as a running sum searched
once for the budget itself: no int count reproduces a sum of rounded
additions. One search, :func:`_afford`, serves both policies: ``EQUAL``
runs it on each round's prices, ``FCFS`` on the prices tiled voter after
voter. :func:`_elicit_units` gives a run's spend in units, and
:func:`_spend` turns it into the prices' type, a ``Fraction(units, D)``
under Fraction prices; a sweep keeps the units and writes each row's float
as ``units / D``, one correctly rounded division, the bits of the
Fraction's float.

Every spending bound is read by one rule, :func:`_budget`: a value whose type
passes :func:`~queryvote.core._is_real_type` and is ``>= 0`` (not NaN), or
inf, unlimited or infinity (any case, spaces ignored) for ``UNLIMITED``. A
numpy scalar reads as its Python number; an int or a Fraction stays exact.
A question type, a budget policy or a strategy label such as ``S-EQ`` is
read by the name rule of :func:`~queryvote.core._named`.

A custom cost callable may price a question by the candidates shown, which
no schedule can hold, so elicitation takes registry costs only; the axiom
audit (:func:`~queryvote.costs.audit_axiom`) still takes a callable.
"""

from __future__ import annotations

import math
from bisect import bisect, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, pairwise, repeat
from typing import Sequence

import numpy as np

from .core import Election, _id_table, _is_real_type, _named
from .costs import COST_FUNCTIONS, resolve_cost
from .queries import OrderedPartition, QuestionType, RefinementQuery, bucket_sizes, make_question

UNLIMITED = math.inf
_UNLIMITED_WORDS = ["inf", "unlimited", "infinity"]


def _budget(value, name: str = "budget"):
    """``value`` read by the budget rule of the module docstring, else a ValueError."""
    if not _is_real_type(type(value)):
        if isinstance(value, str) and value.strip().lower() in _UNLIMITED_WORDS:
            return UNLIMITED
        raise ValueError(f"expected a number or one of {_UNLIMITED_WORDS} for {name}, got {value!r}")
    if isinstance(value, np.generic):
        value = value.item()
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class BudgetPolicy(Enum):
    EQUAL = "EQ"
    FCFS = "FCFS"


def strategy_label(kind: QuestionType, policy: BudgetPolicy) -> str:
    """Short strategy name, e.g. ``S-EQ`` or ``NL-FCFS``."""
    return f"{kind.value}-{policy.value}"


ALL_STRATEGIES: tuple[tuple[QuestionType, BudgetPolicy], ...] = tuple(
    (kind, policy) for kind in QuestionType for policy in BudgetPolicy
)
_STRATEGIES = {strategy_label(*strategy): strategy for strategy in ALL_STRATEGIES}


def parse_strategy(label) -> tuple[QuestionType, BudgetPolicy]:
    """A strategy label such as ``S-EQ`` read by the name rule; an ``ALL_STRATEGIES`` pair as it is."""
    if label in ALL_STRATEGIES:
        return label
    return _named(_STRATEGIES, label, "strategy")[1]


class Schedule:
    """The questions every voter is asked, in order, under one (question type, registry cost, m).

    Question q shows places ``bounds[q][0]..bounds[q][-1]-1`` of a ranking
    with ratios ``ratios[q]``, costs ``prices[q]`` and is answered by cuts at
    ``bounds[q]``; ``cuts[q]`` are the class bounds after q questions. When
    every price of a size 2..m is a Fraction, ``scale`` is their least common
    denominator D and ``units[q] = prices[q] * D``, else ``units`` are the
    prices. ``cum[q]`` is the units of the first q questions.
    """

    def __init__(self, kind: QuestionType, cost_name: str, m: int):
        self.kind, self.cost_name = kind, cost_name
        cost_fn = COST_FUNCTIONS[cost_name]
        plans, price_of = {}, {}
        for size in range(2, m + 1):
            question = make_question(kind, range(size))
            plans[size] = question.buckets, bucket_sizes(question.buckets, size)
            price_of[size] = cost_fn(question)
        self.scale = None
        if price_of and all(type(price) is Fraction for price in price_of.values()):
            self.scale = math.lcm(*(price.denominator for price in price_of.values()))
        self.m = m
        self.ratios, self.prices, self.bounds = [], [], []
        cuts = [0, m]
        self.cuts = [tuple(cuts)]
        queue = deque([(0, m)] if m >= 2 else ())
        while queue:
            start, stop = queue.popleft()
            ratios, sizes = plans[stop - start]
            bounds = tuple(accumulate(sizes, initial=start))
            at = bisect(cuts, start)
            cuts[at:at] = bounds[1:-1]
            queue.extend(pair for pair in pairwise(bounds) if pair[1] - pair[0] >= 2)
            self.ratios.append(ratios)
            self.prices.append(price_of[stop - start])
            self.bounds.append(bounds)
            self.cuts.append(tuple(cuts))
        self.units = self.prices
        if self.scale is not None:
            self.units = [p.numerator * (self.scale // p.denominator) for p in self.prices]
        self.exact = not any(type(unit) is float for unit in self.units)
        self.cum = list(accumulate(self.units, initial=0))


_schedule = lru_cache(maxsize=None)(Schedule)


@lru_cache(maxsize=None)
def _singletons(m: int) -> np.ndarray:
    """``(c,)`` at index c, for each of m candidates: every one-candidate class, shared."""
    table = np.fromiter(((c,) for c in range(m)), dtype=object, count=m)
    table.flags.writeable = False
    return table


def _schedule_of(kind, cost, m: int) -> Schedule:
    """The schedule of question type ``kind`` at ``m`` candidates under a registry ``cost``."""
    cost_name, cost_fn = resolve_cost(cost)
    if cost_fn not in COST_FUNCTIONS.values():
        known = ", ".join(COST_FUNCTIONS)
        raise ValueError(f"elicitation needs a registry cost ({known}), got {cost_name!r}")
    return _schedule(_named(QuestionType, kind, "question type")[1], cost_name, m)


def _units_cap(budget, scale: int) -> int:
    """``floor(budget * scale)`` over the exact value of ``budget``, an int,
    a float or a Fraction."""
    numerator, denominator = budget.as_integer_ratio()
    return numerator * scale // denominator


def _elicit(
    schedule: Schedule, policy: BudgetPolicy, n: int, cap
) -> tuple[list[tuple[int, int]], object]:
    """The runs ``(level, count)`` of levels along an order of ``n`` voters
    under the read budget ``cap``, and the spend, as :func:`_spend` gives it."""
    runs, units = _elicit_units(schedule, policy, n, cap)
    return runs, _spend(schedule.scale, units)


def _elicit_units(
    schedule: Schedule, policy: BudgetPolicy, n: int, cap
) -> tuple[list[tuple[int, int]], object]:
    """The runs of :func:`_elicit`, and the spend in the schedule's units.

    The counts add up to ``n``; a count may be 0. With int units the cap is
    ``floor(budget * D)`` units, or all n voters' questions under an
    unlimited budget; else the budget itself.
    """
    if schedule.exact:
        cap = n * schedule.cum[-1] if cap == UNLIMITED else _units_cap(cap, schedule.scale or 1)
    return _DRIVERS[policy](schedule, n, cap)


def _spend(scale: int | None, units):
    """A spend of ``units`` in the prices' type, under the schedule ``scale``:
    the int 0 before any charge, then the sum of the prices, a
    ``Fraction(units, scale)`` when they are Fractions."""
    # Every registry price is positive, so no units means no charge yet.
    if scale is None or not units:
        return units
    return Fraction(units, scale)


def _levels(runs) -> np.ndarray:
    """The level of each place, from runs ``(level, count)`` in order."""
    levels, counts = zip(*runs)
    return np.repeat(np.array(levels, dtype=np.intp), counts)


@dataclass(frozen=True)
class LogEntry:
    voter: int
    query: RefinementQuery
    answer: OrderedPartition
    cost: object


def _entry(schedule: Schedule, v: int, ranking: Sequence[int], q: int) -> LogEntry:
    """The log entry of voter ``v``, who ranks ``ranking``, answering question ``q``."""
    bounds = schedule.bounds[q]
    subset = sorted(ranking[bounds[0] : bounds[-1]])
    query = RefinementQuery(subset=subset, buckets=schedule.ratios[q])
    answer = tuple(tuple(sorted(ranking[a:b])) for a, b in pairwise(bounds))
    return LogEntry(voter=v, query=query, answer=answer, cost=schedule.prices[q])


def _afford(prices, units, cap) -> tuple[int, object]:
    """How many of the float ``prices``, charged in order from a spend of
    ``units``, fit under ``cap``, and the spend after them (``units`` if none).

    ``prices`` is a fresh float array, overwritten with the running sums:
    ``cumsum`` adds one price at a time, so they are the floats of charging
    the prices in order, and never decrease, since every price is positive;
    so one search finds the first charge that does not fit.
    """
    prices[:1] += units
    sums = prices.cumsum(out=prices)
    asked = bisect_right(sums, cap, key=float)
    return asked, float(sums[asked - 1]) if asked else units


def _equal(schedule: Schedule, n: int, cap) -> tuple[list[tuple[int, int]], object]:
    """``EQUAL``: the runs of levels along the voter order, and the spend in units."""
    counts, units, asking, full = [n], 0, n, 0
    if schedule.exact:
        # Every voter answers the first ``full`` questions, the most whose
        # price for all n voters, n * cum[full] units, fits in the cap.
        full = bisect_right(schedule.cum, cap // n) - 1
        counts += [n] * full
        units = n * schedule.cum[full]
    for price in schedule.units[full:]:
        if schedule.exact:
            asking = min(asking, (cap - units) // price)
            units += asking * price
        else:
            asking, units = _afford(np.full(asking, price), units, cap)
        if not asking:
            break
        counts.append(asking)
    # Round q asked the first ``counts[q + 1]`` places, so the places from
    # there up to ``counts[q]`` stopped at level q.
    return [(q, a - b) for q, (a, b) in enumerate(pairwise([*counts, 0]))][::-1], units


def _fcfs(schedule: Schedule, n: int, cap) -> tuple[list[tuple[int, int]], object]:
    """``FCFS``: the runs of levels along the voter order, and the spend in units."""
    last, full = len(schedule.units), schedule.cum[-1]
    if schedule.exact:
        # One candidate is asked nothing, so every voter is done at once.
        done = min(n, cap // full) if last else n
        q = bisect_right(schedule.cum, cap - done * full) - 1 if done < n else 0
        units = done * full + schedule.cum[q]
    else:
        # The prices are tiled over one voter more than the cap pays for in
        # full, whose running sums pass the cap unless rounding kept them
        # low, and then over every voter.
        block = min(n, int(cap // full) + 2) if cap < n * full else n
        charged, units = _afford(np.tile(schedule.units, block), 0, cap)
        if block < n and charged == block * last:
            charged, units = _afford(np.tile(schedule.units, n), 0, cap)
        done, q = divmod(charged, last)
    stop = min(n - done, 1)
    return [(last, done), (q, stop), (0, n - done - stop)], units


def _charges(policy: BudgetPolicy, order: Sequence[int], levels: list[int]) -> list[tuple[int, int]]:
    """``(voter, question)`` of every question a run asked, in the order charged."""
    if policy is BudgetPolicy.FCFS:
        return [(v, q) for v, level in zip(order, levels) for q in range(level)]
    return [(v, q) for q in range(max(levels)) for v, level in zip(order, levels) if level > q]


_DRIVERS = {BudgetPolicy.EQUAL: _equal, BudgetPolicy.FCFS: _fcfs}


def _voter_order(n: int, voter_order: Sequence[int] | None) -> np.ndarray:
    """``voter_order`` as an int array, checked to be a permutation of the voter ids.

    An array is read as one row only when it is 1-D of length n; any other
    shape is refused as an empty order would be.
    """
    if voter_order is None:
        return np.arange(n)
    rows = [voter_order]
    if isinstance(voter_order, np.ndarray):
        rows = voter_order[None] if voter_order.shape == (n,) else [()]
    order, bad = _id_table(rows, n)
    if bad is not None:
        raise ValueError(f"voter_order must be a permutation of the voter ids (ints) 0..{n - 1}")
    return order[0]


class _Profile(tuple):
    """An elicited profile: the tuple of ordered partitions, plus what it was read from.

    ``_schedule`` is the run's schedule, ``_levels[v]`` voter v's level and
    ``_places[v, c]`` the place of candidate c in voter v's ranking, whose
    classes are the places cut at ``_schedule.cuts[_levels[v]]``. The arrays
    are read-only. As a tuple it compares, hashes and prints like any other;
    slices, copies and pickles are plain tuples.
    """

    def __reduce__(self):
        return tuple, (tuple(self),)


@dataclass(frozen=True)
class ElicitationRun:
    """Record of one elicitation: what was asked, what it cost, what is known."""

    question: QuestionType
    policy: BudgetPolicy
    cost_name: str
    budget: object
    spent: object
    profile: tuple[OrderedPartition, ...]
    log: tuple[LogEntry, ...]


def run_elicitation(
    election: Election,
    kind: QuestionType,
    policy: BudgetPolicy,
    cost,
    budget,
    voter_order: Sequence[int] | None = None,
    record_log: bool = True,
) -> ElicitationRun:
    """Ask questions of total cost at most ``budget`` and return what was learnt.

    Args:
        election: the election whose voters are queried.
        kind: question type asked throughout the run.
        policy: how the budget is distributed over voters.
        cost: registry cost function, by name (see ``COST_FUNCTIONS``).
        budget: spending cap, read by :func:`_budget` into ``run.budget``.
        voter_order: permutation of the voters, identity by default.
        record_log: set False to skip the per-question transcript (faster
            for large sweeps; the returned ``log`` is then empty).

    The spend test is exact: a question is asked only if its cost fits in
    the remaining budget, so ``spent <= budget`` always holds.
    """
    schedule = _schedule_of(kind, cost, election.m)
    _, policy = _named(BudgetPolicy, policy, "budget policy")
    order = _voter_order(election.n, voter_order)
    budget = _budget(budget)
    runs, spent = _elicit(schedule, policy, election.n, budget)
    levels = _levels(runs)
    level_of = np.empty(election.n, dtype=np.intp)
    level_of[order] = levels
    level_of.flags.writeable = False
    # Each level's voters, in id order, yield their partitions one after the
    # other, read a class at a time: a wide class is its columns sorted row by
    # row, and a run of one-candidate classes is one gather of singletons.
    singles = _singletons(election.m)
    partitions = {0: repeat((tuple(range(election.m)),))}
    for q in {level for level, count in runs if level and count}:
        rows = election._rankings[np.flatnonzero(level_of == q)]
        columns = []
        for wide, cuts in groupby(pairwise(schedule.cuts[q]), key=lambda ab: ab[1] - ab[0] > 1):
            if wide:
                columns += (map(tuple, np.sort(rows[:, a:b], axis=1).tolist()) for a, b in cuts)
            else:
                cuts = list(cuts)
                columns += singles[rows[:, cuts[0][0] : cuts[-1][1]]].T.tolist()
        partitions[q] = zip(*columns)
    profile = _Profile(map(next, map(partitions.__getitem__, level_of.tolist())))
    profile._schedule, profile._levels, profile._places = schedule, level_of, election._places
    charges = _charges(policy, order.tolist(), levels.tolist()) if record_log else ()
    return ElicitationRun(
        question=schedule.kind,
        policy=policy,
        cost_name=schedule.cost_name,
        budget=budget,
        spent=spent,
        profile=profile,
        log=tuple(_entry(schedule, v, election._rankings[v].tolist(), q) for v, q in charges),
    )
