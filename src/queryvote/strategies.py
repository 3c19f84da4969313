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
order, budget), :func:`_elicit`, which gives the level of each place in the
voter order and the spend; :func:`run_elicitation` reads the voters' classes
and the transcript off the schedule at those levels.

Two ways to spend the budget, each with a closed form in the levels, so that
each budget is computed on its own in time linear in schedule and voters:

* ``EQUAL``: round-robin over the voters, one question per visit, skipping a
  voter whose next question is unaffordable or who has nothing left to
  answer; the run ends after a full round in which nothing was asked. A
  voter refused at level r stays refused, since the spend only grows and
  the price of question r is fixed, and so is every later voter at level r.
  So round r asks the first ``j_r = min(j_{r-1}, (cap - spent) // price_r)``
  voters of the order, all at level r.
* ``FCFS``: fully resolve the first voter before touching the second, and so
  on; the run ends the moment the current voter's next question does not fit
  in the remaining budget (partial progress on that voter is kept). So the
  first ``cap // full`` voters are resolved, and the next one stops at the
  last level whose running price fits in what is left.

The spend is exact. When the prices are Fractions, it is kept as an int
count of ``1/D`` units, D their least common denominator: every price is a
whole number of units, so the sum is exact, and ``units <= floor(budget *
D)``, over the exact value of the budget (a finite float is a dyadic
rational), holds exactly when ``units / D <= budget``. Int prices
(``candidates``) are whole units with D = 1. Float prices (``computational``)
are added one at a time in the order charged and compared with the budget
itself: no int count reproduces a sum of rounded additions.

A custom cost callable may price a question by the candidates shown, which
no schedule can hold, so elicitation takes registry costs only; the axiom
audit (:func:`~queryvote.costs.audit_axiom`) still takes a callable.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np

from .core import Election
from .costs import COST_FUNCTIONS, resolve_cost
from .queries import (
    OrderedPartition,
    QuestionType,
    RefinementQuery,
    bucket_sizes,
    make_question,
)

UNLIMITED = math.inf


class BudgetPolicy(Enum):
    EQUAL = "EQ"
    FCFS = "FCFS"


ALL_STRATEGIES: tuple[tuple[QuestionType, BudgetPolicy], ...] = tuple(
    (kind, policy) for kind in QuestionType for policy in BudgetPolicy
)


def strategy_label(kind: QuestionType, policy: BudgetPolicy) -> str:
    """Short strategy name, e.g. ``S-EQ`` or ``NL-FCFS``."""
    return f"{kind.value}-{policy.value}"


def parse_strategy(label: str) -> tuple[QuestionType, BudgetPolicy]:
    """The strategy named by a label such as ``S-EQ``, in any case."""
    code, _, policy = str(label).strip().upper().partition("-")
    try:
        return QuestionType(code), BudgetPolicy(policy)
    except ValueError:
        known = ", ".join(strategy_label(k, p) for k, p in ALL_STRATEGIES)
        raise ValueError(f"unknown strategy {label!r}; choose one of: {known}") from None


class ProtocolError(ValueError):
    """An answer that does not match the query it responds to."""


def apply_answer(partition: list, query: RefinementQuery, answer: OrderedPartition) -> list:
    """Splice ``answer`` over the class ``query`` shows, after checking it fits the query.

    ``partition`` lists a voter's classes as sorted id tuples, best first.
    """
    subset = tuple(sorted(query.subset))
    classes = tuple(tuple(sorted(cls)) for cls in answer)
    if sorted(c for cls in classes for c in cls) != list(subset):
        raise ProtocolError(f"answer {answer} is not an ordered partition of {subset}")
    sizes = bucket_sizes(query.buckets, len(subset))
    if tuple(map(len, classes)) != sizes:
        raise ProtocolError(f"answer {answer} does not have the class sizes {sizes} of its query")
    try:
        index = partition.index(subset)
    except ValueError:
        raise ProtocolError(f"query subset {subset} is not a current class of this voter") from None
    partition[index : index + 1] = classes
    return partition


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
            ratios = make_question(kind, range(size)).buckets
            plans[size] = ratios, bucket_sizes(ratios, size)
            price_of[size] = cost_fn(RefinementQuery(subset=range(size), buckets=ratios))
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

    @cached_property
    def shares(self) -> np.ndarray:
        """``shares[q, p]``: ``2m - 1 - a - b``, a..b-1 the places of p's class after q questions."""
        top = 2 * self.m - 1
        table = np.empty((len(self.cuts), self.m), dtype=np.int64)
        table[0] = self.m - 1
        for q, bounds in enumerate(self.bounds):
            table[q + 1] = table[q]
            for a, b in pairwise(bounds):
                table[q + 1, a:b] = top - a - b
        return table


_schedule = lru_cache(maxsize=None)(Schedule)


def _schedule_of(kind, cost, m: int) -> Schedule:
    """The schedule of question type ``kind`` at ``m`` candidates under a registry ``cost``."""
    cost_fn, cost_name = resolve_cost(cost)
    if cost_fn not in COST_FUNCTIONS.values():
        known = ", ".join(COST_FUNCTIONS)
        raise ValueError(f"elicitation needs a registry cost ({known}), got {cost_name!r}")
    return _schedule(QuestionType(kind), cost_name, m)


@lru_cache(maxsize=1024)
def _units_cap(budget, scale: int) -> int:
    """``floor(budget * scale)`` over the exact value of ``budget``."""
    return math.floor(Fraction(budget) * scale)


def _elicit(schedule: Schedule, policy: BudgetPolicy, n: int, budget) -> tuple[list[int], object]:
    """The level of each place in an order of ``n`` voters under ``budget``, and the spend.

    The spend is the int 0 before any charge, then the sum in the prices'
    type. With int units the cap is ``floor(budget * D)`` units; else the
    budget itself.
    """
    _check_budget(budget)
    cap = budget
    if schedule.exact and budget != UNLIMITED:
        cap = _units_cap(budget, schedule.scale or 1)
    levels, units = _DRIVERS[policy](schedule, n, cap)
    # Every registry price is positive, so no units means no charge yet.
    if schedule.scale is None or not units:
        return levels, units
    return levels, Fraction(units, schedule.scale)


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


def _equal(schedule: Schedule, n: int, cap) -> tuple[list[int], object]:
    """``EQUAL``: the level of each place in the voter order, and the spend in units."""
    counts, units, asking = [], 0, n
    for price in schedule.units:
        if not schedule.exact:
            asked = 0
            while asked < asking and units + price <= cap:
                units += price
                asked += 1
            asking = asked
        elif cap != UNLIMITED:
            asking = min(asking, (cap - units) // price)
        if not asking:
            break
        if schedule.exact:
            units += asking * price
        counts.append(asking)
    # The voter at place i asked in every round that asked more than i voters.
    ascending = counts[::-1]
    return [len(counts) - bisect_right(ascending, i) for i in range(n)], units


def _fcfs(schedule: Schedule, n: int, cap) -> tuple[list[int], object]:
    """``FCFS``: the level of each place in the voter order, and the spend in units."""
    last = len(schedule.units)
    if schedule.exact:
        full = schedule.cum[-1]
        done = n if cap == UNLIMITED or not last else min(n, cap // full)
        levels, units = [last] * done, done * full
        if done < n:
            q = bisect_right(schedule.cum, cap - units) - 1
            levels.append(q)
            units += schedule.cum[q]
    else:
        levels, units = [], 0
        while len(levels) < n:
            q = 0
            while q < last and units + schedule.units[q] <= cap:
                units += schedule.units[q]
                q += 1
            levels.append(q)
            if q < last:
                break
    return levels + [0] * (n - len(levels)), units


def _charges(policy: BudgetPolicy, order: Sequence[int], levels: list[int]) -> list[tuple[int, int]]:
    """``(voter, question)`` of every question a run asked, in the order charged."""
    if policy is BudgetPolicy.FCFS:
        return [(v, q) for v, level in zip(order, levels) for q in range(level)]
    return [(v, q) for q in range(max(levels)) for v, level in zip(order, levels) if level > q]


_DRIVERS = {BudgetPolicy.EQUAL: _equal, BudgetPolicy.FCFS: _fcfs}


def _check_budget(budget) -> None:
    if not budget >= 0:
        raise ValueError(f"budget must be non-negative, got {budget}")


def _voter_order(n: int, voter_order: Sequence[int] | None) -> list[int]:
    if voter_order is None:
        return list(range(n))
    order = []
    for v in voter_order:
        if isinstance(v, bool) or not hasattr(v, "__index__"):
            raise ValueError(f"voter_order entries must be voter ids (ints), got {v!r}")
        order.append(operator.index(v))
    if sorted(order) != list(range(n)):
        raise ValueError("voter_order must be a permutation of all voters")
    return order


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
        budget: non-negative spending cap; pass ``UNLIMITED`` for no cap.
        voter_order: permutation of the voters, identity by default.
        record_log: set False to skip the per-question transcript (faster
            for large sweeps; the returned ``log`` is then empty).

    The spend test is exact: a question is asked only if its cost fits in
    the remaining budget, so ``spent <= budget`` always holds.
    """
    schedule = _schedule_of(kind, cost, election.m)
    policy = BudgetPolicy(policy)
    order = _voter_order(election.n, voter_order)
    levels, spent = _elicit(schedule, policy, election.n, budget)
    voters = election.voters
    level_of = dict(zip(order, levels))
    profile = tuple(
        tuple(
            ranking[a:b] if b - a == 1 else tuple(sorted(ranking[a:b]))
            for a, b in pairwise(schedule.cuts[level_of[v]])
        )
        for v, ranking in enumerate(voters)
    )
    charges = _charges(policy, order, levels) if record_log else ()
    return ElicitationRun(
        question=schedule.kind,
        policy=policy,
        cost_name=schedule.cost_name,
        budget=budget,
        spent=spent,
        profile=profile,
        log=tuple(_entry(schedule, v, voters[v], q) for v, q in charges),
    )
