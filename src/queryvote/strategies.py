"""Budgeted elicitation: question types, budget policies, and the query loop.

A truthful voter answers a question by cutting the shown class along their
own ranking, so every class known about a voter is a run of consecutive
places in that ranking. A run keeps per voter only its cuts (the indices in
the ranking where classes start, then ``m``) and a FIFO queue of the ``(start,
stop)`` ranges still worth splitting (2 or more candidates), best first.
Questions always target the front range, so no query ever spans candidates
already known to be in different classes.
:class:`RefinementEngine` is the one implementation of that state machine and
holds the budget: its ``ask`` prices, tests, answers and charges each question,
so the drivers of single runs and budget sweeps only choose whom to ask next.

Two ways to spend the budget:

* ``EQUAL``: round-robin over the voters, one question per visit, skipping a
  voter whose next question is unaffordable or who has nothing left to
  answer; the run ends after a full round in which nothing was asked.
* ``FCFS``: fully resolve the first voter before touching the second, and so
  on; the run ends the moment the current voter's next question does not fit
  in the remaining budget (partial progress on that voter is kept).

A budget sweep (:func:`sweep_elicitation`) resumes the single-run drivers
along an ascending grid instead of starting a fresh run per budget. This is
exact because a run under budget B asks exactly what the unlimited run asks
until the first question that B cannot afford:

* under ``FCFS`` that question ends the run, so the run under B is a prefix
  of the run under any larger budget, and each budget continues the run of
  the previous one;
* under ``EQUAL`` the voter is skipped and the round goes on, so the shared
  run stops at each budget's first refusal, a fork finishes the round-robin
  under that budget from the refused voter (carrying the round's "asked
  something" flag), and the next budget resumes the shared run there.

The spend is exact and cheap to keep. For a registry cost a price depends
only on the question type, the cost and the class size, so one table per
(question type, cost, m) holds every price a run can be charged. When those
prices are Fractions, the spend is kept as an int count of ``1/D`` units, D
their least common denominator: every price is a whole number of units, so
the sum is exact, and ``units <= floor(budget * D)``, over the exact value of
the budget (a finite float is a dyadic rational), holds exactly when
``units / D <= budget``. Int prices (``candidates``) and float prices
(``computational``) are added as they are, in the order charged, and compared
with the budget itself: a float spend is a sum of rounded additions that no
int count reproduces, and Python compares int, float and Fraction exactly. A
custom callable is priced on the subset shown and charged the same way.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, pairwise
from typing import Iterator, Sequence, TextIO

from .core import Election
from .costs import COST_FUNCTIONS, resolve_cost
from .queries import (
    OrderedPartition,
    QuestionType,
    RefinementQuery,
    bucket_sizes,
    format_answer_line,
    format_query_line,
    make_question,
    parse_answer_line,
    parse_query_line,
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


@lru_cache(maxsize=None)
def _plan(kind: QuestionType, size: int):
    """Bucket ratios and class sizes for a question, which depend only on size."""
    template = make_question(kind, range(size))
    return template.buckets, bucket_sizes(template.buckets, size)


@lru_cache(maxsize=None)
def _price_table(kind: QuestionType, cost_fn, m: int):
    """Every question of a run under a registry cost, indexed by class size.

    Returns ``(table, scale)``. ``table[size]`` for sizes 2..m is ``(units,
    sizes, ratios, price)``: the price in spend units, the class sizes of the
    truthful answer, the bucket ratios and the price as the cost function
    gives it. When every price is a Fraction, ``scale`` is their least common
    denominator D and ``units`` is ``price * D``, an int; otherwise ``scale``
    is None and ``units`` is the price itself.
    """
    plans = {size: _plan(kind, size) for size in range(2, m + 1)}
    prices = {
        size: cost_fn(RefinementQuery(subset=range(size), buckets=ratios))
        for size, (ratios, _) in plans.items()
    }
    scale = None
    if prices and all(type(price) is Fraction for price in prices.values()):
        scale = math.lcm(*(price.denominator for price in prices.values()))
    table: list = [None, None]
    for size, (ratios, sizes) in plans.items():
        price = prices[size]
        units = price if scale is None else price.numerator * (scale // price.denominator)
        table.append((units, sizes, ratios, price))
    return table, scale


@dataclass(frozen=True)
class LogEntry:
    voter: int
    query: RefinementQuery
    answer: OrderedPartition
    cost: object


class RefinementEngine:
    """One elicitation in progress: every voter's cuts and queue, the budget, the spend, the log.

    Each voter is asked about the front range of its queue; :meth:`ask`
    prices the question, asks it only if it fits in the budget set by
    :meth:`limit`, cuts the range by the question's class sizes (the truthful
    answer) and charges the price. Registry cost functions are priced from a
    per-size table built once per (question type, cost, m), and Fraction
    prices are charged as integer units (see the module docstring); any other
    callable is priced on the subset actually shown.
    """

    def __init__(self, election: Election, kind: QuestionType, cost, record_log: bool = False):
        self.kind = kind
        self.cost_fn, self.cost_name = resolve_cost(cost)
        self.table, self.scale = (
            _price_table(kind, self.cost_fn, election.m)
            if self.cost_fn in COST_FUNCTIONS.values()
            else (None, None)
        )
        self.prices: dict = {}
        self.voters = election.voters
        m = election.m
        self.cuts = [[0, m] for _ in self.voters]
        self.pending = [deque([(0, m)] if m >= 2 else ()) for _ in self.voters]
        self.units = 0
        self.limit(UNLIMITED)
        self.log: list[LogEntry] | None = [] if record_log else None

    @property
    def spent(self):
        """Total price charged so far: the int 0 before any charge, then the sum in the prices' type."""
        # Every registry price is positive, so no units means no charge yet.
        if self.scale is None or not self.units:
            return self.units
        return Fraction(self.units, self.scale)

    def limit(self, budget) -> None:
        """Cap the total spend at ``budget``, non-negative (``UNLIMITED`` for no cap).

        With a scale D the cap is ``floor(budget * D)`` units, from the exact
        value of the budget; otherwise it is the budget itself.
        """
        _check_budget(budget)
        self.budget = self.cap = budget
        if self.scale is not None and budget != UNLIMITED:
            self.cap = math.floor(Fraction(budget) * self.scale)

    def next_query(self, v: int) -> RefinementQuery | None:
        """The question voter ``v`` would be asked next, or None if resolved."""
        if not self.pending[v]:
            return None
        start, stop = self.pending[v][0]
        ratios, _ = _plan(self.kind, stop - start)
        return RefinementQuery(subset=tuple(sorted(self.voters[v][start:stop])), buckets=ratios)

    def _priced_on_subset(self, v: int, start: int, stop: int):
        """The ``(units, sizes, ratios, price)`` of voter ``v``'s question, priced on its subset."""
        subset = tuple(sorted(self.voters[v][start:stop]))
        entry = self.prices.get(subset)
        if entry is None:
            ratios, sizes = _plan(self.kind, stop - start)
            price = self.cost_fn(RefinementQuery(subset=subset, buckets=ratios))
            entry = self.prices[subset] = (price, sizes, ratios, price)
        return entry

    def ask(self, v: int) -> bool:
        """Ask voter ``v``, who must not be resolved, its next question if it fits.

        Returns False, changing nothing, if the price would take the spend over
        the budget; otherwise cuts the front range, charges the price, returns True.
        """
        queue = self.pending[v]
        start, stop = queue[0]
        table = self.table
        entry = table[stop - start] if table is not None else self._priced_on_subset(v, start, stop)
        units = self.units + entry[0]
        if units > self.cap:
            return False
        bounds = list(accumulate(entry[1], initial=start))
        cuts = self.cuts[v]
        at = bisect(cuts, start)
        cuts[at:at] = bounds[1:-1]
        queue.popleft()
        queue.extend(pair for pair in pairwise(bounds) if pair[1] - pair[0] >= 2)
        self.units = units
        if self.log is not None:
            ranking = self.voters[v]
            query = RefinementQuery(subset=tuple(sorted(ranking[start:stop])), buckets=entry[2])
            classes = tuple(tuple(sorted(ranking[a:b])) for a, b in pairwise(bounds))
            self.log.append(LogEntry(voter=v, query=query, answer=classes, cost=entry[3]))
        return True

    def fork(self) -> RefinementEngine:
        """An independent copy of the run so far and its budget (sharing the price cache)."""
        twin = copy.copy(self)
        twin.cuts = [list(cuts) for cuts in self.cuts]
        twin.pending = [deque(queue) for queue in self.pending]
        if self.log is not None:
            twin.log = list(self.log)
        return twin

    def profile(self) -> tuple[OrderedPartition, ...]:
        """Every voter's known classes, best first, each as sorted candidate ids."""
        return tuple(
            tuple(
                ranking[a:b] if b - a == 1 else tuple(sorted(ranking[a:b]))
                for a, b in pairwise(cuts)
            )
            for ranking, cuts in zip(self.voters, self.cuts)
        )


def _equal_rounds(
    engine: RefinementEngine, order, start: int = 0, progressed: bool = False, stop: bool = False
) -> tuple[int, bool] | None:
    """``EQUAL``: one question per visit until a round asks nothing.

    ``start`` and ``progressed`` resume a round part-way: the first round
    begins at ``order[start]``, with that round's "asked something" flag.
    With ``stop``, the first unaffordable question ends the walk instead of
    being skipped, and the ``(start, progressed)`` that resumes at it is
    returned; None means a round asked nothing.
    """
    pending, ask = engine.pending, engine.ask
    while True:
        for v in order[start:]:
            if not pending[v]:
                continue
            if ask(v):
                progressed = True
            elif stop:
                return order.index(v), progressed
        if not progressed:
            return None
        start, progressed = 0, False


def _fcfs(engine: RefinementEngine, order) -> None:
    """``FCFS``: stop at the first question that does not fit.

    Resolved voters are passed over, so a call under a larger budget resumes there.
    """
    pending, ask = engine.pending, engine.ask
    for v in order:
        while pending[v]:
            if not ask(v):
                return


def _equal_sweep(engine: RefinementEngine, order, budgets) -> Iterator:
    """``EQUAL`` per budget: walk the shared run to its first refusal, fork, finish."""
    at = (0, False)
    for i, budget in enumerate(budgets):
        engine.limit(budget)
        at = _equal_rounds(engine, order, *at, stop=True)
        if at is None:
            for rest in budgets[i:]:
                yield rest, engine
            return
        run = engine.fork()
        _equal_rounds(run, order, *at)
        yield budget, run


def _fcfs_sweep(engine: RefinementEngine, order, budgets) -> Iterator:
    """``FCFS`` per budget: each budget continues the run of the previous one."""
    for budget in budgets:
        engine.limit(budget)
        _fcfs(engine, order)
        yield budget, engine


# Per policy: the driver of one run, and the budget sweep that resumes it.
_DRIVERS = {
    BudgetPolicy.EQUAL: (_equal_rounds, _equal_sweep),
    BudgetPolicy.FCFS: (_fcfs, _fcfs_sweep),
}


def _check_budget(budget) -> None:
    if not budget >= 0:
        raise ValueError(f"budget must be non-negative, got {budget}")


def _voter_order(n: int, voter_order: Sequence[int] | None) -> list[int]:
    if voter_order is None:
        return list(range(n))
    order = [int(v) for v in voter_order]
    if sorted(order) != list(range(n)):
        raise ValueError("voter_order must be a permutation of all voters")
    return order


def _drivers(policy: BudgetPolicy):
    try:
        return _DRIVERS[policy]
    except KeyError:
        raise ValueError(f"unknown budget policy: {policy!r}") from None


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
        cost: cost function, by registry name or as a callable.
        budget: non-negative spending cap; pass ``UNLIMITED`` for no cap.
        voter_order: permutation of the voters, identity by default.
        record_log: set False to skip the per-question transcript (faster
            for large sweeps; the returned ``log`` is then empty).

    The spend test is exact: a question is asked only if its cost fits in
    the remaining budget, so ``spent <= budget`` always holds.
    """
    engine = RefinementEngine(election, kind, cost, record_log)
    engine.limit(budget)
    order = _voter_order(election.n, voter_order)
    _drivers(policy)[0](engine, order)
    return ElicitationRun(
        question=kind,
        policy=policy,
        cost_name=engine.cost_name,
        budget=budget,
        spent=engine.spent,
        profile=engine.profile(),
        log=tuple(engine.log or ()),
    )


def sweep_elicitation(
    election: Election,
    kind: QuestionType,
    policy: BudgetPolicy,
    cost,
    budgets: Sequence,
    voter_order: Sequence[int] | None = None,
) -> Iterator[tuple[object, tuple[OrderedPartition, ...], object]]:
    """Elicit under every budget of an ascending grid, resuming one run.

    Yields ``(budget, profile, spent)`` for each entry of ``budgets`` in
    order, equal to the profile and spend of ``run_elicitation`` under that
    budget; the module docstring says why resuming is exact.
    """
    runs = sweep_engines(election, kind, policy, cost, budgets, voter_order)
    return ((budget, run.profile(), run.spent) for budget, run in runs)


def sweep_engines(
    election: Election,
    kind: QuestionType,
    policy: BudgetPolicy,
    cost,
    budgets: Sequence,
    voter_order: Sequence[int] | None = None,
) -> Iterator[tuple[object, RefinementEngine]]:
    """:func:`sweep_elicitation` as ``(budget, engine)`` pairs, checked before any is made.

    Each engine holds the run under its budget only until the next pair is
    drawn, since the next budget may resume it.
    """
    budgets = list(budgets)
    for budget in budgets:
        _check_budget(budget)
    if any(low > high for low, high in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be sorted ascending")
    engine = RefinementEngine(election, kind, cost)
    order = _voter_order(election.n, voter_order)
    return _drivers(policy)[1](engine, order, budgets)


def write_log(run: ElicitationRun, stream: TextIO) -> None:
    """Write the question/answer transcript as two lines per exchange."""
    for entry in run.log:
        stream.write(format_query_line(entry.voter, entry.query, entry.cost) + "\n")
        stream.write(format_answer_line(entry.answer) + "\n")


def read_log(stream: TextIO) -> list[LogEntry]:
    entries = []
    pending_query = None
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("Q "):
            if pending_query is not None:
                raise ValueError("question line without an answer")
            pending_query = parse_query_line(line)
        elif line.startswith("A "):
            if pending_query is None:
                raise ValueError("answer line without a question")
            voter, query, cost = pending_query
            entries.append(LogEntry(voter=voter, query=query, answer=parse_answer_line(line), cost=cost))
            pending_query = None
        else:
            raise ValueError(f"unrecognized log line: {line!r}")
    if pending_query is not None:
        raise ValueError("question line without an answer")
    return entries


def replay_log(entries: Sequence[LogEntry], m: int, n: int) -> tuple[OrderedPartition, ...]:
    """Rebuild the per-voter partitions by re-applying a transcript."""
    partitions = [[tuple(range(m))] for _ in range(n)]
    for entry in entries:
        if not 0 <= entry.voter < n:
            raise ProtocolError(f"voter {entry.voter} is outside 0..{n - 1}")
        apply_answer(partitions[entry.voter], entry.query, entry.answer)
    return tuple(map(tuple, partitions))
