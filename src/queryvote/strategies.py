"""Budgeted elicitation: question types, budget policies, and the query loop.

A run keeps one refinement state per voter: an ordered partition of all
candidates plus a FIFO queue of the classes still worth splitting (size 2 or
more), seeded best class first. Questions always target the front class, so
no query ever spans candidates already known to be in different classes.
:class:`RefinementEngine` is the one implementation of that state machine;
single runs, budget sweeps and transcript replay all drive it.

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
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
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
    slice_classes,
)

UNLIMITED = math.inf


class BudgetPolicy(Enum):
    EQUAL = "EQ"
    FCFS = "FCFS"


_KIND_CODES = {kind.value: kind for kind in QuestionType}

ALL_STRATEGIES: tuple[tuple[QuestionType, BudgetPolicy], ...] = tuple(
    (kind, policy) for kind in QuestionType for policy in BudgetPolicy
)


def strategy_label(kind: QuestionType, policy: BudgetPolicy) -> str:
    """Short strategy name, e.g. ``S-EQ`` or ``NL-FCFS``."""
    return f"{kind.value}-{policy.value}"


def parse_strategy(label: str) -> tuple[QuestionType, BudgetPolicy]:
    code, _, policy = label.strip().upper().partition("-")
    if code in _KIND_CODES and policy in ("EQ", "FCFS"):
        return _KIND_CODES[code], BudgetPolicy.EQUAL if policy == "EQ" else BudgetPolicy.FCFS
    known = ", ".join(strategy_label(k, p) for k, p in ALL_STRATEGIES)
    raise ValueError(f"unknown strategy {label!r}; choose one of: {known}")


class ProtocolError(ValueError):
    """An answer that does not match the query it responds to."""


@dataclass(slots=True)
class VoterState:
    """Partition of all candidates for one voter, plus the classes still splittable."""

    partition: list[tuple[int, ...]]
    pending: deque

    def refine(self, subset: tuple[int, ...], classes: OrderedPartition) -> None:
        """Replace the class ``subset`` by ``classes``, given best first.

        New classes of size 2 or more join the back of the queue, best first.
        """
        try:
            index = self.partition.index(subset)
        except ValueError:
            raise ProtocolError(f"query subset {subset} is not a current class of this voter")
        self.partition[index : index + 1] = classes
        try:
            self.pending.remove(subset)
        except ValueError:
            pass
        self.pending.extend(cls for cls in classes if len(cls) >= 2)


def _fresh_states(m: int, n: int) -> list[VoterState]:
    """Zero-information start: one all-candidate class for each of ``n`` voters."""
    everyone = tuple(range(m))
    return [
        VoterState(partition=[everyone], pending=deque([everyone]) if m >= 2 else deque())
        for _ in range(n)
    ]


def apply_answer(state: VoterState, query: RefinementQuery, answer: OrderedPartition) -> VoterState:
    """Refine the state with an answer from outside, after checking it fits the query."""
    subset = tuple(sorted(query.subset))
    classes = tuple(tuple(sorted(cls)) for cls in answer)
    flattened = [c for cls in classes for c in cls]
    if any(not cls for cls in classes) or sorted(flattened) != list(subset) or len(
        flattened
    ) != len(set(flattened)):
        raise ProtocolError(f"answer {answer} is not an ordered partition of {subset}")
    state.refine(subset, classes)
    return state


@lru_cache(maxsize=None)
def _plan(kind: QuestionType, size: int):
    """Bucket ratios and class sizes for a question, which depend only on size."""
    template = make_question(kind, range(size))
    return template.buckets, bucket_sizes(template.buckets, size)


@dataclass(frozen=True)
class LogEntry:
    voter: int
    query: RefinementQuery
    answer: OrderedPartition
    cost: object


class RefinementEngine:
    """One elicitation in progress: every voter's state, the spend, the log.

    Each voter is asked about the front class of its queue; :meth:`ask`
    answers truthfully from the voter's ranking, refines the state and
    charges the price. Registry cost functions see a query only through its
    size and buckets, so their prices are cached per class size; any other
    callable is priced on the subset actually shown.
    """

    def __init__(self, election: Election, kind: QuestionType, cost, record_log: bool = False):
        self.kind = kind
        self.cost_fn, self.cost_name = resolve_cost(cost)
        self.by_size = self.cost_fn in COST_FUNCTIONS.values()
        self.prices: dict = {}
        self.states = _fresh_states(election.m, election.n)
        self.positions = []
        for voter in election.voters:
            lookup = [0] * election.m
            for rank, candidate in enumerate(voter):
                lookup[candidate] = rank
            self.positions.append(lookup)
        self.spent = 0
        self.log: list[LogEntry] | None = [] if record_log else None

    def next_query(self, v: int) -> RefinementQuery | None:
        """The question voter ``v`` would be asked next, or None if resolved."""
        pending = self.states[v].pending
        if not pending:
            return None
        ratios, _ = _plan(self.kind, len(pending[0]))
        return RefinementQuery(subset=pending[0], buckets=ratios)

    def price(self, v: int):
        """Cost of voter ``v``'s next question; ``v`` must not be resolved."""
        front = self.states[v].pending[0]
        key = len(front) if self.by_size else front
        value = self.prices.get(key)
        if value is None:
            value = self.prices[key] = self.cost_fn(self.next_query(v))
        return value

    def ask(self, v: int, price, spent) -> None:
        """Ask voter ``v`` its next question, which costs ``price = self.price(v)``.

        ``spent`` is the new total, ``self.spent + price``, which the caller's
        budget test has already computed.
        """
        state = self.states[v]
        front = state.pending[0]
        ratios, sizes = _plan(self.kind, len(front))
        classes = slice_classes(sorted(front, key=self.positions[v].__getitem__), sizes)
        state.refine(front, classes)
        self.spent = spent
        if self.log is not None:
            query = RefinementQuery(subset=front, buckets=ratios)
            self.log.append(LogEntry(voter=v, query=query, answer=classes, cost=price))

    def fork(self) -> RefinementEngine:
        """An independent copy of the run so far (the price cache stays shared)."""
        twin = copy.copy(self)
        twin.states = [VoterState(list(s.partition), deque(s.pending)) for s in self.states]
        if self.log is not None:
            twin.log = list(self.log)
        return twin

    def profile(self) -> tuple[OrderedPartition, ...]:
        return tuple(tuple(state.partition) for state in self.states)


def _exact(budget):
    """The budget to compare rational spends with: a finite float becomes a Fraction.

    Comparing a Fraction with a float converts the float on every test; one
    exact conversion up front gives the same answers. Drivers compare a
    Fraction spend with ``_exact(budget)`` and any other spend (int, float)
    with ``budget`` itself, which Python compares exactly and fast.
    """
    if isinstance(budget, float) and math.isfinite(budget):
        return Fraction(budget)
    return budget


def _equal_rounds(
    engine: RefinementEngine,
    order,
    budget,
    start: int = 0,
    progressed: bool = False,
    stop: bool = False,
) -> tuple[int, bool] | None:
    """``EQUAL`` under ``budget``: one question per visit until a round asks nothing.

    ``start`` and ``progressed`` resume a round part-way: the first round
    begins at ``order[start]``, with that round's "asked something" flag.
    With ``stop``, the first unaffordable question ends the walk instead of
    being skipped, and the ``(start, progressed)`` that resumes at it is
    returned; None means a round asked nothing.
    """
    exact = _exact(budget)
    states, price_of, ask = engine.states, engine.price, engine.ask
    while True:
        for v in order[start:]:
            if not states[v].pending:
                continue
            price = price_of(v)
            total = engine.spent + price
            if total > (exact if type(total) is Fraction else budget):
                if stop:
                    return order.index(v), progressed
                continue
            ask(v, price, total)
            progressed = True
        if not progressed:
            return None
        start, progressed = 0, False


def _fcfs(engine: RefinementEngine, order, budget) -> None:
    """``FCFS`` under ``budget``: stop at the first question that does not fit.

    Resolved voters are passed over, so a call under a larger budget resumes
    where the previous call stopped.
    """
    exact = _exact(budget)
    states, price_of, ask = engine.states, engine.price, engine.ask
    for v in order:
        while states[v].pending:
            price = price_of(v)
            total = engine.spent + price
            if total > (exact if type(total) is Fraction else budget):
                return
            ask(v, price, total)


def _equal_sweep(engine: RefinementEngine, order, budgets) -> Iterator:
    """``EQUAL`` per budget: walk the shared run to its first refusal, fork, finish."""
    at = (0, False)
    for i, budget in enumerate(budgets):
        at = _equal_rounds(engine, order, budget, *at, stop=True)
        if at is None:
            profile = engine.profile()
            for rest in budgets[i:]:
                yield rest, profile, engine.spent
            return
        run = engine.fork()
        _equal_rounds(run, order, budget, *at)
        yield budget, run.profile(), run.spent


def _fcfs_sweep(engine: RefinementEngine, order, budgets) -> Iterator:
    """``FCFS`` per budget: each budget continues the run of the previous one."""
    for budget in budgets:
        _fcfs(engine, order, budget)
        yield budget, engine.profile(), engine.spent


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
    _check_budget(budget)
    order = _voter_order(election.n, voter_order)
    _drivers(policy)[0](engine, order, budget)
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
    states = _fresh_states(m, n)
    for entry in entries:
        apply_answer(states[entry.voter], entry.query, entry.answer)
    return tuple(tuple(state.partition) for state in states)
