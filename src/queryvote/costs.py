"""Query cost functions and the monotonicity axioms used to vet them.

Every cost function is wrapped in the same piecewise rule: a query with at
most one bucket or at most one candidate reveals nothing and costs 0. Costs
computed from rational bucket vectors stay exact (``Fraction``), so budget
bookkeeping never drifts. A cost or axiom name is read by :func:`~queryvote.core._named`,
so ``"Variance-Aware"`` names the ``COST_FUNCTIONS`` entry ``variance_aware``.

The audit machinery samples query pairs satisfying each axiom's hypothesis
and checks the conclusion, replaying a set of stored counterexamples first so
known violations are found regardless of the sampling seed. A sampled query
is drawn as its candidate count and integer class sizes.

The trials of an audit cell are sampled a chunk at a time, as arrays that
numpy's ``Generator`` draws from the cell's ``substream(seed, 0)``: bounded
ints for class counts, sizes, class sizes and factors, and random keys that
pick each composition's cut points. A sampler returns only its trials: a
variance attempt of two equal variances is dropped. Registry costs are
evaluated in closed form on the chunk's class sizes, and the query pair is
built only to report a violation; custom callables are priced on real
queries, one pair at a time. Chunks have a fixed size, so memory stays
bounded and a violation stops the sampling at its chunk. No registry verdict
depends on the draws: every registry cost holds each axiom over the whole
sampled domain, save the cells of the stored counterexamples, and a test
enumerates that domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import _count, _named
from .queries import RefinementQuery
from .rng import derive_seed, substream

CostValue = object  # int, Fraction, or float depending on the inputs
CostFunction = Callable[[RefinementQuery], CostValue]

# Relative slack for comparisons between float-valued costs, so that
# re-associated products (e.g. scaling a cost) are not flagged as violations.
_FLOAT_SLACK = 1e-9


def variance(buckets) -> CostValue:
    """Spread of the bucket ratios around their mean 1/len(buckets).

    Zero for empty or single-bucket vectors. Because a valid vector sums
    to 1, this equals the population variance of the ratio multiset. The
    vector is assumed valid; rational entries give an exact result.
    """
    count = len(buckets)
    if count <= 1:
        return 0
    if all(isinstance(b, (int, Fraction)) for b in buckets):
        # Over a common denominator L, b_j - 1/count = (count * a_j - L) / (count * L)
        # with integer a_j = b_j * L, so the whole sum stays in integers.
        common = math.lcm(*(b.denominator for b in buckets))
        spread = sum((count * b.numerator * (common // b.denominator) - common) ** 2 for b in buckets)
        return Fraction(spread, count**3 * common**2)
    mean = 1.0 / count
    return sum((b - mean) ** 2 for b in buckets) / count


def _degenerate(query: RefinementQuery) -> bool:
    return len(query.buckets) <= 1 or len(query.subset) <= 1


def cost_candidates(query: RefinementQuery) -> CostValue:
    """Cost = number of candidates shown."""
    if _degenerate(query):
        return 0
    return len(query.subset)


def cost_last_bucket(query: RefinementQuery) -> CostValue:
    """Cost = candidates the voter must actively place (the last class is free)."""
    if _degenerate(query):
        return 0
    return len(query.subset) * (1 - query.buckets[-1])


def cost_bucket_count(query: RefinementQuery) -> CostValue:
    """Like :func:`cost_last_bucket`, scaled up by the number of extra classes."""
    if _degenerate(query):
        return 0
    return (1 - query.buckets[-1]) * len(query.subset) * (len(query.buckets) - 1)


def cost_variance_aware(query: RefinementQuery) -> CostValue:
    """Cost = |subset| * |buckets| * (1 - variance): balanced splits cost the most."""
    if _degenerate(query):
        return 0
    return len(query.subset) * len(query.buckets) * (1 - variance(query.buckets))


def cost_computational(query: RefinementQuery) -> float:
    """Cost = |subset| * log2(|buckets|), the selection-partition running time.

    Base 2 matches the recursive halving argument; any other base would only
    rescale all costs uniformly.
    """
    if _degenerate(query):
        return 0.0
    return len(query.subset) * math.log2(len(query.buckets))


COST_FUNCTIONS: dict[str, CostFunction] = {
    "candidates": cost_candidates,
    "last_bucket": cost_last_bucket,
    "bucket_count": cost_bucket_count,
    "variance_aware": cost_variance_aware,
    "computational": cost_computational,
}


def get_cost_function(name) -> CostFunction:
    return _named(COST_FUNCTIONS, name, "cost function")[1]


def resolve_cost(cost) -> tuple[str, CostFunction]:
    """``(name, callable)`` of a cost read by the name rule, or of a custom callable."""
    if callable(cost) and cost not in COST_FUNCTIONS.values():
        return getattr(cost, "__name__", "custom"), cost
    return _named(COST_FUNCTIONS, cost, "cost function")


class Axiom(Enum):
    PREFIX_MONOTONICITY = "prefix_monotonicity"
    MULTIPLE_MONOTONICITY = "multiple_monotonicity"
    VARIANCE_MONOTONICITY = "variance_monotonicity"


ALL_AXIOMS = tuple(Axiom)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of auditing one cost function against one axiom.

    ``holds`` is False exactly when ``counterexample`` is present; the stored
    pair re-evaluates to a violation under the audited function.
    """

    axiom: Axiom
    holds: bool
    counterexample: tuple[RefinementQuery, RefinementQuery, CostValue, CostValue] | None
    trials: int


def _query(size: int, ratios) -> RefinementQuery:
    return RefinementQuery(subset=tuple(range(size)), buckets=tuple(ratios))


# Known variance-monotonicity violations, replayed before any sampling.
# Keyed by registry name; the variance-aware function has no entry.
VARIANCE_COUNTEREXAMPLES: dict[str, tuple[RefinementQuery, RefinementQuery]] = {
    "candidates": (
        _query(4, (Fraction(1, 4), Fraction(3, 4))),
        _query(4, (Fraction(1, 2), Fraction(1, 2))),
    ),
    "last_bucket": (
        _query(10, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))),
        _query(10, (Fraction(2, 5), Fraction(7, 20), Fraction(1, 4))),
    ),
    "bucket_count": (
        _query(10, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))),
        _query(10, (Fraction(2, 5), Fraction(7, 20), Fraction(1, 4))),
    ),
    "computational": (
        _query(4, (Fraction(1, 4), Fraction(3, 4))),
        _query(4, (Fraction(1, 2), Fraction(1, 2))),
    ),
}


def _below(a, b, factor=1):
    """Whether cost ``a`` is strictly below ``factor * b``.

    Closed-form exact costs are ``(numerator, denominator)`` pairs with
    positive denominators and compare by integer cross-multiplication. When
    either side is a float, the comparison keeps the relative slack. Closed
    forms are arrays, one entry per sampled pair, and compare elementwise.
    """
    if isinstance(a, tuple):
        return a[0] * b[1] < factor * b[0] * a[1]
    b = factor * b
    if isinstance(a, np.ndarray):
        return a < b - _FLOAT_SLACK * np.maximum(1.0, np.abs(b))
    if isinstance(a, float) or isinstance(b, float):
        return a < b - _FLOAT_SLACK * max(1.0, abs(b))
    return a < b


def _closed_variance_aware(size, classes, parts):
    # size * parts * (1 - spread / (parts^3 * size^2)) over the denominator
    # parts^2 * size, where spread = sum((parts * x - size)^2) over the
    # classes x, which is parts * (parts * sum(x^2) - size^2) as the x sum to size.
    spread = parts * (parts * (classes * classes).sum(axis=1) - size * size)
    return parts**3 * size**2 - spread, parts**2 * size


def _last_class(classes, parts):
    return classes[np.arange(len(parts)), parts - 1]


# math.log2 of each class count a sampler draws, so that size * log2(parts)
# is the float product cost_computational makes.
_LOG2 = np.array([0.0, *(math.log2(parts) for parts in range(1, 8))])

# Each registry cost of the queries that are not degenerate, from their
# candidate counts, zero-padded class sizes and class counts as arrays: exact
# costs as (numerators, denominators), ``computational`` as the floats that
# cost_computational returns.
_CLOSED_FORMS = {
    cost_candidates: lambda size, classes, parts: (size, 1),
    cost_last_bucket: lambda size, classes, parts: (size - _last_class(classes, parts), 1),
    cost_bucket_count: lambda size, classes, parts: (
        (size - _last_class(classes, parts)) * (parts - 1), 1
    ),
    cost_variance_aware: _closed_variance_aware,
    cost_computational: lambda size, classes, parts: size * _LOG2[parts],
}


def _closed_costs(fn: CostFunction, size: np.ndarray, classes: np.ndarray):
    """Registry cost ``fn`` of each query that splits ``size`` candidates
    into classes of these sizes (a row each, zero-padded), computed without
    building the queries."""
    parts = np.count_nonzero(classes, axis=1)
    # Classes are positive, so one class is the only degenerate case.
    plain = parts > 1
    cost = _CLOSED_FORMS[fn](size, classes, parts)
    if isinstance(cost, tuple):
        return np.where(plain, cost[0], 0), np.where(plain, cost[1], 1)
    return np.where(plain, cost, 0.0)


# The samplers below draw ``count`` attempts at once from a numpy generator,
# as (candidate count, integer class sizes), and return their trials' pairs as
# arrays (first sizes, first zero-padded class rows, second sizes, second rows).


def _composition(generator: np.random.Generator, size, parts, width: int) -> np.ndarray:
    """Uniform compositions of ``size`` into ``parts`` positive ints, as rows
    of ``width`` class sizes padded with zeros. The cuts are the ``parts - 1``
    of the ``size - 1`` inner points with the smallest random keys; a size is
    at most 24 above its class count, which is at most ``width``."""
    points = np.arange(width + 23)
    keys = generator.random((len(size), len(points)))
    keys[points >= size[:, None] - 1] = np.inf
    cuts = 1 + np.argsort(keys, axis=1)[:, : width - 1]
    cuts = np.where(points[: width - 1] < parts[:, None] - 1, cuts, size[:, None])
    cuts.sort(axis=1)
    return np.diff(cuts, axis=1, prepend=0, append=size[:, None])


def _prefix_pairs(generator: np.random.Generator, count: int):
    """Pairs where the first query's class sizes are a strict prefix of the
    second's, which is the prefix-monotonicity hypothesis: a head of 1 to 3
    classes of 1 to 8 candidates, then a tail like it."""
    head, tail = generator.integers(1, 4, (2, count))
    column = np.arange(6)
    second = np.where(column < (head + tail)[:, None], generator.integers(1, 9, (count, 6)), 0)
    first = np.where(column[:3] < head[:, None], second[:, :3], 0)
    return first.sum(axis=1), first, second.sum(axis=1), second


def _multiple_pairs(generator: np.random.Generator, count: int):
    """A query of 1 to 5 classes and up to 24 more candidates, and the query
    with every class scaled by a factor of 2 to 8: the same ratios over a
    multiple of the subset size."""
    parts = generator.integers(1, 6, count)
    size = parts + generator.integers(0, 25, count)
    factor = generator.integers(2, 9, count)
    classes = _composition(generator, size, parts, 5)
    return size, classes, factor * size, factor[:, None] * classes


def _variance_pairs(generator: np.random.Generator, count: int):
    """Two queries of the same 2 to 6 classes and up to 24 more candidates,
    with distinct bucket variance, ordered so the first has the larger
    variance. An attempt that draws two of equal variance is dropped."""
    parts = generator.integers(2, 7, count)
    size = parts + generator.integers(0, 25, count)
    first, second = (_composition(generator, size, parts, 6) for _ in range(2))
    # At one size and class count, Var((x_j / size)) compares like sum(x_j^2).
    spread_first = (first * first).sum(axis=1)
    spread_second = (second * second).sum(axis=1)
    distinct = spread_first != spread_second
    swap = (spread_first < spread_second)[:, None]
    high, low = np.where(swap, second, first)[distinct], np.where(swap, first, second)[distinct]
    return size[distinct], high, size[distinct], low


# Per axiom: its sampler, and the share of spare attempts a chunk draws past
# the trials it still needs. About a fifth of the variance attempts draw two
# compositions of equal variance.
_SAMPLERS = {
    Axiom.PREFIX_MONOTONICITY: (_prefix_pairs, 0),
    Axiom.MULTIPLE_MONOTONICITY: (_multiple_pairs, 0),
    Axiom.VARIANCE_MONOTONICITY: (_variance_pairs, 0.3),
}
# Attempts drawn at once: a violation stops the sampling at its chunk.
_CHUNK = 2048


def _sampled_pairs(axiom: Axiom, generator: np.random.Generator, trials: int):
    """Yield the query pairs of the first ``trials`` trials of ``axiom``'s
    sampler, drawn from ``generator`` in chunks of at most ``_CHUNK``
    attempts: the number of trials before the chunk, then the chunk's first
    queries' sizes and zero-padded class rows and its second queries' sizes
    and rows."""
    sample, spare = _SAMPLERS[axiom]
    done = 0
    while done < trials:
        need = trials - done
        pairs = sample(generator, min(_CHUNK, need + math.ceil(spare * (need + 64))))
        yield done, tuple(part[:need] for part in pairs)
        done += len(pairs[0])


def _query_at(sizes: np.ndarray, classes: np.ndarray, i: int) -> RefinementQuery:
    """The query of row ``i`` of a chunk's sizes and zero-padded class rows."""
    size = int(sizes[i])
    return _query(size, (Fraction(x, size) for x in classes[i].tolist() if x))


def audit_axiom(cost, axiom: Axiom, trials: int = 10_000, seed: int = 0) -> AxiomVerdict:
    """Search for a violation of ``axiom`` by the given cost function.

    Stored counterexamples are replayed first; then ``trials`` random query
    pairs satisfying the axiom's hypothesis are checked, a chunk of trials
    at a time. The verdict records the first violating pair, if any,
    together with both costs. Registry costs are evaluated in closed form
    on the sampled class sizes, a chunk at once; the query pair is built,
    and priced by the cost function, only to report a violation. Other
    callables are priced on the queries of every pair, one at a time.
    ``axiom`` is an :class:`Axiom` or its value, such as ``"prefix_monotonicity"``,
    read by the name rule.
    """
    trials = _count("trials", trials)
    _, axiom = _named(Axiom, axiom, "axiom")
    name, fn = resolve_cost(cost)

    def holds(low, high, factor):
        if axiom is Axiom.MULTIPLE_MONOTONICITY:
            return np.logical_not(_below(high, low, factor))
        return _below(low, high)

    def violation(q_low, q_high, checked) -> AxiomVerdict:
        found = (q_low, q_high, fn(q_low), fn(q_high))
        return AxiomVerdict(axiom, holds=False, counterexample=found, trials=checked)

    # A stored pair is replayed for its registry cost, not for a callable of its name.
    if axiom is Axiom.VARIANCE_MONOTONICITY and fn in _CLOSED_FORMS and name in VARIANCE_COUNTEREXAMPLES:
        high_var, low_var = VARIANCE_COUNTEREXAMPLES[name]
        if not holds(fn(high_var), fn(low_var), 1):
            return violation(high_var, low_var, 0)

    for done, (low_size, low, high_size, high) in _sampled_pairs(axiom, substream(seed, 0), trials):
        # The subset sizes of a multiple pair differ by its integer factor.
        factor = high_size // low_size
        if fn in _CLOSED_FORMS:
            ok = holds(_closed_costs(fn, low_size, low), _closed_costs(fn, high_size, high), factor)
            failed = iter(np.flatnonzero(~ok).tolist())
        else:
            failed = (
                i for i, f in enumerate(factor.tolist())
                if not holds(fn(_query_at(low_size, low, i)), fn(_query_at(high_size, high, i)), f)
            )
        i = next(failed, None)
        if i is not None:
            return violation(_query_at(low_size, low, i), _query_at(high_size, high, i), done + i + 1)
    return AxiomVerdict(axiom, holds=True, counterexample=None, trials=trials)


def audit_grid(trials: int = 10_000, seed: int = 0) -> dict[tuple[str, Axiom], AxiomVerdict]:
    """Audit every registered cost function against every axiom."""
    grid = {}
    for fi, name in enumerate(COST_FUNCTIONS):
        for ai, axiom in enumerate(ALL_AXIOMS):
            grid[(name, axiom)] = audit_axiom(
                name, axiom, trials=trials, seed=derive_seed(seed, fi, ai)
            )
    return grid


def format_audit_table(grid: dict[tuple[str, Axiom], AxiomVerdict]) -> str:
    """Render the audit grid as aligned text, one cost function per row."""
    names = list(COST_FUNCTIONS)
    width = max(len(n) for n in names + ["function"]) + 2
    columns = [axiom.value for axiom in ALL_AXIOMS]
    lines, notes = ["function".ljust(width) + "  ".join(columns)], []
    for name in names:
        cells = []
        for axiom in ALL_AXIOMS:
            verdict = grid[(name, axiom)]
            cells.append(("YES" if verdict.holds else "NO").ljust(len(axiom.value)))
            if not verdict.holds:
                q1, q2, c1, c2 = verdict.counterexample
                notes.append(
                    f"  {name} / {axiom.value}: |C'|={len(q1.subset)} "
                    f"B={tuple(str(b) for b in q1.buckets)} vs "
                    f"B'={tuple(str(b) for b in q2.buckets)} "
                    f"gives costs {c1} vs {c2}"
                )
        lines.append(name.ljust(width) + "  ".join(cells))
    if notes:
        lines.append("counterexamples:")
        lines.extend(notes)
    return "\n".join(lines)


def audit_csv_rows(grid: dict[tuple[str, Axiom], AxiomVerdict]) -> list[dict[str, str]]:
    """Flatten the audit grid for CSV output."""
    rows = []
    for name in COST_FUNCTIONS:
        for axiom in ALL_AXIOMS:
            verdict = grid[(name, axiom)]
            if verdict.holds:
                detail = ""
            else:
                q1, q2, c1, c2 = verdict.counterexample
                detail = (
                    f"size={len(q1.subset)} B={'|'.join(str(b) for b in q1.buckets)} "
                    f"B'={'|'.join(str(b) for b in q2.buckets)} costs={c1};{c2}"
                )
            rows.append(
                {
                    "function": name,
                    "axiom": axiom.value,
                    "holds": "YES" if verdict.holds else "NO",
                    "counterexample": detail,
                }
            )
    return rows
