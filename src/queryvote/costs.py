"""Query cost functions and the monotonicity axioms used to vet them.

Every cost function is wrapped in the same piecewise rule: a query with at
most one bucket or at most one candidate reveals nothing and costs 0. Costs
computed from rational bucket vectors stay exact (``Fraction``), so budget
bookkeeping never drifts.

The audit machinery samples query pairs satisfying each axiom's hypothesis
and checks the conclusion, replaying a set of stored counterexamples first so
known violations are found regardless of the sampling seed. A sampled query
is drawn as its candidate count and integer class sizes. Registry costs are
audited in closed form on those integers, and the query pair is built only to
report a violation; custom callables are priced on real queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

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

_NAME_BY_FUNCTION = {fn: name for name, fn in COST_FUNCTIONS.items()}


def get_cost_function(name: str) -> CostFunction:
    key = name.strip().lower().replace("-", "_")
    if key not in COST_FUNCTIONS:
        known = ", ".join(sorted(COST_FUNCTIONS))
        raise ValueError(f"unknown cost function {name!r}; choose one of: {known}")
    return COST_FUNCTIONS[key]


def resolve_cost(cost) -> tuple[CostFunction, str]:
    """Accept a cost function by name or callable; return (callable, name)."""
    if callable(cost):
        return cost, _NAME_BY_FUNCTION.get(cost, getattr(cost, "__name__", "custom"))
    fn = get_cost_function(cost)
    return fn, _NAME_BY_FUNCTION[fn]


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


def _below(a, b, factor=1) -> bool:
    """Whether cost ``a`` is strictly below ``factor * b``.

    Closed-form exact costs are ``(numerator, denominator)`` pairs with
    positive denominators and compare by integer cross-multiplication. When
    either side is a float, the comparison keeps the relative slack.
    """
    if isinstance(a, tuple):
        return a[0] * b[1] < factor * b[0] * a[1]
    b = factor * b
    if isinstance(a, float) or isinstance(b, float):
        return a < b - _FLOAT_SLACK * max(1.0, abs(b))
    return a < b


def _closed_variance_aware(size: int, classes: list[int]) -> tuple[int, int]:
    # size * parts * (1 - spread / (parts^3 * size^2)) over the denominator parts^2 * size.
    parts = len(classes)
    spread = sum((parts * x - size) ** 2 for x in classes)
    return parts**3 * size**2 - spread, parts**2 * size


# Each registry cost of a query that is not degenerate, from its candidate
# count and integer class sizes: exact costs as (numerator, denominator),
# ``computational`` as the same float that cost_computational returns.
_CLOSED_FORMS = {
    cost_candidates: lambda size, classes: (size, 1),
    cost_last_bucket: lambda size, classes: (size - classes[-1], 1),
    cost_bucket_count: lambda size, classes: ((size - classes[-1]) * (len(classes) - 1), 1),
    cost_variance_aware: _closed_variance_aware,
    cost_computational: lambda size, classes: size * math.log2(len(classes)),
}


def _closed_cost(fn: CostFunction, size: int, classes: list[int]) -> tuple[int, int] | float:
    """Registry cost ``fn`` of the query that splits ``size`` candidates into
    classes of these sizes, computed without building the query."""
    if len(classes) <= 1 or size <= 1:
        return 0.0 if fn is cost_computational else (0, 1)
    return _CLOSED_FORMS[fn](size, classes)


def _sized_query(size: int, classes: list[int]) -> RefinementQuery:
    return _query(size, (Fraction(x, size) for x in classes))


# The samplers below draw query pairs as (candidate count, integer class sizes).


def _composition(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """A uniform composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = sorted((rng.choice(total - 1, size=parts - 1, replace=False) + 1).tolist())
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _sample_prefix_pair(rng: np.random.Generator):
    """A pair where the first query's class sizes are a strict prefix of the
    second's, which is the prefix-monotonicity hypothesis."""
    head = rng.integers(1, 9, size=int(rng.integers(1, 4))).tolist()
    tail = rng.integers(1, 9, size=int(rng.integers(1, 4))).tolist()
    small = sum(head)
    return (small, head), (small + sum(tail), head + tail)


def _sample_multiple_pair(rng: np.random.Generator):
    """A query and the query with every class scaled by an integer factor:
    the same ratios over a multiple of the subset size."""
    parts = int(rng.integers(1, 6))
    size = int(rng.integers(parts, parts + 25))
    classes = _composition(rng, size, parts)
    factor = int(rng.integers(2, 9))
    return (size, classes), (factor * size, [factor * x for x in classes])


def _sample_variance_pair(rng: np.random.Generator):
    """Two same-length, same-subset queries with distinct bucket variance,
    ordered so the first has the larger variance."""
    for _ in range(64):
        parts = int(rng.integers(2, 7))
        size = int(rng.integers(parts, parts + 25))
        first = _composition(rng, size, parts)
        second = _composition(rng, size, parts)
        # Var((x_j / size)) compares like the integer spread sum((parts*x_j - size)^2).
        spread_first = sum((parts * x - size) ** 2 for x in first)
        spread_second = sum((parts * x - size) ** 2 for x in second)
        if spread_first == spread_second:
            continue
        if spread_first < spread_second:
            first, second = second, first
        return (size, first), (size, second)
    raise RuntimeError("could not sample bucket vectors with distinct variance")


_SAMPLERS = {
    Axiom.PREFIX_MONOTONICITY: _sample_prefix_pair,
    Axiom.MULTIPLE_MONOTONICITY: _sample_multiple_pair,
    Axiom.VARIANCE_MONOTONICITY: _sample_variance_pair,
}


def audit_axiom(cost, axiom: Axiom, trials: int = 10_000, seed: int = 0) -> AxiomVerdict:
    """Search for a violation of ``axiom`` by the given cost function.

    Stored counterexamples are replayed first; then ``trials`` random query
    pairs satisfying the axiom's hypothesis are checked. The verdict records
    the first violating pair, if any, together with both costs. Registry
    costs are evaluated in closed form on the sampled class sizes; the
    query pair is built, and priced by the cost function, only to report a
    violation. Other callables are priced on the queries of every pair.
    """
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    fn, name = resolve_cost(cost)

    def holds(low, high, factor) -> bool:
        if axiom is Axiom.MULTIPLE_MONOTONICITY:
            return not _below(high, low, factor)
        return _below(low, high)

    def violation(q_low, q_high, checked) -> AxiomVerdict:
        found = (q_low, q_high, fn(q_low), fn(q_high))
        return AxiomVerdict(axiom, holds=False, counterexample=found, trials=checked)

    if axiom is Axiom.VARIANCE_MONOTONICITY and name in VARIANCE_COUNTEREXAMPLES:
        high_var, low_var = VARIANCE_COUNTEREXAMPLES[name]
        if not holds(fn(high_var), fn(low_var), 1):
            return violation(high_var, low_var, 0)

    if fn in _CLOSED_FORMS:
        def price(pair):
            return _closed_cost(fn, *pair)
    else:
        def price(pair):
            return fn(_sized_query(*pair))

    sample = _SAMPLERS[axiom]
    rng = substream(seed, 0)
    for t in range(1, trials + 1):
        low, high = sample(rng)
        # The subset sizes of a multiple pair differ by its integer factor.
        if not holds(price(low), price(high), high[0] // low[0]):
            return violation(_sized_query(*low), _sized_query(*high), t)
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
    lines = ["function".ljust(width) + "  ".join(columns)]
    for name in names:
        cells = []
        for axiom in ALL_AXIOMS:
            verdict = grid[(name, axiom)]
            cells.append(("YES" if verdict.holds else "NO").ljust(len(axiom.value)))
        lines.append(name.ljust(width) + "  ".join(cells))
    notes = []
    for name in names:
        for axiom in ALL_AXIOMS:
            verdict = grid[(name, axiom)]
            if not verdict.holds:
                q1, q2, c1, c2 = verdict.counterexample
                notes.append(
                    f"  {name} / {axiom.value}: |C'|={len(q1.subset)} "
                    f"B={tuple(str(b) for b in q1.buckets)} vs "
                    f"B'={tuple(str(b) for b in q2.buckets)} "
                    f"gives costs {c1} vs {c2}"
                )
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
