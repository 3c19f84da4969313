"""Query cost functions and the monotonicity axioms used to vet them.

Every cost function is wrapped in the same piecewise rule: a query with at
most one bucket or at most one candidate reveals nothing and costs 0. Costs
computed from rational bucket vectors stay exact (``Fraction``), so budget
bookkeeping never drifts.

The audit machinery samples query pairs satisfying each axiom's hypothesis
and checks the conclusion, replaying a set of stored counterexamples first so
known violations are found regardless of the sampling seed.
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


def bhatia_davis_floor(buckets) -> Fraction:
    """Lower bound on ``1 - variance(buckets)`` that depends only on the length.

    For ratios that are positive and sum to 1, the variance is at most
    ``(1 - 1/len) * 1/len``, hence ``1 - Var >= (len^2 - len + 1) / len^2``.
    """
    count = len(buckets)
    if count < 1:
        raise ValueError("bucket vector must not be empty")
    return Fraction(count * count - count + 1, count * count)


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


def _strictly_less(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a < b - _FLOAT_SLACK * max(1.0, abs(b))
    return a < b


def _composition(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """A uniform composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = sorted(int(c) + 1 for c in rng.choice(total - 1, size=parts - 1, replace=False))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _sample_prefix_pair(rng: np.random.Generator):
    """A pair where the first query's integer class sizes are a strict prefix
    of the second's, which is the prefix-monotonicity hypothesis."""
    head = [int(x) for x in rng.integers(1, 9, size=int(rng.integers(1, 4)))]
    tail = [int(x) for x in rng.integers(1, 9, size=int(rng.integers(1, 4)))]
    small = sum(head)
    large = small + sum(tail)
    short = _query(small, (Fraction(x, small) for x in head))
    long = _query(large, (Fraction(x, large) for x in head + tail))
    return short, long


def _sample_multiple_pair(rng: np.random.Generator):
    """A query and its subset-size multiple by an integer factor."""
    parts = int(rng.integers(1, 6))
    size = int(rng.integers(parts, parts + 25))
    ratios = tuple(Fraction(x, size) for x in _composition(rng, size, parts))
    factor = int(rng.integers(2, 9))
    return _query(size, ratios), _query(factor * size, ratios), factor


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
        return (
            _query(size, (Fraction(x, size) for x in first)),
            _query(size, (Fraction(x, size) for x in second)),
        )
    raise RuntimeError("could not sample bucket vectors with distinct variance")


def audit_axiom(cost, axiom: Axiom, trials: int = 10_000, seed: int = 0) -> AxiomVerdict:
    """Search for a violation of ``axiom`` by the given cost function.

    Stored counterexamples are replayed first; then ``trials`` random query
    pairs satisfying the axiom's hypothesis are checked. The verdict records
    the first violating pair, if any, together with both costs.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    fn, name = resolve_cost(cost)

    def violation(q_low, q_high, factor=1):
        low, high = fn(q_low), fn(q_high)
        if axiom is Axiom.MULTIPLE_MONOTONICITY:
            ok = not _strictly_less(high, factor * low)
        else:
            ok = _strictly_less(low, high)
        return None if ok else (q_low, q_high, low, high)

    if axiom is Axiom.VARIANCE_MONOTONICITY and name in VARIANCE_COUNTEREXAMPLES:
        high_var, low_var = VARIANCE_COUNTEREXAMPLES[name]
        found = violation(high_var, low_var)
        if found is not None:
            return AxiomVerdict(axiom, holds=False, counterexample=found, trials=0)

    rng = substream(seed, 0)
    for t in range(trials):
        if axiom is Axiom.PREFIX_MONOTONICITY:
            found = violation(*_sample_prefix_pair(rng))
        elif axiom is Axiom.MULTIPLE_MONOTONICITY:
            base, scaled, factor = _sample_multiple_pair(rng)
            found = violation(base, scaled, factor)
        else:
            found = violation(*_sample_variance_pair(rng))
        if found is not None:
            return AxiomVerdict(axiom, holds=False, counterexample=found, trials=t + 1)
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
