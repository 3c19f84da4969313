import csv
import hashlib
import io
import itertools
import re
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from queryvote import costs
from queryvote import (
    Axiom,
    RefinementQuery,
    audit_axiom,
    audit_grid,
    cost_bucket_count,
    cost_candidates,
    cost_computational,
    cost_last_bucket,
    cost_variance_aware,
    get_cost_function,
    variance,
)
from queryvote.costs import COST_FUNCTIONS, audit_csv_rows, format_audit_table
from queryvote.rng import substream


def q(size, *ratios):
    return RefinementQuery(tuple(range(size)), ratios)


def test_variance_values():
    assert variance((F(1, 2), F(1, 2))) == 0
    assert variance((F(1, 4), F(3, 4))) == F(1, 16)
    assert variance((F(1, 2), F(3, 10), F(1, 5))) == F(7, 450)
    assert variance((F(2, 5), F(7, 20), F(1, 4))) == F(7, 1800)


def test_variance_degenerate():
    assert variance(()) == 0
    assert variance((F(1),)) == 0


def test_variance_matches_two_pass_oracle():
    rng = substream(31)
    for _ in range(200):
        parts = int(rng.integers(2, 8))
        weights = [int(x) for x in rng.integers(1, 20, parts)]
        total = sum(weights)
        ratios = tuple(F(w, total) for w in weights)
        mean = sum(ratios) / parts
        oracle = sum((r - mean) ** 2 for r in ratios) / parts
        assert variance(ratios) == oracle


def test_cost_candidates():
    assert cost_candidates(q(4, F(1, 4), F(3, 4))) == 4
    assert cost_candidates(q(1, F(1))) == 0
    assert cost_candidates(q(6, F(1, 2), F(1, 2))) == 6


def test_cost_last_bucket():
    assert cost_last_bucket(q(4, F(1, 4), F(3, 4))) == 1
    assert cost_last_bucket(q(4, F(1, 2), F(1, 2))) == 2
    assert cost_last_bucket(q(4, F(1, 4), F(1, 4), F(1, 2))) == 2


def test_cost_bucket_count():
    assert cost_bucket_count(q(10, F(1, 2), F(3, 10), F(1, 5))) == 16
    assert cost_bucket_count(q(10, F(2, 5), F(7, 20), F(1, 4))) == 15
    assert cost_bucket_count(q(10, F(1))) == 0


def test_cost_variance_aware():
    assert cost_variance_aware(q(4, F(1, 2), F(1, 2))) == 8
    assert cost_variance_aware(q(2, F(1, 2), F(1, 2))) == 4
    assert cost_variance_aware(q(4, F(1, 4), F(3, 4))) == F(15, 2)
    # Float ratios take the float branch of variance, to the same value here.
    assert variance((0.25, 0.75)) == 0.0625
    price = cost_variance_aware(q(4, 0.25, 0.75))
    assert price == 7.5 and type(price) is float


def test_cost_computational():
    assert cost_computational(q(4, F(1, 2), F(1, 2))) == 4.0
    assert cost_computational(q(3, F(1),)) == 0.0
    assert cost_computational(q(8, F(1, 4), F(1, 4), F(1, 4), F(1, 4))) == 16.0


def test_all_costs_zero_on_degenerate_queries():
    for fn in COST_FUNCTIONS.values():
        assert fn(q(1, F(1))) == 0
        assert fn(q(5, F(1))) == 0


def test_bhatia_davis_floor_bounds_variance():
    assert 1 - variance((F(1, 4), F(3, 4))) == F(15, 16) >= F(3, 4)
    assert 1 - variance((F(1, 2), F(3, 10), F(1, 5))) == F(443, 450) >= F(7, 9)
    rng = substream(32)
    for _ in range(300):
        parts = int(rng.integers(1, 8))
        weights = [int(x) for x in rng.integers(1, 20, parts)]
        total = sum(weights)
        ratios = tuple(F(w, total) for w in weights)
        count = len(ratios)
        assert 0 <= variance(ratios) <= F(count - 1, count) * F(1, count)


def test_get_cost_function_accepts_variants():
    assert get_cost_function("Variance-Aware") is cost_variance_aware
    with pytest.raises(ValueError):
        get_cost_function("bogus")


def test_audit_candidates_fails_variance_monotonicity():
    verdict = audit_axiom("candidates", Axiom.VARIANCE_MONOTONICITY, trials=10, seed=0)
    assert not verdict.holds
    q1, q2, c1, c2 = verdict.counterexample
    assert c1 == c2 == 4
    assert variance(q1.buckets) > variance(q2.buckets)


def test_audit_last_bucket_stored_counterexample():
    verdict = audit_axiom("last_bucket", Axiom.VARIANCE_MONOTONICITY, trials=10, seed=0)
    assert not verdict.holds
    _, _, c1, c2 = verdict.counterexample
    assert (c1, c2) == (8, F(15, 2))


def test_audit_variance_aware_passes_everything():
    for axiom in Axiom:
        verdict = audit_axiom("variance_aware", axiom, trials=2000, seed=5)
        assert verdict.holds, (axiom, verdict.counterexample)
        assert verdict.counterexample is None


def test_counterexamples_reevaluate_to_violations():
    grid = audit_grid(trials=300, seed=9)
    for (name, axiom), verdict in grid.items():
        if verdict.holds:
            assert verdict.counterexample is None
            continue
        q1, q2, c1, c2 = verdict.counterexample
        fn = COST_FUNCTIONS[name]
        assert fn(q1) == c1 and fn(q2) == c2
        assert axiom is Axiom.VARIANCE_MONOTONICITY
        assert variance(q1.buckets) > variance(q2.buckets)
        assert not c1 < c2


def test_grid_pattern_small_trials():
    grid = audit_grid(trials=300, seed=4)
    for name in COST_FUNCTIONS:
        assert grid[(name, Axiom.PREFIX_MONOTONICITY)].holds
        assert grid[(name, Axiom.MULTIPLE_MONOTONICITY)].holds
        expected = name == "variance_aware"
        assert grid[(name, Axiom.VARIANCE_MONOTONICITY)].holds is expected
    table = format_audit_table(grid)
    assert "variance_aware" in table and "NO" in table and "YES" in table


def test_audit_rejects_bad_trials():
    for trials in (0, -3, 2.5, 10.0, True, False, "10", None):
        with pytest.raises(ValueError, match="trials"):
            audit_axiom("candidates", Axiom.PREFIX_MONOTONICITY, trials=trials)


@pytest.mark.parametrize("seed", [2.5, True, "3", None])
@pytest.mark.parametrize("name", [*costs.VARIANCE_COUNTEREXAMPLES, "variance_aware"])
def test_audit_reads_the_seed_before_replaying_a_stored_counterexample(name, seed):
    """A cell that fails on its stored counterexample refuses a seed that is
    not an int, as a sampled cell does."""
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {seed!r}")):
        audit_axiom(name, "variance_monotonicity", trials=3, seed=seed)


@pytest.mark.parametrize("axiom", list(Axiom))
def test_closed_forms_equal_registry_costs(axiom):
    # The audit prices registry costs in closed form on the sampled class
    # sizes; each must equal the function on the query those sizes describe.
    generator = substream(41, list(Axiom).index(axiom))
    degenerate = 0
    for _, chunk in costs._sampled_pairs(axiom, generator, 2000):
        for sizes, classes, parts in (chunk[:3], chunk[3:6]):
            closed = [(fn, costs._closed_costs(fn, sizes, classes, parts)) for fn in COST_FUNCTIONS.values()]
            for i in range(len(sizes)):
                query = costs._query_at(sizes, classes, i)
                degenerate += len(query.buckets) == 1
                for fn, cost in closed:
                    expected = fn(query)
                    if isinstance(expected, float):
                        assert cost.dtype == np.float64 and float(cost[i]) == expected
                    else:
                        assert type(expected) in (int, F)
                        numerator, denominator = cost
                        assert numerator.dtype == denominator.dtype == np.int64
                        assert denominator[i] > 0 and F(int(numerator[i]), int(denominator[i])) == expected
    assert degenerate > 0 or axiom is Axiom.VARIANCE_MONOTONICITY


def reported(verdict):
    if verdict.holds:
        return verdict.trials, None
    q1, q2, c1, c2 = verdict.counterexample
    return verdict.trials, q1, q2, (c1, type(c1)), (c2, type(c2))


@pytest.mark.parametrize("name", list(COST_FUNCTIONS))
def test_closed_form_audit_matches_the_query_path(monkeypatch, name):
    # Without the stored pairs, the variance cells report sampled pairs. A
    # wrapper is outside the registry, so it is priced on the queries.
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    fn = COST_FUNCTIONS[name]
    for axiom in Axiom:
        for seed in (0, 3, 9):
            closed = audit_axiom(name, axiom, trials=200, seed=seed)
            queried = audit_axiom(lambda query: fn(query), axiom, trials=200, seed=seed)
            assert reported(closed) == reported(queried)
            expected = axiom is not Axiom.VARIANCE_MONOTONICITY or name == "variance_aware"
            assert closed.holds is expected


def audit_csv_digest(grid):
    rows = audit_csv_rows(grid)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


# SHA-256 of the audit grid CSV as `queryvote audit-costs --csv` writes it. With
# the stored counterexamples every sampled cell holds at these sizes, so the
# digest does not depend on the seed; without them the variance cells report
# the first sampled violation, which pins the order of the draws.
AUDIT_CSV_DIGESTS = [
    (0, True, "a1daec6f7d45bdd41db6fdaeb0ee698c79ec70d0536cb411711afdfbe1759caa"),
    (3, True, "a1daec6f7d45bdd41db6fdaeb0ee698c79ec70d0536cb411711afdfbe1759caa"),
    (9, True, "a1daec6f7d45bdd41db6fdaeb0ee698c79ec70d0536cb411711afdfbe1759caa"),
    (0, False, "7bccbc9337410549495afcec90071c77b5cdee1cf1609e1398482de51668d8a8"),
    (3, False, "caa5693c54b17d1f0db4baeec30439f761abe885913177e0aa7e0703665fdace"),
    (9, False, "45850525892d02ac4b798495ed1c64933a5b1d1ebda4225b461bbe007518dc43"),
]


@pytest.mark.parametrize("seed, stored, digest", AUDIT_CSV_DIGESTS)
def test_audit_csv_is_pinned(monkeypatch, seed, stored, digest):
    if not stored:
        monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    assert audit_csv_digest(audit_grid(trials=300, seed=seed)) == digest


@pytest.mark.parametrize("name", sorted(costs.VARIANCE_COUNTEREXAMPLES))
def test_a_callables_verdict_does_not_depend_on_its_name(name):
    # A stored pair is replayed for the registry cost only; a callable named
    # like it was reported the stored pair at trial 0, one named otherwise not.
    fn = COST_FUNCTIONS[name]

    def placed(query):
        return fn(query)

    named = lambda query: fn(query)  # noqa: E731
    named.__name__ = name
    for trials, seed in ((1, 0), (50, 3), (2000, 9)):
        first, second = (
            audit_axiom(c, Axiom.VARIANCE_MONOTONICITY, trials=trials, seed=seed) for c in (named, placed)
        )
        assert reported(first) == reported(second) and first.trials > 0
    for cost in (name, fn):
        stored = audit_axiom(cost, Axiom.VARIANCE_MONOTONICITY, trials=1, seed=0)
        assert stored.trials == 0 and stored.counterexample[:2] == costs.VARIANCE_COUNTEREXAMPLES[name]


def test_audit_reads_the_axiom_by_its_name():
    by_name = audit_axiom("candidates", "prefix_monotonicity", trials=50)
    assert by_name == audit_axiom("candidates", Axiom.PREFIX_MONOTONICITY, trials=50)
    assert by_name.axiom is Axiom.PREFIX_MONOTONICITY
    # An unknown name gave a bare KeyError from the sampler table.
    with pytest.raises(ValueError, match="prefix"):
        audit_axiom("candidates", "prefix", trials=50)


class Recorded:
    """A generator that keeps a copy of every array its ``integers`` and
    ``random`` return, in call order."""

    def __init__(self, generator):
        self.generator, self.calls = generator, []

    def integers(self, low, high, size):
        values = self.generator.integers(low, high, size)
        self.calls.append(values.copy())
        return values

    def random(self, size):
        values = self.generator.random(size)
        self.calls.append(values.copy())
        return values


def composition(keys, size, parts):
    """The class sizes whose cuts are the ``parts - 1`` of the ``size - 1``
    inner points with the smallest keys."""
    points = sorted(range(size - 1), key=lambda point: keys[point])[: parts - 1]
    cuts = [0, *sorted(point + 1 for point in points), size]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def rebuilt(axiom, calls):
    """Every attempt drawn in the recorded ``calls``, rebuilt in plain Python
    as ``((size, classes), (size, classes))``, or ``None`` for an attempt of
    two compositions of equal variance: a list of attempts per chunk."""
    calls, chunks = iter(calls), []
    for first in calls:
        attempts = []
        chunks.append(attempts)
        if axiom is Axiom.PREFIX_MONOTONICITY:
            (heads, tails), drawn = first.tolist(), next(calls).tolist()
            for head, tail, row in zip(heads, tails, drawn):
                classes = row[: head + tail]
                attempts.append(((sum(classes[:head]), classes[:head]), (sum(classes), classes)))
        elif axiom is Axiom.MULTIPLE_MONOTONICITY:
            extra, factors, keys = (next(calls).tolist() for _ in range(3))
            for parts, more, factor, row in zip(first.tolist(), extra, factors, keys):
                classes = composition(row, parts + more, parts)
                attempts.append(((parts + more, classes), (factor * (parts + more), [factor * x for x in classes])))
        else:
            extra, keys_first, keys_second = (next(calls).tolist() for _ in range(3))
            for parts, more, one, other in zip(first.tolist(), extra, keys_first, keys_second):
                size = parts + more
                pair = [(size, composition(one, size, parts)), (size, composition(other, size, parts))]
                pair.sort(key=lambda query: sum(x * x for x in query[1]), reverse=True)
                spreads = {sum(x * x for x in classes) for _, classes in pair}
                attempts.append(tuple(pair) if len(spreads) == 2 else None)
    return chunks


def reference_trials(axiom, calls, trials):
    """The first ``trials`` trials of the rebuilt attempts."""
    return [attempt for attempts in rebuilt(axiom, calls) for attempt in attempts if attempt][:trials]


def rows(chunk):
    """A chunk of sampled pairs as ``((size, classes), (size, classes))``."""
    low_size, low, _, high_size, high, _, _ = (part.tolist() for part in chunk)
    return [
        ((a, [x for x in first if x]), (b, [x for x in second if x]))
        for a, first, b, second in zip(low_size, low, high_size, high)
    ]


def sampled(axiom, generator, trials):
    pairs = []
    for done, chunk in costs._sampled_pairs(axiom, generator, trials):
        assert done == len(pairs)
        pairs += rows(chunk)
    return pairs


# The values each sampler's trials draw: a prefix pair's head and tail class
# counts and its class sizes; a multiple pair's class count, candidates beyond
# it and factor; a variance pair's class count and candidates beyond it. A
# variance attempt with 0 or 1 candidates beyond its class count is never a
# trial: all its compositions have one sum of squares.
DOMAIN = {
    Axiom.PREFIX_MONOTONICITY: (range(1, 4), range(1, 4), range(1, 9)),
    Axiom.MULTIPLE_MONOTONICITY: (range(1, 6), range(25), range(2, 9)),
    Axiom.VARIANCE_MONOTONICITY: (range(2, 7), range(2, 25)),
}


def drawn_values(axiom, pair):
    """The values a pair drew, as ``DOMAIN`` lists them, once the pair is
    checked to meet ``axiom``'s hypothesis."""
    (size, classes), (other_size, other) = pair
    assert size == sum(classes) and other_size == sum(other)
    assert min(classes) >= 1 and min(other) >= 1
    if axiom is Axiom.PREFIX_MONOTONICITY:
        assert other[: len(classes)] == classes
        return {len(classes)}, {len(other) - len(classes)}, set(other)
    if axiom is Axiom.MULTIPLE_MONOTONICITY:
        factor = other_size // size
        assert other == [factor * x for x in classes]
        return {len(classes)}, {size - len(classes)}, {factor}
    assert len(classes) == len(other) and size == other_size
    assert sum(x * x for x in classes) > sum(x * x for x in other)
    return {len(classes)}, {size - len(classes)}


@pytest.mark.parametrize("axiom", list(Axiom))
def test_sampled_pairs_equal_numpys_draws(monkeypatch, axiom):
    """Every sampled pair is the pair rebuilt from the arrays numpy drew, in
    one chunk, past the first full chunk, and across chunks of 7 attempts,
    where a chunk can end in equal-variance attempts and its trials go on in
    the next chunk. Each pair meets the axiom's hypothesis, and the pairs
    draw every value of the domain and no other."""
    seen, ends_equal = [set() for _ in DOMAIN[axiom]], False
    for chunk, seeds, trials in ((costs._CHUNK, range(4), costs._CHUNK + 60), (7, range(4, 10), 90)):
        monkeypatch.setattr(costs, "_CHUNK", chunk)
        for seed in seeds:
            generator = Recorded(substream(seed, 0))
            pairs = sampled(axiom, generator, trials)
            # Two arrays a chunk for prefix pairs, four for the others.
            assert len(generator.calls) > (2 if axiom is Axiom.PREFIX_MONOTONICITY else 4)
            assert pairs == reference_trials(axiom, generator.calls, trials), seed
            ends_equal |= chunk == 7 and any(a[-1] is None for a in rebuilt(axiom, generator.calls)[:-1])
            for pair in pairs:
                for values, drawn in zip(seen, drawn_values(axiom, pair)):
                    values |= drawn
    assert seen == [set(values) for values in DOMAIN[axiom]]
    assert ends_equal is (axiom is Axiom.VARIANCE_MONOTONICITY)


@pytest.mark.parametrize("axiom", list(Axiom))
def test_samplers_carry_the_class_counts_and_factors_they_drew(monkeypatch, axiom):
    """The class counts a sampler returns are those of its class rows, and
    its factor is the second size over the first of a multiple pair and 1
    for the others, in one chunk, past the first full chunk and across
    chunks of 7."""
    for chunk, seeds, trials in ((costs._CHUNK, range(3), costs._CHUNK + 60), (7, range(3, 9), 90)):
        monkeypatch.setattr(costs, "_CHUNK", chunk)
        for seed in seeds:
            for _, pairs in costs._sampled_pairs(axiom, substream(seed, 0), trials):
                low_size, low, low_parts, high_size, high, high_parts, factor = pairs
                assert np.array_equal(low_parts, np.count_nonzero(low, axis=1))
                assert np.array_equal(high_parts, np.count_nonzero(high, axis=1))
                if axiom is Axiom.PREFIX_MONOTONICITY:
                    # The second query adds classes, so its size is no multiple of the first.
                    assert (factor == 1).all()
                else:
                    assert np.array_equal(factor, high_size // low_size)
                    assert np.array_equal(high_size, factor * low_size)
                    assert bool((factor == 1).all()) is (axiom is Axiom.VARIANCE_MONOTONICITY)


def test_compositions_are_uniform():
    """Each of the 10 compositions of 6 into 3 parts is drawn with a share
    within 5 standard errors of a tenth."""
    count = 20_000
    drawn = costs._composition(substream(36, 0), np.full(count, 6), np.full(count, 3), 6)
    seen = Counter(tuple(x for x in row if x) for row in drawn.tolist())
    assert sorted(seen) == sorted(c for c in itertools.product(range(1, 5), repeat=3) if sum(c) == 6)
    error = (0.1 * 0.9 / count) ** 0.5
    for classes, times in seen.items():
        assert abs(times / count - 0.1) < 5 * error, classes


def below(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return a < b - 1e-9 * max(1.0, abs(b))
    return a < b


def reference_verdict(name, axiom, pairs):
    """``reported`` of the plain audit of these pairs, priced on queries."""
    fn = COST_FUNCTIONS[name]
    for t, ((small, first), (large, second)) in enumerate(pairs, 1):
        q1, q2 = q(small, *(F(x, small) for x in first)), q(large, *(F(x, large) for x in second))
        c1, c2 = fn(q1), fn(q2)
        if axiom is Axiom.MULTIPLE_MONOTONICITY:
            holds = not below(c2, large // small * c1)
        else:
            holds = below(c1, c2)
        if not holds:
            return t, q1, q2, (c1, type(c1)), (c2, type(c2))
    return len(pairs), None


def recording(monkeypatch):
    """Make the audit draw through ``Recorded`` generators, kept in the list returned."""
    generators = []

    def recorded(seed, *path):
        generators.append(Recorded(substream(seed, *path)))
        return generators[-1]

    monkeypatch.setattr(costs, "substream", recorded)
    return generators


@pytest.mark.parametrize("name", list(COST_FUNCTIONS))
def test_audit_verdicts_equal_the_reference(monkeypatch, name):
    """Every cell's verdict, counterexample and costs with their types equal
    those of a plain audit of the pairs rebuilt from numpy's draws, sampled
    violations included; also with chunks of 5 attempts, so a violation can
    lie past the first chunk."""
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    generators = recording(monkeypatch)
    for chunk in (costs._CHUNK, 5):
        monkeypatch.setattr(costs, "_CHUNK", chunk)
        for axiom in Axiom:
            for seed in range(12):
                verdict = reported(audit_axiom(name, axiom, trials=40, seed=seed))
                pairs = reference_trials(axiom, generators[-1].calls, 40)
                assert verdict == reference_verdict(name, axiom, pairs)


@pytest.mark.parametrize("name", [n for n in COST_FUNCTIONS if n != "variance_aware"])
def test_a_violation_stops_the_sampling_at_its_chunk(monkeypatch, name):
    """Without the stored pairs, a billion trials give the verdict of 2000,
    whose first chunk is full too, and only that chunk is drawn: four arrays
    of ``_CHUNK`` attempts."""
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    generators = recording(monkeypatch)
    for seed in (0, 3, 9, 17):
        expected = reported(audit_axiom(name, Axiom.VARIANCE_MONOTONICITY, trials=2000, seed=seed))
        verdict = audit_axiom(name, Axiom.VARIANCE_MONOTONICITY, trials=10**9, seed=seed)
        assert reported(verdict) == expected and not verdict.holds
        assert [len(drawn) for drawn in generators[-1].calls] == [costs._CHUNK] * 4
