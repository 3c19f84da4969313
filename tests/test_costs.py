import csv
import hashlib
import io
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

from half_draws import (
    HalfDraws,
    edge_halves,
    half_for,
    multiple_pair,
    prefix_pair,
    variance_attempt,
    variance_pair,
)


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


@pytest.mark.parametrize("axiom", list(Axiom))
def test_closed_forms_equal_registry_costs(axiom):
    # The audit prices registry costs in closed form on the sampled class
    # sizes; each must equal the function on the query those sizes describe.
    generator = substream(41, list(Axiom).index(axiom))
    degenerate = 0
    for _, chunk in costs._sampled_pairs(axiom, generator, 2000):
        for sizes, classes in (chunk[:2], chunk[2:]):
            closed = [(fn, costs._closed_costs(fn, sizes, classes)) for fn in COST_FUNCTIONS.values()]
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
    (0, False, "6bc177acbafac57a53c8bb2418ba1f5be5859063d8b033e7fca0152cd88e0049"),
    (3, False, "3460e51b7759d1463b573f91adb3025ef00eb8c5d61e93f3a12ed5ec3f981c78"),
    (9, False, "cd1d9935a60c785fe60dd7adafee05f5155078f8c88beb569a3abe9908c2f46d"),
]


@pytest.mark.parametrize("seed, stored, digest", AUDIT_CSV_DIGESTS)
def test_audit_csv_is_pinned(monkeypatch, seed, stored, digest):
    if not stored:
        monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    assert audit_csv_digest(audit_grid(trials=300, seed=seed)) == digest


def test_audit_reads_the_axiom_by_its_name():
    by_name = audit_axiom("candidates", "prefix_monotonicity", trials=50)
    assert by_name == audit_axiom("candidates", Axiom.PREFIX_MONOTONICITY, trials=50)
    assert by_name.axiom is Axiom.PREFIX_MONOTONICITY
    # An unknown name gave a bare KeyError from the sampler table.
    with pytest.raises(ValueError, match="prefix"):
        audit_axiom("candidates", "prefix", trials=50)


REFERENCE = {
    Axiom.PREFIX_MONOTONICITY: prefix_pair,
    Axiom.MULTIPLE_MONOTONICITY: multiple_pair,
    Axiom.VARIANCE_MONOTONICITY: variance_pair,
}


def sampled(axiom, generator, trials):
    """Every pair the audit's sampler yields, as ``((size, classes), (size, classes))``."""
    pairs = []
    for done, (low_size, low, high_size, high) in costs._sampled_pairs(axiom, generator, trials):
        assert done == len(pairs)
        for i in range(len(low_size)):
            first, second = costs._query_at(low_size, low, i), costs._query_at(high_size, high, i)
            pairs.append(tuple((len(q.subset), [int(b * len(q.subset)) for b in q.buckets]) for q in (first, second)))
    return pairs


def numpy_pairs(axiom, seed, trials):
    reference = substream(seed, 0)
    return [REFERENCE[axiom](reference) for _ in range(trials)]


@pytest.mark.parametrize("axiom", list(Axiom))
def test_sampled_pairs_equal_numpys_draws(monkeypatch, axiom):
    """On 100 seeds every pair equals the reference sampler's, drawn by
    numpy's own integers and choice calls: at 1 to 200 trials in one chunk,
    then past the first chunk and its fetch, then across many chunks of 7
    attempts, where equal-variance attempts run over chunk boundaries."""
    for seed in range(100):
        trials = (1, 7, 60, 200)[seed % 4]
        assert sampled(axiom, substream(seed, 0), trials) == numpy_pairs(axiom, seed, trials), seed
    trials = costs._CHUNK + 60
    assert sampled(axiom, substream(100, 0), trials) == numpy_pairs(axiom, 100, trials)
    monkeypatch.setattr(costs, "_CHUNK", 7)
    for seed in range(101, 106):
        assert sampled(axiom, substream(seed, 0), 90) == numpy_pairs(axiom, seed, 90), seed


def test_sampled_pairs_cover_the_draws_that_take_no_half():
    """The seeds above reach one class (no composition drawn) and a size
    equal to the class count (a first Floyd pick from one value). A variance
    attempt of that size draws two compositions of all ones, so it is never a
    trial; the equal attempts below take it."""
    pairs = numpy_pairs(Axiom.MULTIPLE_MONOTONICITY, 0, 200)
    assert any(len(classes) == 1 for (_, classes), _ in pairs)
    assert any(len(classes) == size > 1 for (size, classes), _ in pairs)


def below(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return a < b - 1e-9 * max(1.0, abs(b))
    return a < b


def reference_verdict(name, axiom, trials, seed):
    """``reported`` of the audit drawn by numpy's calls and priced on queries."""
    fn, rng = COST_FUNCTIONS[name], substream(seed, 0)
    for t in range(1, trials + 1):
        (small, first), (large, second) = REFERENCE[axiom](rng)
        q1, q2 = q(small, *(F(x, small) for x in first)), q(large, *(F(x, large) for x in second))
        c1, c2 = fn(q1), fn(q2)
        if axiom is Axiom.MULTIPLE_MONOTONICITY:
            holds = not below(c2, large // small * c1)
        else:
            holds = below(c1, c2)
        if not holds:
            return t, q1, q2, (c1, type(c1)), (c2, type(c2))
    return trials, None


@pytest.mark.parametrize("name", list(COST_FUNCTIONS))
def test_audit_verdicts_equal_the_reference(monkeypatch, name):
    """Every cell's verdict, counterexample and costs with their types equal
    the reference audit's, sampled violations included; also with chunks of
    5 attempts, so a violation can lie past the first chunk."""
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    for chunk in (costs._CHUNK, 5):
        monkeypatch.setattr(costs, "_CHUNK", chunk)
        for axiom in Axiom:
            for seed in range(12):
                expected = reference_verdict(name, axiom, 40, seed)
                assert reported(audit_axiom(name, axiom, trials=40, seed=seed)) == expected


def fed(monkeypatch, stream):
    """Make the samplers read ``stream`` as their generator's 32-bit draws."""
    position = 0

    def fetch(generator, words):
        nonlocal position
        position += 2 * words
        assert position <= len(stream)
        return np.array(stream[position - 2 * words : position], np.uint64)

    monkeypatch.setattr(costs, "_raw_halves", fetch)


def natural(seed, count):
    """The first ``count`` 32-bit draws of ``substream(seed, 0)``."""
    return substream(seed, 0).integers(0, 2**32, size=count, dtype=np.uint32).tolist()


def drawn(axiom, stream, trials):
    """The reference draws of ``trials`` pairs from ``stream``, and the pairs."""
    draws = HalfDraws(stream)
    return draws, [REFERENCE[axiom](draws) for _ in range(trials)]


@pytest.mark.parametrize(
    "axiom, kind",
    [
        (Axiom.PREFIX_MONOTONICITY, ("integers", 3)),  # a head or tail length
        (Axiom.MULTIPLE_MONOTONICITY, ("integers", 5)),  # the class count
        (Axiom.MULTIPLE_MONOTONICITY, ("integers", 25)),  # the size
        (Axiom.MULTIPLE_MONOTONICITY, ("integers", 7)),  # the factor
        (Axiom.MULTIPLE_MONOTONICITY, "floyd"),
        (Axiom.MULTIPLE_MONOTONICITY, "shuffle"),
        (Axiom.VARIANCE_MONOTONICITY, ("integers", 5)),
        (Axiom.VARIANCE_MONOTONICITY, ("integers", 25)),
        (Axiom.VARIANCE_MONOTONICITY, "floyd"),
        (Axiom.VARIANCE_MONOTONICITY, "shuffle"),
    ],
)
def test_a_rejected_half_is_redrawn_on_every_kind_of_draw(monkeypatch, axiom, kind):
    """A draw of this kind takes the first half Lemire's method accepts, then
    a later one takes the last half it rejects, which numpy redraws from the
    next half; the sampler must follow."""
    for seed in range(3):
        stream, at = natural(seed, 4000), -1
        for edge in (1, 0):
            log = drawn(axiom, stream, 40)[0].log
            at = next(
                i for i, (taken, span) in enumerate(log)
                if i > at and kind in (taken, (taken, span)) and span & (span - 1)
            )
            stream[at] = edge_halves(log[at][1])[edge]
        draws, expected = drawn(axiom, stream, 40)
        assert draws.rejected[:1] == [at]
        fed(monkeypatch, stream)
        assert sampled(axiom, None, 40) == expected, seed


@pytest.mark.parametrize("axiom", [Axiom.MULTIPLE_MONOTONICITY, Axiom.VARIANCE_MONOTONICITY])
def test_a_rejected_last_half_of_a_chunk_is_redrawn(monkeypatch, axiom):
    """Chunks of 4 attempts: the last half of the first chunk whose last draw
    can be rejected is its last rejected half, so numpy's redraw reads past
    the chunk's end."""
    monkeypatch.setattr(costs, "_CHUNK", 4)
    attempt = multiple_pair if axiom is Axiom.MULTIPLE_MONOTONICITY else variance_attempt
    for seed in range(3):
        stream = natural(seed, 4000)
        draws, ends = HalfDraws(stream), []
        for _ in range(40):
            attempt(draws)
            ends.append(len(draws.log))
        last = next(end - 1 for end in ends[3::4] if draws.log[end - 1][1] & (draws.log[end - 1][1] - 1))
        stream[last] = edge_halves(draws.log[last][1])[0]
        draws, expected = drawn(axiom, stream, 30)
        assert draws.rejected[:1] == [last]
        fed(monkeypatch, stream)
        assert sampled(axiom, None, 30) == expected, seed


def halves_for(*draws):
    return [half_for(value, span) for value, span in draws]


def test_hand_drawn_pairs_take_no_half_for_a_single_value(monkeypatch):
    """Halves chosen draw by draw, with the pairs worked out by hand: one
    class draws no composition; a size equal to the class count makes the
    first Floyd pick without a draw; a repeated pick takes its top; the
    shuffle's draw is taken though it does not change the cuts."""
    filler = natural(0, 4000)
    prefix = halves_for((1, 3), (2, 8), (4, 8), (0, 3), (6, 8))
    multiple = halves_for(
        (0, 5), (3, 25), (0, 7),  # one class of 4, factor 2
        (2, 5), (0, 25), (0, 2), (1, 2), (5, 7),  # 3 classes of 3: picks 0 (no draw), 0 -> 1; factor 7
        (1, 5), (0, 25), (6, 7),  # 2 classes of 2: pick 0 (no draw), no shuffle; factor 8
    )
    variance = halves_for(
        (0, 5), (0, 25),  # 2 classes of 2, twice [1, 1]: equal, no trial
        (0, 5), (2, 25), (0, 3), (2, 3),  # [1, 3] and [3, 1]: equal
        (1, 5), (2, 25), (0, 3), (1, 4), (0, 2), (1, 3), (3, 4), (1, 2),  # [1, 1, 3] and [2, 2, 1]
        (1, 5), (2, 25), (1, 3), (3, 4), (0, 2), (0, 3), (1, 4), (1, 2),  # [2, 2, 1] and [1, 1, 3]
    )
    cases = [
        (Axiom.PREFIX_MONOTONICITY, prefix, [((8, [3, 5]), (15, [3, 5, 7]))]),
        (
            Axiom.MULTIPLE_MONOTONICITY,
            multiple,
            [((4, [4]), (8, [8])), ((3, [1, 1, 1]), (21, [7, 7, 7])), ((2, [1, 1]), (16, [8, 8]))],
        ),
        (Axiom.VARIANCE_MONOTONICITY, variance, [((5, [1, 1, 3]), (5, [2, 2, 1]))] * 2),
    ]
    for axiom, halves, expected in cases:
        draws, pairs = drawn(axiom, halves + filler, len(expected))
        assert pairs == expected and len(draws.log) == len(halves)
        fed(monkeypatch, halves + filler)
        assert sampled(axiom, None, len(expected)) == expected


EQUAL = halves_for((0, 5), (0, 25))  # 2 classes of 2: twice [1, 1], equal variance


@pytest.mark.parametrize("chunk", [2048, 5])
def test_64_equal_variance_attempts_in_a_row_stop_the_sampler(monkeypatch, chunk):
    """63 equal attempts in a row roll into the next trial; 64 before any
    violation raise, as the reference does, across chunk boundaries too."""
    monkeypatch.setattr(costs, "_CHUNK", chunk)
    filler = natural(1, 4000)
    for equal in (63, 64):
        stream = filler[:40] + EQUAL * equal + filler
        try:
            expected = drawn(Axiom.VARIANCE_MONOTONICITY, stream, 20)[1]
        except RuntimeError:
            expected = RuntimeError
        fed(monkeypatch, stream)
        if expected is RuntimeError:
            assert equal == 64
            with pytest.raises(RuntimeError, match="distinct variance"):
                sampled(Axiom.VARIANCE_MONOTONICITY, None, 20)
        else:
            assert sampled(Axiom.VARIANCE_MONOTONICITY, None, 20) == expected
    # A violation found before the run ends the audit first.
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    stream = halves_for((0, 5), (2, 25), (0, 3), (1, 3)) + EQUAL * 64 + filler
    fed(monkeypatch, stream)
    verdict = audit_axiom("candidates", Axiom.VARIANCE_MONOTONICITY, trials=10)
    assert verdict.trials == 1 and not verdict.holds
    fed(monkeypatch, stream)
    with pytest.raises(RuntimeError, match="distinct variance"):
        audit_axiom("variance_aware", Axiom.VARIANCE_MONOTONICITY, trials=10)


@pytest.mark.parametrize("name", [n for n in COST_FUNCTIONS if n != "variance_aware"])
def test_a_violation_stops_the_sampling_at_its_chunk(monkeypatch, name):
    """Without the stored pairs, a billion trials give the verdict of 300,
    and only the chunk that holds the violating trial is drawn."""
    monkeypatch.setattr(costs, "VARIANCE_COUNTEREXAMPLES", {})
    fetched, fetch = [], costs._raw_halves
    monkeypatch.setattr(costs, "_raw_halves", lambda g, words: fetched.append(words) or fetch(g, words))
    _, longest, _ = costs._SAMPLERS[Axiom.VARIANCE_MONOTONICITY]
    for seed in (0, 3, 9, 17):
        expected = reported(audit_axiom(name, Axiom.VARIANCE_MONOTONICITY, trials=300, seed=seed))
        fetched.clear()
        verdict = audit_axiom(name, Axiom.VARIANCE_MONOTONICITY, trials=10**9, seed=seed)
        assert reported(verdict) == expected and not verdict.holds
        assert fetched == [costs._CHUNK * longest // 2]
