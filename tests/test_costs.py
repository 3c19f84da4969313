import csv
import hashlib
import io
from fractions import Fraction as F

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
from queryvote.rng import _Draws, substream


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
    rng = _Draws(substream(41, list(Axiom).index(axiom)))
    degenerate = 0
    for _ in range(2000):
        for size, classes in costs._SAMPLERS[axiom](rng):
            query = RefinementQuery(tuple(range(size)), tuple(F(x, size) for x in classes))
            degenerate += len(classes) == 1
            for fn in COST_FUNCTIONS.values():
                closed, expected = costs._closed_cost(fn, size, classes), fn(query)
                if isinstance(expected, float):
                    assert type(closed) is float and closed == expected
                else:
                    assert type(expected) in (int, F)
                    numerator, denominator = closed
                    assert type(numerator) is int and type(denominator) is int
                    assert denominator > 0 and F(numerator, denominator) == expected
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
