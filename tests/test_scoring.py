import math

import pytest

from queryvote import (
    BudgetPolicy,
    CultureSpec,
    Election,
    QuestionType,
    UNLIMITED,
    borda_scores,
    borda_vector,
    generate,
    k_borda,
    partial_scores,
    query_based_committee,
)
from queryvote.rng import substream
from queryvote.scoring import validate_scoring_vector


def test_borda_vector():
    assert borda_vector(4) == (3, 2, 1, 0)
    assert borda_vector(1) == (0,)


def test_scoring_vector_must_be_non_increasing():
    validate_scoring_vector((5, 5, 2, 0))
    with pytest.raises(ValueError):
        validate_scoring_vector((1, 2))
    with pytest.raises(ValueError):
        validate_scoring_vector(())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"entry 0 is {bad}, not a finite number"):
            validate_scoring_vector((bad, 1, 0))


def test_partial_scores_half_split():
    scores = partial_scores([((0, 1), (2, 3))], borda_vector(4))
    assert scores == [2.5, 2.5, 0.5, 0.5]


def test_partial_scores_trivial_partition():
    scores = partial_scores([((0, 1, 2, 3),)], borda_vector(4))
    assert scores == [1.5, 1.5, 1.5, 1.5]


def test_partial_scores_resolved_equals_borda():
    rng = substream(61)
    for _ in range(50):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 6))
        voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        e = Election(m=m, voters=voters, k=1)
        profile = [tuple((c,) for c in voter) for voter in voters]
        assert partial_scores(profile, borda_vector(m)) == [float(s) for s in borda_scores(e)]


def test_partial_scores_conserve_per_voter_total():
    rng = substream(62)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        order = [int(c) for c in rng.permutation(m)]
        partition = []
        while order:
            take = int(rng.integers(1, len(order) + 1))
            partition.append(tuple(sorted(order[:take])))
            order = order[take:]
        scores = partial_scores([tuple(partition)], borda_vector(m))
        assert sum(scores) == pytest.approx(m * (m - 1) / 2)


def test_refining_a_class_leaves_outsiders_unchanged():
    base = ((0, 1, 2, 3), (4, 5))
    refined = ((0, 2), (1, 3), (4, 5))  # consistent sub-partition of the first class
    s = borda_vector(6)
    before = partial_scores([base], s)
    after = partial_scores([refined], s)
    assert before[4] == after[4] and before[5] == after[5]


def test_committee_invariant_under_score_shift():
    rng = substream(63)
    e = generate(CultureSpec("IC", seed=31), 6, 5, 3)
    for shift in (1, 7, 100):
        shifted = tuple(s + shift for s in borda_vector(6))
        base, _ = query_based_committee(
            e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 40
        )
        moved, _ = query_based_committee(
            e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 40, scoring=shifted
        )
        assert base == moved


def test_partial_scores_rejects_bad_profile():
    with pytest.raises(ValueError):
        partial_scores([((0, 1),)], borda_vector(3))
    with pytest.raises(ValueError):
        partial_scores([((0, 1), (1, 2))], borda_vector(3))


def test_pipeline_worked_example():
    e = Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)
    committee, run = query_based_committee(
        e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 24
    )
    assert committee == {0, 1}
    assert run.spent == 24


def test_pipeline_rejects_a_scoring_vector_of_the_wrong_length():
    e = Election(m=3, voters=((0, 1, 2),), k=1)
    for scoring in ((5, 1), (3, 2, 1, 0)):
        with pytest.raises(ValueError, match=f"{len(scoring)} entries for 3 candidates"):
            query_based_committee(
                e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 8, scoring=scoring
            )
    committee, _ = query_based_committee(
        e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", UNLIMITED, scoring=(5, 1, 0)
    )
    assert committee == {0}


def test_pipeline_zero_budget_falls_back_to_tie_break():
    e = generate(CultureSpec("IC", seed=33), 7, 4, 3)
    committee, run = query_based_committee(
        e, QuestionType.NEXT, BudgetPolicy.FCFS, "variance_aware", 0
    )
    assert committee == {0, 1, 2}
    assert run.spent == 0


@pytest.mark.parametrize("kind", list(QuestionType))
def test_pipeline_unlimited_budget_matches_k_borda(kind):
    for seed in (1, 2, 3):
        e = generate(CultureSpec("IC", seed=seed), 8, 5, 4)
        committee, _ = query_based_committee(
            e, kind, BudgetPolicy.EQUAL, "variance_aware", UNLIMITED
        )
        assert committee == k_borda(e)
