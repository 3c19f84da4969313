import math

import numpy as np
import pytest

import queryvote.scoring
from queryvote import (
    ALL_STRATEGIES,
    COST_FUNCTIONS,
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
    run_elicitation,
    select_top_k,
)
from queryvote.experiments import full_resolution_cost
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
        base, run = query_based_committee(
            e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 40
        )
        moved = select_top_k(partial_scores(run.profile, shifted), e.k)
        assert base == moved


def test_partial_scores_rejects_bad_profile():
    with pytest.raises(ValueError):
        partial_scores([((0, 1),)], borda_vector(3))
    with pytest.raises(ValueError):
        partial_scores([((0, 1), (1, 2))], borda_vector(3))
    # A candidate id must be an int: not a float, a string or a bool.
    for bad in (((1.0, 0),), (("1", 0),), ((True, 0),), ((1.7, 0),), ((1,), (np.bool_(0),))):
        with pytest.raises(ValueError, match="^voter 0 partition does not cover candidates 0..1$"):
            partial_scores([bad], borda_vector(2))
        with pytest.raises(ValueError, match="^voter 1 partition"):
            partial_scores([((0, 1),), bad, (("x",),)], borda_vector(2))
    numpy_ids = partial_scores([((np.int64(1),), (np.int8(0),))], borda_vector(2))
    assert numpy_ids == partial_scores([((1,), (0,))], borda_vector(2)) == [0.0, 1.0]


def reference_partial_scores(profile, scoring):
    """The per-voter, per-class float loop over a checked profile."""
    m = len(scoring)
    totals = [0.0] * m
    for index, partition in enumerate(profile):
        flattened = [c for cls in partition for c in cls]
        assert sorted(flattened) == list(range(m)), index
        start = 0
        for cls in partition:
            size = len(cls)
            share = sum(scoring[start : start + size]) / size
            for c in cls:
                totals[c] += share
            start += size
    return totals


def random_profile(rng, m, n):
    """``n`` random ordered partitions of 0..m-1, ids inside a class in any order."""
    profile = []
    for _ in range(n):
        ranking = [int(c) for c in rng.permutation(m)]
        cuts = sorted({0, m, *(int(c) for c in rng.integers(0, m + 1, int(rng.integers(0, m + 1))))})
        profile.append(tuple(tuple(ranking[a:b]) for a, b in zip(cuts, cuts[1:])))
    return profile


def test_partial_scores_match_the_per_voter_reference_bit_for_bit():
    rng = substream(64)
    for trial in range(600):
        m = 1 if trial % 20 == 0 else int(rng.integers(1, 30))
        n = 0 if trial % 25 == 0 else int(rng.integers(1, 40))
        vectors = [
            borda_vector(m),
            tuple(sorted(rng.uniform(-5, 5, m).tolist(), reverse=True)),
            tuple(sorted(rng.standard_normal(m).cumsum().tolist(), reverse=True)),
            (1,) * (j := int(rng.integers(0, m + 1))) + (0,) * (m - j),
        ]
        profile = random_profile(rng, m, n)
        for scoring in vectors:
            totals = partial_scores(profile, scoring)
            expected = reference_partial_scores(profile, scoring)
            assert [x.hex() for x in totals] == [x.hex() for x in expected]


def test_partial_scores_of_elicited_profiles_match_the_reference_bit_for_bit():
    """60 voters: numpy's pairwise sum of one column, at m = 1, would show."""
    rng = substream(65)
    for m in (40, 1, 2):
        e = generate(CultureSpec("Mallows", seed=9, params={"phi": 0.7}), m, 60, min(m, 5))
        scoring = tuple(sorted(rng.uniform(0, 1, m).tolist(), reverse=True))
        for kind, policy in ALL_STRATEGIES:
            half = full_resolution_cost(e, kind, "computational") / 2
            for budget in (0, 400.0, half, UNLIMITED):
                run = query_based_committee(e, kind, policy, "computational", budget)[1]
                for vector in (scoring, borda_vector(m)):
                    totals = partial_scores(run.profile, vector)
                    expected = reference_partial_scores(run.profile, vector)
                    assert [x.hex() for x in totals] == [x.hex() for x in expected]


def test_equal_comparing_scoring_vectors_keep_their_own_bits():
    """Vectors that compare equal but add to different bits do not share a table."""
    e = generate(CultureSpec("Mallows", seed=5, params={"phi": 0.6}), 4, 30, 2)
    int_top, float_top = (2**53, 1, 1, 0), (2.0**53, 1.0, 1.0, 0.0)
    pairs = [(int_top, float_top), ((3.5, 1.0, 0.0, 0.0), (3.5, 1.0, -0.0, -0.0))]
    # Each call order starts on a schedule that has scored neither vector.
    kinds = iter(QuestionType)
    for pair in pairs:
        for vectors in (pair, pair[::-1]):
            run = run_elicitation(e, next(kinds), BudgetPolicy.FCFS, "candidates", 40)
            plain = tuple(run.profile)
            for vector in vectors:
                fast = partial_scores(run.profile, vector)
                checked = partial_scores(plain, vector)
                assert [x.hex() for x in fast] == [x.hex() for x in checked]
    # 2**53 + 1 + 1 is exact in ints and 2**53 in floats.
    assert partial_scores(plain, int_top) != partial_scores(plain, float_top)


@pytest.mark.parametrize("m", [1, 2, 7, 20, 100])
def test_elicited_profiles_score_as_their_plain_tuples_bit_for_bit(m):
    """An elicited profile is scored from its kept arrays; its plain tuple is checked."""
    rng = substream(66, m)
    n = 6
    e = generate(CultureSpec("Mallows", seed=m, params={"phi": 0.8}), m, n, 1)
    order = [int(v) for v in rng.permutation(n)]
    j = int(rng.integers(0, m + 1))
    vectors = [
        borda_vector(m),
        tuple(sorted(rng.uniform(-3, 3, m).tolist(), reverse=True)),
        (1,) * j + (0,) * (m - j),
    ]
    for cost in COST_FUNCTIONS:
        for kind, policy in ALL_STRATEGIES:
            full = full_resolution_cost(e, kind, cost)
            for budget in (0, full / (3 * n), full / 2, UNLIMITED):
                run = run_elicitation(e, kind, policy, cost, budget, order, record_log=False)
                plain = tuple(run.profile)
                assert type(plain) is tuple and plain == run.profile
                for vector in vectors:
                    fast = partial_scores(run.profile, vector)
                    checked = partial_scores(plain, vector)
                    assert [x.hex() for x in fast] == [x.hex() for x in checked]


def test_elicited_profiles_skip_the_check(monkeypatch):
    e = generate(CultureSpec("Urn", seed=4), 12, 30, 3)
    scoring = borda_vector(12)
    runs = [run_elicitation(e, kind, policy, "computational", 300) for kind, policy in ALL_STRATEGIES]
    expected = [partial_scores(tuple(run.profile), scoring) for run in runs]

    def no_check(rows, m):
        raise AssertionError("an elicited profile was checked again")

    monkeypatch.setattr(queryvote.scoring, "_id_table", no_check)
    assert [partial_scores(run.profile, scoring) for run in runs] == expected
    # Anything else, an elicited profile's own tuple or slice included, is checked.
    for other in (tuple(runs[0].profile), runs[0].profile[:5], list(runs[0].profile)):
        with pytest.raises(AssertionError, match="checked again"):
            partial_scores(other, scoring)


def test_an_elicited_profile_scored_at_the_wrong_length_fails_like_its_tuple():
    e = generate(CultureSpec("IC", seed=8), 3, 4, 1)
    for kind, policy in ALL_STRATEGIES:
        run = run_elicitation(e, kind, policy, "candidates", UNLIMITED)
        for vector in ((1, 0), (3, 2, 1, 0)):
            with pytest.raises(ValueError) as checked:
                partial_scores(tuple(run.profile), vector)
            message = f"voter 0 partition does not cover candidates 0..{len(vector) - 1}"
            assert str(checked.value) == message
            with pytest.raises(ValueError, match=f"^{message}$"):
                partial_scores(run.profile, vector)


def test_pipeline_worked_example():
    e = Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)
    committee, run = query_based_committee(
        e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 24
    )
    assert committee == {0, 1}
    assert run.spent == 24


def test_pipeline_rejects_a_scoring_vector_of_the_wrong_length():
    e = Election(m=3, voters=((0, 1, 2),), k=1)
    run = run_elicitation(e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", 8)
    for scoring in ((5, 1), (3, 2, 1, 0)):
        with pytest.raises(ValueError, match=f"does not cover candidates 0..{len(scoring) - 1}$"):
            partial_scores(run.profile, scoring)
    run = run_elicitation(e, QuestionType.SPLIT, BudgetPolicy.EQUAL, "variance_aware", UNLIMITED)
    committee = select_top_k(partial_scores(run.profile, (5, 1, 0)), e.k)
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


@pytest.mark.parametrize("cells, n, m", [(1, 300, 5), (6, 257, 3), (3, 40, 1), (5, 1, 4)])
def test_batched_totals_add_each_cell_voter_by_voter(cells, n, m):
    """Float shares over many magnitudes: every row of a batch is added from
    0.0 one voter at a time, in voter order, bit for bit."""
    rng = substream(62, cells, n, m)
    table = rng.random((6, m)) * 10.0 ** rng.uniform(-6, 6, (6, m))
    rows = rng.integers(0, 6, (cells, n))
    places = np.array([rng.permutation(m) for _ in range(n)])
    totals = queryvote.scoring._totals(table, rows, places)
    for row, got in zip(rows.tolist(), totals.tolist(), strict=True):
        expected = []
        for c in range(m):
            total = 0.0
            for v, level in enumerate(row):
                total += float(table[level, places[v, c]])
            expected.append(total)
        assert [x.hex() for x in got] == [x.hex() for x in expected]


@pytest.mark.parametrize("blocks, cells, n, m", [(3, 4, 50, 6), (2, 3, 7, 1), (4, 1, 1, 3), (1, 5, 9, 2)])
def test_broadcast_totals_add_each_cell_voter_by_voter(blocks, cells, n, m):
    """``(G, B, n)`` rows with ``(G, 1, n, m)`` places, float shares over many
    magnitudes: every cell of every block is added from 0.0 one voter at a
    time, in voter order, bit for bit, against its own block's places."""
    rng = substream(65, blocks, cells, n, m)
    table = rng.random((6, m)) * 10.0 ** rng.uniform(-6, 6, (6, m))
    rows = rng.integers(0, 6, (blocks, cells, n))
    places = np.array([[rng.permutation(m) for _ in range(n)] for _ in range(blocks)])
    totals = queryvote.scoring._totals(table, rows, places[:, None])
    assert totals.shape == (blocks, cells, m)
    for block_rows, block_places, block_totals in zip(rows.tolist(), places, totals.tolist()):
        for row, got in zip(block_rows, block_totals, strict=True):
            expected = []
            for c in range(m):
                total = 0.0
                for v, level in enumerate(row):
                    total += float(table[level, block_places[v, c]])
                expected.append(total)
            assert [x.hex() for x in got] == [x.hex() for x in expected]
