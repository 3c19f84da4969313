import pytest

from queryvote import Election, borda_scores, hamming, k_borda, select_top_k
from queryvote.rng import substream


def test_borda_single_voter():
    e = Election(m=3, voters=((0, 1, 2),), k=2)
    assert borda_scores(e) == [2, 1, 0]


def test_borda_single_candidate():
    e = Election(m=1, voters=((0,), (0,), (0,)), k=1)
    assert borda_scores(e) == [0]


def test_borda_two_voters():
    e = Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)
    assert borda_scores(e) == [5, 5, 2, 0]


def test_borda_total_is_fixed():
    rng = substream(11)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        e = Election(m=m, voters=voters, k=1)
        assert sum(borda_scores(e)) == n * m * (m - 1) // 2


def test_select_top_k_examples():
    assert select_top_k([2, 1, 0], 2) == {0, 1}
    assert select_top_k([1, 1, 1, 1], 2) == {0, 1}
    assert select_top_k([0, 5, 5, 2, 0], 2) == {1, 2}


def test_select_top_k_rejects_large_k():
    with pytest.raises(ValueError):
        select_top_k([1.0, 2.0], 3)


def test_select_top_k_affine_invariance():
    rng = substream(12)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        scores = [int(x) for x in rng.integers(0, 6, m)]
        k = int(rng.integers(1, m + 1))
        a = int(rng.integers(1, 5))
        b = int(rng.integers(-10, 10))
        assert select_top_k(scores, k) == select_top_k([a * s + b for s in scores], k)


def test_k_borda_worked_election():
    e = Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)
    assert k_borda(e) == {0, 1}


def test_hamming_examples():
    assert hamming(frozenset({0, 1}), frozenset({0, 1})) == 0
    assert hamming(frozenset({0, 1}), frozenset({0, 2})) == 2
    assert hamming(frozenset({0, 1, 2}), frozenset({3, 4, 5})) == 6


def test_hamming_rejects_size_mismatch():
    with pytest.raises(ValueError):
        hamming(frozenset({0}), frozenset({0, 1}))


def test_hamming_metric_axioms():
    rng = substream(13)
    m, k = 10, 4
    for _ in range(200):
        a, b, c = (
            frozenset(int(x) for x in rng.choice(m, k, replace=False)) for _ in range(3)
        )
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, a) == 0
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
        assert 0 <= hamming(a, b) <= 2 * k
        assert hamming(a, b) % 2 == 0


@pytest.mark.parametrize(
    "m,voters,k",
    [
        (0, ((),), 1),
        (3, ((0, 1, 2),), 0),
        (3, ((0, 1, 2),), 4),
        (3, (), 1),
        (3, ((0, 1, 1),), 1),
        (3, ((0, 1),), 1),
        (2, ((1.7, 0.2),), 1),
        (2, ((True, False),), 1),
    ],
)
def test_election_validation(m, voters, k):
    with pytest.raises(ValueError):
        Election(m=m, voters=voters, k=k)
