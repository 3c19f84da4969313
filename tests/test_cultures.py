from collections import Counter

import pytest

from queryvote import (
    KINDS,
    CultureSpec,
    borda_scores,
    generate,
    k_borda,
    rank_by_distance,
)
from queryvote.rng import substream


def kendall_tau(a, b):
    position = {c: i for i, c in enumerate(b)}
    seq = [position[c] for c in a]
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


@pytest.mark.parametrize("kind", KINDS)
def test_generated_rankings_are_permutations(kind):
    rng = substream(41)
    for _ in range(20):
        m = 2 * int(rng.integers(1, 6))  # even, so stratification is happy
        n = int(rng.integers(1, 8))
        seed = int(rng.integers(2**32))
        e = generate(CultureSpec(kind, seed=seed), m, n, 1)
        reference = tuple(range(m))
        for voter in e.voters:
            assert tuple(sorted(voter)) == reference


@pytest.mark.parametrize("kind", KINDS)
def test_generate_is_deterministic(kind):
    spec = CultureSpec(kind, seed=123)
    first = generate(spec, 6, 5, 3)
    second = generate(CultureSpec(kind, seed=123), 6, 5, 3)
    assert first == second
    assert first != generate(CultureSpec(kind, seed=124), 6, 5, 3)


def test_identity_everyone_agrees():
    e = generate(CultureSpec("ID", seed=8), 3, 5, 1)
    assert len(set(e.voters)) == 1
    assert e.n == 5


def test_identity_committee_is_shared_prefix():
    e = generate(CultureSpec("ID", seed=9), 8, 6, 3)
    assert k_borda(e) == frozenset(e.voters[0][:3])


def test_antagonism_two_opposed_camps():
    e = generate(CultureSpec("AN", seed=5), 3, 4, 1)
    counts = Counter(e.voters)
    assert len(counts) == 2
    (first, a), (second, b) = counts.most_common()
    assert first == second[::-1]
    assert a == b == 2


def test_antagonism_odd_voter_joins_first_half():
    e = generate(CultureSpec("AN", seed=5), 3, 5, 1)
    counts = Counter(e.voters).most_common()
    assert counts[0][1] == 3 and counts[1][1] == 2


def test_antagonism_borda_cancels():
    e = generate(CultureSpec("AN", seed=77), 6, 4, 2)
    n, m = e.n, e.m
    assert borda_scores(e) == [n * (m - 1) // 2] * m


def test_uniformity_distinct_and_balanced():
    e = generate(CultureSpec("UN", seed=6), 4, 10, 1)
    counts = Counter(e.voters)
    assert len(counts) == 10  # 4! = 24 >= 10, so all distinct
    small_m = generate(CultureSpec("UN", seed=6), 3, 10, 1)
    counts = Counter(small_m.voters)
    assert len(counts) == 6  # cycles through all 3! orders
    assert max(counts.values()) - min(counts.values()) <= 1


def test_stratification_shared_halves():
    e = generate(CultureSpec("ST", seed=7), 8, 6, 2)
    tops = {frozenset(v[:4]) for v in e.voters}
    assert len(tops) == 1  # everyone agrees on which half is better


def test_stratification_needs_even_m():
    with pytest.raises(ValueError):
        generate(CultureSpec("ST", seed=7), 7, 4, 2)


def test_euclidean_oracle_collinear():
    assert rank_by_distance((0, 0), [(1, 0), (2, 0)]) == (0, 1)
    assert rank_by_distance((0, 0), [(0.1, 0), (0.5, 0), (0.9, 0)]) == (0, 1, 2)


def test_euclidean_oracle_tie_breaks_by_id():
    assert rank_by_distance((0.5, 0.5), [(0, 0), (1, 1), (0.5, 0.6)]) == (2, 0, 1)
    assert rank_by_distance((0.5, 0), [(0, 0), (1, 0)]) == (0, 1)


def test_euclidean_oracle_rejects_nonfinite():
    with pytest.raises(ValueError):
        rank_by_distance((float("nan"), 0), [(0, 0)])


def test_ic_orders_are_roughly_uniform():
    e = generate(CultureSpec("IC", seed=42), 3, 60000, 1)
    counts = Counter(e.voters)
    assert len(counts) == 6
    expected = 60000 / 6
    for count in counts.values():
        assert abs(count - expected) <= 0.01 * 60000


def test_mallows_distance_grows_with_dispersion():
    center = tuple(range(8))
    means = []
    for phi in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        spec = CultureSpec("Mallows", seed=7, params={"phi": phi, "center": center})
        e = generate(spec, 8, 300, 1)
        means.append(sum(kendall_tau(v, center) for v in e.voters) / e.n)
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[0] < 1.5  # phi=0.1 hugs the center
    assert means[-1] > 12  # phi=1 is uniform; mean KT is m(m-1)/4 = 14


def test_mallows_parameter_validation():
    with pytest.raises(ValueError):
        generate(CultureSpec("Mallows", seed=1, params={"phi": 0.0}), 4, 2, 1)
    with pytest.raises(ValueError):
        generate(CultureSpec("Mallows", seed=1, params={"phi": 1.5}), 4, 2, 1)
    with pytest.raises(ValueError):
        generate(CultureSpec("Mallows", seed=1, params={"phi": 0.5, "center": (0, 0, 1, 2)}), 4, 2, 1)


def test_urn_contagion_concentrates():
    spread = generate(CultureSpec("Urn", seed=2, params={"alpha": 0.0}), 6, 30, 2)
    clumped = generate(CultureSpec("Urn", seed=2, params={"alpha": 1e6}), 6, 30, 2)
    assert Counter(clumped.voters).most_common(1)[0][1] == 30
    assert Counter(spread.voters).most_common(1)[0][1] < 30


def test_urn_rejects_negative_contagion():
    with pytest.raises(ValueError):
        generate(CultureSpec("Urn", seed=2, params={"alpha": -1}), 4, 3, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        CultureSpec("noise")
    with pytest.raises(ValueError):
        CultureSpec("IC", params={"phi": 0.5})
    assert CultureSpec("mallows").kind == "Mallows"
    assert CultureSpec("Mallows", params={"phi": 0.2}).label() == "Mallows[phi=0.2]"
    assert CultureSpec("IC").label() == "IC"


def test_generate_rejects_empty_elections():
    with pytest.raises(ValueError):
        generate(CultureSpec("IC"), 0, 3, 1)
    with pytest.raises(ValueError):
        generate(CultureSpec("IC"), 3, 0, 1)
