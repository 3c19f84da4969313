import hashlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from queryvote import (
    KINDS,
    CultureSpec,
    borda_scores,
    generate,
    k_borda,
)
from queryvote.cultures import _rank_by_distance
from queryvote.experiments import parse_config
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
    assert _rank_by_distance([(0, 0)], [(1, 0), (2, 0)])[0].tolist() == [0, 1]
    assert _rank_by_distance([(0, 0)], [(0.1, 0), (0.5, 0), (0.9, 0)])[0].tolist() == [0, 1, 2]


def test_euclidean_oracle_tie_breaks_by_id():
    assert _rank_by_distance([(0.5, 0.5)], [(0, 0), (1, 1), (0.5, 0.6)])[0].tolist() == [2, 0, 1]
    assert _rank_by_distance([(0.5, 0)], [(0, 0), (1, 0)])[0].tolist() == [0, 1]


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
    # Non-integral entries were truncated by int(): [0.9, 1.7, 2, 3] read as (0, 1, 2, 3).
    for bad in ([0.9, 1.7, 2, 3], [0, 1, 2, math.nan], [0, 1, True, 3], ["0", "1", "2", "3"]):
        with pytest.raises(ValueError, match="center entries must be integers"):
            generate(CultureSpec("Mallows", params={"center": bad}), 4, 2, 1)
    # A value of the wrong type gave a TypeError traceback instead of a ValueError.
    # A number string was read as a float: {"phi": "0.5"} gave phi=0.5.
    for bad in (None, [0.5], "x", True, "0.5"):
        with pytest.raises(ValueError, match="Mallows dispersion phi must be a number"):
            generate(CultureSpec("Mallows", params={"phi": bad}), 4, 2, 1)
    for bad in (3, 1.0):
        with pytest.raises(ValueError, match="Mallows center must be a sequence of candidate ids"):
            generate(CultureSpec("Mallows", params={"center": bad}), 4, 2, 1)
    with pytest.raises(ValueError, match="center entries must be integers"):
        generate(CultureSpec("Mallows", params={"center": [3.0, 2, 1, 0]}), 4, 5, 1)
    integral = CultureSpec("Mallows", params={"center": [3, 2, np.int64(1), 0]})
    plain = CultureSpec("Mallows", params={"center": [3, 2, 1, 0]})
    assert generate(integral, 4, 5, 1) == generate(plain, 4, 5, 1)


def test_urn_contagion_concentrates():
    spread = generate(CultureSpec("Urn", seed=2, params={"alpha": 0.0}), 6, 30, 2)
    clumped = generate(CultureSpec("Urn", seed=2, params={"alpha": 1e6}), 6, 30, 2)
    assert Counter(clumped.voters).most_common(1)[0][1] == 30
    assert Counter(spread.voters).most_common(1)[0][1] < 30


def test_urn_rejects_negative_contagion():
    with pytest.raises(ValueError):
        generate(CultureSpec("Urn", seed=2, params={"alpha": -1}), 4, 3, 1)
    # NaN passed the sign test and gave plain IC votes.
    with pytest.raises(ValueError, match="urn contagion must be non-negative, got nan"):
        generate(CultureSpec("Urn", seed=2, params={"alpha": math.nan}), 4, 3, 1)
    # A number string was read as a float: {"alpha": "inf"} gave infinite contagion.
    for bad in (None, [0.5], "x", True, "inf", "0.5"):
        with pytest.raises(ValueError, match="urn contagion alpha must be a number"):
            generate(CultureSpec("Urn", seed=2, params={"alpha": bad}), 4, 3, 1)


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


# SHA-256 of repr(generate(spec, 6, 9, 2).voters) with seed 7. Any change to a
# generator's use of its streams or to its arithmetic changes the elections it
# makes, and shows up here.
CULTURE_DIGESTS = [
    ("IC", {}, "a46d0e2c586c52dc38a99b8ca5b740a3e9669f11caa865ca91265866d2532cbe"),
    ("Euclidean2D", {}, "1190d9f03fd085e2c85db4ff3a7d7a3cef7e1efe859949c59dc0590cf6c3e868"),
    ("Urn", {}, "8fa52bb77c26d303b0d5fc53944430ada61473e77e1e34d4c853dbf5e1c0d13b"),
    ("Mallows", {}, "7f88c122c6eed02d683e6fb0130c4da9866766b50dbac46d50e7560976e167ed"),
    ("ID", {}, "dab668a89a4603bad59834ebc94074804245be34e52e5eec35e9320c98eebded"),
    ("UN", {}, "ae8b79f4227988b0bed5cf41013af6ae80634eeb34f31b2e06652eab37482180"),
    ("ST", {}, "a727e45b3335c0d13c31412dcac8cc998e4c7d1c9c5090a4c4270c141b72361b"),
    ("AN", {}, "e514d76d41f9a549437dd1b969d1c37986ee7ef0f91732784ebbdd36c6b229b6"),
    ("Urn", {"alpha": 2}, "5e9e65b0c641a4ecaa9b3f153830839b00c7d717a1ef3d415ecdb92763bfdd4d"),
    ("Urn", {"alpha": 0.1}, "0a38e42bcc704e8da73bed1837322c21053169da72719523488f8f8a8478b856"),
    ("Mallows", {"phi": 0.3}, "1328501e7f6cb0e08a0e6ee0aba4e93a4906a1ffb7b17d0e3a4766f31e30ec24"),
    (
        "Mallows",
        {"phi": 0.5, "center": [5, 4, 3, 2, 1, 0]},
        "d73786b056f38437c3571f19b11c8728068066c7410483d73835f1a91e4e3627",
    ),
]


def test_culture_digests_cover_every_kind():
    assert {kind for kind, _, _ in CULTURE_DIGESTS} == set(KINDS)


@pytest.mark.parametrize("kind, params, digest", CULTURE_DIGESTS)
def test_culture_output_is_pinned(kind, params, digest):
    voters = generate(CultureSpec(kind, seed=7, params=params), 6, 9, 2).voters
    assert hashlib.sha256(repr(voters).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, kind",
    [("ic", "IC"), ("impartial", "IC"), ("Euclidean-2D", "Euclidean2D"), ("2d", "Euclidean2D"),
     ("URN", "Urn"), ("identity", "ID"), ("un", "UN"), ("stratification", "ST"), ("an", "AN")],
)
def test_kind_names_and_aliases(name, kind):
    assert CultureSpec(name).kind == kind


# SHA-256 of repr(generate(spec, 100, 50, 2).voters) with seed 7: cdf rows and
# distance sorts at the size of the paper's experiments, not only at m=6.
CULTURE_DIGESTS_100x50 = [
    ("Mallows", {"phi": 0.8}, "229af2db79adf1792aad2bc254cd116d8cab86866ff4ce04ee3a0bd9b4e5729f"),
    ("Mallows", {"phi": 0.05}, "0866eaa1cc93fb9f22709dc2f47e00c2283c181b431cdf1da1c8a6db13354c56"),
    ("Euclidean2D", {}, "f20e440749939922460a989e95ca6e7e544e57e9b0b2307dbc2d37b90861c6ca"),
]


@pytest.mark.parametrize("kind, params, digest", CULTURE_DIGESTS_100x50)
def test_culture_output_is_pinned_at_100x50(kind, params, digest):
    voters = generate(CultureSpec(kind, seed=7, params=params), 100, 50, 2).voters
    assert hashlib.sha256(repr(voters).encode()).hexdigest() == digest


def reference_mallows(seed, m, n, phi, center=None):
    """The plain repeated-insertion sampler: one ``rng.choice`` per insertion."""
    if center is None:
        center = tuple(int(c) for c in substream(seed, 0).permutation(m))
    votes = []
    for voter in range(n):
        rng = substream(seed, 1, voter)
        vote = [center[0]]
        for i in range(2, m + 1):
            weights = phi ** np.arange(i - 1, -1, -1, dtype=float)
            vote.insert(int(rng.choice(i, p=weights / weights.sum())), center[i - 1])
        votes.append(tuple(vote))
    return tuple(votes)


@pytest.mark.parametrize("phi", [1.0, 1e-6, 1e-300, "random", "random with center"])
def test_mallows_matches_the_reference_sampler(phi):
    rng = substream(2024, 7)
    for _ in range(60):
        m, n = int(rng.integers(1, 61)), int(rng.integers(1, 9))
        seed = int(rng.integers(2**63))
        params = {"phi": float(rng.uniform(1e-9, 1.0)) if isinstance(phi, str) else phi}
        if phi == "random with center":
            params["center"] = [int(c) for c in rng.permutation(m)]
        expected = reference_mallows(seed, m, n, params["phi"], params.get("center"))
        spec = CultureSpec("Mallows", seed=seed, params=params)
        assert generate(spec, m, n, 1).voters == expected


@pytest.mark.parametrize("m", [1, 2, 3, 200, 256])
def test_mallows_decode_matches_the_reference_sampler_at_edge_sizes(m):
    """One candidate, the first insertions, and both sides of the one-byte place dtype."""
    rng = substream(2024, 9, m)
    for n, phi in [(1, 0.8), (3, 1.0), (4, 1e-6), (5, float(rng.uniform(0.05, 1.0)))]:
        seed = int(rng.integers(2**63))
        center = [int(c) for c in rng.permutation(m)] if n == 4 else None
        params = {"phi": phi} if center is None else {"phi": phi, "center": center}
        election = generate(CultureSpec("Mallows", seed=seed, params=params), m, n, 1)
        assert election.voters == reference_mallows(seed, m, n, phi, center)


def test_rank_by_distance_matches_the_reference_sort():
    rng = substream(2024, 8)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        # A coarse lattice, so many candidates tie exactly with one another.
        points = rng.integers(0, 4, size=(m, 2)) / 4
        here = rng.integers(0, 4, size=2) / 4
        squared = ((points - here) ** 2).sum(axis=1)
        expected = sorted(range(m), key=lambda c: (squared[c], c))
        assert _rank_by_distance([here], points)[0].tolist() == expected


def reference_votes(kind, seed, m, n):
    """Each culture's votes as tuples of ints, drawn with a fresh
    ``substream(seed, 1, voter)`` per voter and no batching."""
    shared = substream(seed, 0)
    if kind == "IC":
        return tuple(tuple(substream(seed, 1, v).permutation(m).tolist()) for v in range(n))
    if kind == "Euclidean2D":
        points = shared.random((m, 2))
        votes = []
        for v in range(n):
            squared = ((points - substream(seed, 1, v).random(2)) ** 2).sum(axis=1)
            votes.append(tuple(sorted(range(m), key=lambda c: (squared[c], c))))
        return tuple(votes)
    if kind == "Urn":
        votes = []
        for t in range(n):
            if t > 0 and shared.random() * (1.0 + t * 0.5) >= 1.0:
                votes.append(votes[int(shared.integers(t))])
            else:
                votes.append(tuple(shared.permutation(m).tolist()))
        return tuple(votes)
    if kind == "Mallows":
        return reference_mallows(seed, m, n, 0.8)
    if kind == "ID":
        return (tuple(shared.permutation(m).tolist()),) * n
    if kind == "UN":
        total = math.factorial(m)
        want = min(n, total)
        if total <= 50_000:
            universe = list(itertools.permutations(range(m)))
            picked = [universe[i] for i in shared.permutation(total)[:want].tolist()]
        else:
            picked = []
            while len(picked) < want:
                candidate = tuple(shared.permutation(m).tolist())
                if candidate not in picked:
                    picked.append(candidate)
        return tuple(picked[i % want] for i in range(n))
    if kind == "ST":
        mixed = shared.permutation(m).tolist()
        upper, lower = sorted(mixed[: m // 2]), sorted(mixed[m // 2 :])
        votes = []
        for v in range(n):
            rng = substream(seed, 1, v)
            votes.append(tuple(rng.permutation(upper).tolist() + rng.permutation(lower).tolist()))
        return tuple(votes)
    forward = tuple(shared.permutation(m).tolist())
    return (forward,) * ((n + 1) // 2) + (forward[::-1],) * (n // 2)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (20, 20), (100, 250)])
def test_cultures_match_the_per_voter_reference(kind, m, n):
    """Every culture, seeded in one pass, makes the per-voter reference's election."""
    for seed in (11, 2**40 + 11):
        spec = CultureSpec(kind, seed=seed)
        if kind == "ST" and m % 2:
            with pytest.raises(ValueError, match="even candidate count"):
                generate(spec, m, n, 1)
            continue
        voters = generate(spec, m, n, 1).voters
        assert voters == reference_votes(kind, seed, m, n)
        assert all(type(c) is int for vote in voters for c in vote)


def test_generate_refuses_a_spec_that_is_not_a_culture_spec():
    # A kind name in place of the spec gave a bare AttributeError.
    for spec in ("IC", None, {"kind": "IC"}):
        with pytest.raises(ValueError, match="is not a CultureSpec"):
            generate(spec, 3, 3, 1)


def test_spec_refuses_params_that_are_not_a_mapping():
    for params in (None, [("phi", 0.5)], "phi"):
        with pytest.raises(ValueError, match="^params must be a mapping, got "):
            CultureSpec("Mallows", params=params)
    # A JSON "params": null meets the same check, under the config key it sits in.
    data = {"cultures": [{"kind": "IC", "params": None}], "m": 3, "n": 2, "k": 1, "elections_per_culture": 1}
    with pytest.raises(ValueError, match=re.escape("cultures: params must be a mapping, got None")):
        parse_config(data)


def test_a_spec_holds_no_list_a_caller_can_change():
    """A sequence in ``params`` is stored as a tuple: reversing the caller's
    center list after construction changed the votes the spec gave, while
    its label, its hash and a config's checks did not see it."""
    center = [0, 1, 2, 3]
    spec = CultureSpec("Mallows", seed=1, params={"phi": 0.5, "center": center})
    votes = generate(spec, 4, 3, 2).voters
    center.reverse()
    assert generate(spec, 4, 3, 2).voters == votes
    assert spec.params["center"] == (0, 1, 2, 3) and type(spec.params["center"]) is tuple
    twin = CultureSpec("Mallows", seed=1, params={"phi": 0.5, "center": (0, 1, 2, 3)})
    assert spec == twin and hash(spec) == hash(twin)
    # An array is read through tolist(), so its entries are plain ints.
    array = CultureSpec("Mallows", seed=1, params={"phi": 0.5, "center": np.arange(4)})
    assert array == twin and type(array.params["center"][0]) is int


def test_spec_names_unknown_params_whatever_their_key_types():
    # Sorting an int key against a str key gave a bare TypeError.
    with pytest.raises(ValueError, match=re.escape("IC culture does not take parameters [1, 'a']")):
        CultureSpec("IC", params={1: 2, "a": 3})
