import operator
from dataclasses import fields

import numpy as np
import pytest

from queryvote import (
    CultureSpec,
    Election,
    borda_scores,
    generate,
    hamming,
    k_borda,
    load_election,
    select_top_k,
    write_native,
)
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


def reference_voters(m, voters):
    """The per-voter check of an election: its voters as int tuples, or the
    index of the first voter that is not a permutation of ints 0..m-1."""
    reference = list(range(m))
    checked = []
    for i, voter in enumerate(map(tuple, voters)):
        try:
            ranking = tuple(map(operator.index, voter))
        except TypeError:
            ranking = ()
        if bool in map(type, voter) or sorted(ranking) != reference:
            return i
        checked.append(ranking)
    return tuple(checked)


def reference_borda(m, voters):
    scores = [0] * m
    for voter in voters:
        for position, candidate in enumerate(voter):
            scores[candidate] += m - 1 - position
    return scores


def spoil(rng, voter, m):
    """``voter`` with one entry changed in one of the ways a ranking can be wrong or odd."""
    if not voter:
        return (0,)
    voter = list(voter)
    at = int(rng.integers(len(voter)))
    how = int(rng.integers(11))
    if how == 0:
        voter[at] = voter[at - 1]  # a repeated id, or an unchanged ranking when m = 1
    elif how == 1:
        del voter[at]
    elif how == 2:
        voter.append(voter[at])
    elif how == 3:
        voter[at] = float(voter[at])
    elif how == 4:
        voter[at] += 0.5
    elif how == 5:
        voter[at] = bool(voter[at]) if voter[at] < 2 else str(voter[at])
    elif how == 6:
        voter[at] = np.bool_(voter[at] % 2)
    elif how == 7:
        voter[at] = [-1, m, 2**70, -(2**70)][int(rng.integers(4))]
    elif how == 8:
        voter[at] = np.int64(m + 2**33)
    else:  # numpy ints are ids as good as ints
        kind = np.int64 if how == 9 else np.int8
        voter = [kind(c) if type(c) is int and 0 <= c < 100 else c for c in voter]
    return tuple(voter)


def test_election_check_matches_the_per_voter_reference():
    rng = substream(14)
    for trial in range(3000):
        m = 1 if trial % 10 == 0 else int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        voters = [tuple(int(c) for c in rng.permutation(m)) for _ in range(n)]
        for _ in range(int(rng.integers(0, 3))):
            v = int(rng.integers(n))
            voters[v] = spoil(rng, voters[v], m)
        expected = reference_voters(m, voters)
        if isinstance(expected, int):
            message = f"^voter {expected} ranking is not a permutation of ints 0..{m - 1}$"
            with pytest.raises(ValueError, match=message):
                Election(m=m, voters=voters, k=1)
            continue
        e = Election(m=m, voters=voters, k=1)
        assert e.voters == expected
        assert all(type(c) is int for voter in e.voters for c in voter)
        assert e._rankings.tolist() == [list(voter) for voter in expected]
        assert borda_scores(e) == reference_borda(m, expected)
        assert all(type(score) is int for score in borda_scores(e))


def test_the_rankings_array_is_invisible(tmp_path):
    e = Election(m=3, voters=((2, 0, 1), (0, 1, 2)), k=1)
    assert repr(e) == "Election(m=3, voters=((2, 0, 1), (0, 1, 2)), k=1)"
    assert hash(e) == hash((3, ((2, 0, 1), (0, 1, 2)), 1))
    assert [f.name for f in fields(e) if f.compare or f.repr] == ["m", "voters", "k"]
    same = Election(m=3, voters=[[np.int64(2), 0, 1], range(3)], k=1)
    assert same == e and hash(same) == hash(e) and repr(same) == repr(e)
    assert e != Election(m=3, voters=((0, 1, 2), (2, 0, 1)), k=1)
    assert not e._rankings.flags.writeable
    with pytest.raises(ValueError):
        e._rankings[0, 0] = 1
    for election in (e, generate(CultureSpec("Urn", seed=5), 30, 40, 4)):
        path = tmp_path / "e.elec"
        write_native(election, path)
        loaded = load_election(path)
        assert loaded == election and hash(loaded) == hash(election)
        assert (loaded._rankings == election._rankings).all()


def outcome(m, voters):
    """The election's voters and rankings, or its error message."""
    try:
        e = Election(m=m, voters=voters, k=1)
    except ValueError as err:
        return str(err)
    assert all(type(c) is int for voter in e.voters for c in voter)
    assert not e._rankings.flags.writeable and e._rankings.dtype == np.int32
    return e.voters, e._rankings.tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
def test_an_id_array_makes_the_election_its_rows_make(dtype):
    """An n x m integer array, bad rows and huge ids included, against the same rows as tuples."""
    info = np.iinfo(dtype)
    odd = [info.max, info.max - 1, info.min, 2**31, 2**32, 2**32 + 1, -1, 127, 128, 255, 256]
    odd = [x for x in odd if info.min <= x <= info.max]
    rng = substream(15)
    for trial in range(600):
        m = 1 if trial % 10 == 0 else int(rng.integers(1, 9))
        n = 0 if trial % 50 == 0 else int(rng.integers(1, 7))
        rows = [[int(c) for c in rng.permutation(m)] for _ in range(n)]
        for _ in range(int(rng.integers(0, 3)) if n else 0):
            v, at = int(rng.integers(n)), int(rng.integers(m))
            if rng.integers(2):
                rows[v][at] = rows[v][at - 1]
            else:
                rows[v][at] = odd[int(rng.integers(len(odd)))]
        array = np.array(rows, dtype=dtype).reshape(n, m)
        before = array.copy()
        expected = outcome(m, tuple(tuple(int(c) for c in row) for row in array))
        assert outcome(m, array) == expected
        assert array.flags.writeable and (array == before).all()
        e = None if isinstance(expected, str) else Election(m=m, voters=array, k=1)
        assert e is None or not np.shares_memory(e._rankings, array)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[1, 0, 2]], dtype=bool),
        np.array([[2.0, 0.0, 1.0]]),
        np.array([[2, 0, 1]], dtype=np.float32),
        np.array([[2, 0, 1, 3]]),
        np.array([[2, 0], [1, 0]]),
    ],
)
def test_other_arrays_are_refused_as_their_rows_are(array):
    """Bool and float arrays and arrays of the wrong width take the row-by-row check."""
    message = "^voter 0 ranking is not a permutation of ints 0..2$"
    with pytest.raises(ValueError, match=message):
        Election(m=3, voters=array, k=1)
    with pytest.raises(ValueError, match=message):
        Election(m=3, voters=tuple(map(tuple, array)), k=1)
    assert array.flags.writeable
