import operator
import pickle
from dataclasses import fields, replace
from fractions import Fraction

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
    partial_scores,
    run_elicitation,
    select_top_k,
    write_native,
)
from queryvote.core import _id_table, _top_k_rows
from queryvote.election_io import write_preflib
from queryvote.rng import substream
from queryvote.scoring import borda_vector
from queryvote.strategies import ALL_STRATEGIES


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


def tuple_key_top(scores, k):
    """The reference rule: the first ``k`` ids in a sort by ``(-score, id)``."""
    return sorted(range(len(scores)), key=lambda c: (-scores[c], c))[:k]


def test_select_top_k_matches_the_tuple_key_sort():
    # Ties, 0.0 against -0.0 and equal int and float scores all go to the
    # smaller id, as in a sort by (-score, id).
    rng = substream(13)
    pool = [0.0, -0.0, 0, 1, 1.0, -1, -1.0, 2.5, 3, 3.0, 1e300, -1e-300]
    for trial in range(400):
        m = int(rng.integers(1, 25))
        if trial % 4:
            scores = [pool[i] for i in rng.integers(0, len(pool), m).tolist()]
        else:
            scores = (rng.integers(-3, 4, m) / 2).tolist()
        for k in range(m + 1):
            assert select_top_k(scores, k) == frozenset(tuple_key_top(scores, k))
        # Rows of one score array: each row's winners in the reference order.
        rows = [scores] + [[pool[i] for i in rng.integers(0, len(pool), m).tolist()] for _ in range(3)]
        for k in range(m + 1):
            for row, top in zip(rows, _top_k_rows(np.array(rows, dtype=float), k).tolist(), strict=True):
                assert top == tuple_key_top(row, k)
    # Scores that float64 would round or an int dtype would wrap on negation,
    # three at a time, so that numpy does not read every list as objects.
    exact = [
        2**53, 2**53 + 1, float(2**53), 2**63 - 1, 2**63, 2**63 + 1, float(2**63), 2**64,
        2**64 + 1, -(2**63), -(2**63) - 1, 0, 0.5, Fraction(1, 3), Fraction(-1, 3), 1 / 3,
        Fraction(2**64 + 1, 2), -0.0,
    ]
    for _ in range(200):
        source = [exact[i] for i in rng.permutation(len(exact))[:3]]
        scores = [source[i] for i in rng.integers(0, 3, int(rng.integers(1, 25))).tolist()]
        for k in range(len(scores) + 1):
            assert select_top_k(scores, k) == frozenset(tuple_key_top(scores, k))


@pytest.mark.parametrize(
    "scores",
    [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, -1.0, -0.0, 0.0],
        [-0.0, 0, 0.0, False, Fraction(0), -0.0],
        [0, 2**63],
        [2**63, 2**63 + 1, 0.5],
        [2**53, 2**53 + 1, 0.5],
        [-(2**63), 0, -(2**63) + 1],
        [Fraction(1, 3), 1 / 3, Fraction(1, 3), 0.3333333333333333],
    ],
)
def test_select_top_k_matches_the_tuple_key_sort_where_numpy_is_not_exact(scores):
    for k in range(len(scores) + 1):
        assert select_top_k(scores, k) == frozenset(tuple_key_top(scores, k))


@pytest.mark.parametrize(
    "row",
    [
        np.array([0.0, -0.0, 2.5, -0.0, 2.5]),
        np.array([1.5, 1.5, 0.25], dtype=np.float32),
        np.array([0, 5, 0, 5], dtype=np.uint64),
        np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
        np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max, 0]),
        np.array([True, False, True]),
    ],
)
def test_select_top_k_reads_an_ndarray_row_in_its_dtype(row):
    for k in range(len(row) + 1):
        assert select_top_k(row, k) == frozenset(tuple_key_top(row.tolist(), k))


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
        (2, ((np.array([0]), np.array([1])),), 1),
        (2, ((np.array(0), np.array(1)),), 1),
        (3, ((0, 1, 2),), 1.0),
        (3, ((0, 1, 2),), True),
        (2.0, ((0, 1),), 1),
        (True, ((0,),), 1),
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
    assert repr(Election(m=np.int64(3), voters=e.voters, k=np.int64(1))) == repr(e)
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
    "dtype, m, row",
    [
        # ids at and past 2**63, and ids that an int32 cast would wrap onto 0..m-1
        (np.uint64, 3, [2**63, 1, 2]),
        (np.uint64, 3, [2**64 - 1, 0, 1]),
        (np.uint64, 3, [2**32, 1, 2]),
        (np.int64, 3, [2**32 + 2, 0, 1]),
        # int8 cannot hold a permutation of 200 ids; the cast of arange(200) wraps
        (np.int8, 200, np.arange(200).astype(np.int8).tolist()),
        (np.int8, 200, [0] * 200),
        # negative ids
        (np.int64, 3, [-1, 0, 1]),
        (np.int8, 3, [0, 1, -128]),
    ],
)
def test_an_id_array_is_checked_in_its_own_dtype(dtype, m, row):
    array = np.array([row, row], dtype=dtype)
    table, bad = _id_table(array, m)
    assert bad == 0 and table.dtype == np.int32
    message = f"^voter 0 ranking is not a permutation of ints 0..{m - 1}$"
    with pytest.raises(ValueError, match=message):
        Election(m=m, voters=array, k=1)
    assert outcome(m, array) == outcome(m, [list(map(int, row))] * 2)


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


def built_ways(tmp_path, m, rows, k):
    """The election of ``rows`` (int tuples), built in every way the package builds one."""
    path = tmp_path / "e.elec"
    write_native(Election(m=m, voters=rows, k=k), path)
    from_native = load_election(path)
    soc = tmp_path / "e.soc"
    write_preflib(Election(m=m, voters=rows, k=k), soc)
    from_preflib = load_election(soc, k=k)
    assert sorted(from_preflib.voters) == sorted(rows)
    ways = [
        Election(m=m, voters=rows, k=k),
        Election(m=m, voters=[list(row) for row in rows], k=k),
        Election(m=m, voters=np.array(rows, dtype=np.int64), k=k),
        Election(m=m, voters=np.array(rows, dtype=np.uint8), k=k),
        from_native,
        replace(from_native),
        replace(Election(m=m, voters=rows, k=1 if k > 1 else m), k=k),
    ]
    # PrefLib lists equal orders together, most frequent first, then by order.
    if rows == preflib_order(rows):
        ways.append(from_preflib)
    return ways


def preflib_order(rows):
    return tuple(sorted(rows, key=lambda row: (-rows.count(row), row)))


def test_every_way_of_building_an_election_agrees(tmp_path):
    """Tuples, arrays, files, ``replace`` and pickles of the same rankings: one election."""
    rng = substream(17)
    for trial in range(60):
        m = 1 + trial % 7 if trial < 40 else int(rng.integers(8, 40))
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        rows = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        if trial % 2:
            rows = preflib_order(rows)
        ways = built_ways(tmp_path, m, rows, k)
        ways += [pickle.loads(pickle.dumps(e)) for e in ways]
        expected_repr = f"Election(m={m}, voters={rows!r}, k={k})"
        for e in ways:
            assert type(e) is Election and (e.m, e.n, e.k) == (m, n, k)
            assert e._rankings.dtype == np.int32 and not e._rankings.flags.writeable
            assert e == ways[0] and not e != ways[0] and ways[0] == e
            assert hash(e) == hash((m, rows, k)) and repr(e) == expected_repr
            assert e.voters == rows and all(type(c) is int for row in e.voters for c in row)
            assert [f.name for f in fields(e) if f.compare] == ["m", "voters", "k"]
            assert (e == (m, rows, k)) is False and e != rows
        others = [Election(m=m, voters=rows + rows[:1], k=k)]
        if k < m:
            others.append(Election(m=m, voters=rows, k=k + 1))
        if m > 1:
            swapped = (rows[0][1::-1] + rows[0][2:],) + rows[1:]
            others.append(Election(m=m, voters=swapped, k=k))
        bigger = tuple(row + (m,) for row in rows)
        others.append(Election(m=m + 1, voters=bigger, k=k))
        for other in others:
            assert other != ways[0] and not other == ways[0]
            assert ways[0] != other and hash(other) == hash((other.m, other.voters, other.k))


def test_the_file_and_sweep_path_never_builds_voters(tmp_path):
    """generate -> write_native -> load_election -> == -> k_borda -> runs -> scores."""
    scoring = borda_vector(30)
    for kind in ("IC", "Euclidean2D", "Urn", "Mallows"):
        election = generate(CultureSpec(kind, seed=3), 30, 40, 5)
        path = tmp_path / f"{kind}.elec"
        write_native(election, path)
        loaded = load_election(path)
        assert loaded == election
        target = k_borda(loaded)
        for question, policy in ALL_STRATEGIES:
            run = run_elicitation(loaded, question, policy, "computational", 5000, record_log=False)
            assert len(select_top_k(partial_scores(run.profile, scoring), 5)) == len(target)
        assert "voters" not in vars(election) and "voters" not in vars(loaded)
        # A read builds it once and keeps it.
        assert loaded.voters is loaded.voters and "voters" in vars(loaded)
