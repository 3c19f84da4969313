from pathlib import Path

import pytest

from queryvote import KINDS, CultureSpec, Election, generate
from queryvote.election_io import load_election, write_native, write_preflib
from queryvote.rng import substream


@pytest.fixture
def election():
    return generate(CultureSpec("IC", seed=4), 5, 7, 2)


def test_native_round_trip(tmp_path, election):
    path = tmp_path / "e.elec"
    write_native(election, path)
    assert load_election(path) == election


def test_native_layout(tmp_path):
    e = Election(m=3, voters=((2, 0, 1), (0, 1, 2)), k=1)
    path = tmp_path / "e.elec"
    write_native(e, path)
    assert path.read_text() == "3 2 1\n2 0 1\n0 1 2\n"


def test_native_load_rejects_a_k_other_than_the_header(tmp_path, election):
    path = tmp_path / "e.elec"
    write_native(election, path)
    assert load_election(path, k=election.k) == election
    with pytest.raises(ValueError, match=f"{path}: the header sets k=2, but k=3"):
        load_election(path, k=3)


def test_preflib_round_trip(tmp_path, election):
    path = tmp_path / "e.soc"
    write_preflib(election, path)
    back = load_election(path, k=election.k)
    # PrefLib groups identical rankings, so order may differ but counts match.
    assert back.m == election.m and back.n == election.n
    assert sorted(back.voters) == sorted(election.voters)


def test_preflib_layout(tmp_path):
    e = Election(m=3, voters=((0, 1, 2), (0, 1, 2), (2, 1, 0)), k=2)
    path = tmp_path / "e.soc"
    write_preflib(e, path, names=["Ann", "Bo", "Cy"])
    lines = path.read_text().splitlines()
    assert lines[0] == "3"
    assert lines[1:4] == ["1,Ann", "2,Bo", "3,Cy"]
    assert lines[4] == "3,3,2"
    assert lines[5] == "2,1,2,3"
    assert lines[6] == "1,3,2,1"


def test_load_election_sniffs_format(tmp_path, election):
    native = tmp_path / "a.elec"
    soc = tmp_path / "b.soc"
    write_native(election, native)
    write_preflib(election, soc)
    assert load_election(native) == election
    assert load_election(soc, k=election.k).m == election.m
    with pytest.raises(ValueError):
        load_election(soc)  # PrefLib needs an explicit k


def test_read_native_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.elec"
    path.write_text("3 2\n0 1 2\n")
    with pytest.raises(ValueError, match="expected 'm n k' on the first line"):
        load_election(path)


def test_read_preflib_rejects_count_mismatch(tmp_path):
    path = tmp_path / "bad.soc"
    path.write_text("2\n1,A\n2,B\n3,3,1\n2,1,2\n")
    with pytest.raises(ValueError, match="vote counts sum to 2, header says 3"):
        load_election(path, k=1)


@pytest.mark.parametrize("header", ["# TITLE: x", "# FILE NAME: x.soc"])
def test_load_election_rejects_keyed_preflib_headers(tmp_path, header):
    path = tmp_path / "x.soc"
    path.write_text(f"\n{header}\n# DATA TYPE: soc\n# NUMBER ALTERNATIVES: 2\n3: 1,2\n")
    with pytest.raises(ValueError, match="# KEY: value") as err:
        load_election(path, k=1)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty election file"),
        ("\n\n", "empty election file"),
        ("2 1 1 5\n0 1\n", "expected 'm n k'"),
        ("2 1\n0 1\n", "expected 'm n k'"),
    ],
)
def test_load_election_reports_native_errors(tmp_path, text, message):
    path = tmp_path / "x.elec"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_election(path)


def test_load_election_asks_for_k_only_for_preflib(tmp_path):
    path = tmp_path / "x.soc"
    path.write_text("2\n1,A\n2,B\n1,1,1\n1,1,2\n")
    with pytest.raises(ValueError, match="pass k explicitly"):
        load_election(path)
    assert load_election(path, k=1).voters == ((0, 1),)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 two 1\n0 1 2\n0 1 2\n", 1),
        ("3 2 1\n0 1 2\n0 x 2\n", 3),
        ("\n3 2 1\n\n0 1 2\n2 1 1.5\n", 5),
    ],
)
def test_native_names_file_and_line_of_a_bad_field(tmp_path, text, line):
    path = tmp_path / "x.elec"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected integers") as err:
        load_election(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize(
    "text, line",
    [
        ("two\n1,A\n2,B\n1,1,1\n1,1,2\n", 1),
        ("2\n1,A\n2,B\n1,one,1\n1,1,2\n", 4),
        ("2\n1,A\n2,B\n2,2,2\n1,1,2\nx,1,2\n", 6),
        ("2\n1,A\n\n2,B\n2,2,2\n1,1,2\n1,2,b\n", 7),
    ],
)
def test_preflib_names_file_and_line_of_a_bad_field(tmp_path, text, line):
    path = tmp_path / "x.soc"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected") as err:
        load_election(path, k=1)
    assert str(err.value).startswith(f"{path}:{line}: ")


def line_parser_load(path):
    """A native file read line by line with ``int()``, as the reference for ``load_election``."""
    numbered = enumerate(Path(path).read_text().splitlines(), 1)
    lines = [(number, line.strip()) for number, line in numbered if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty election file")

    def ints(number, text):
        try:
            return [int(field) for field in text.split()]
        except ValueError:
            raise ValueError(f"{path}:{number}: expected integers, got {text!r}") from None

    number, first = lines[0]
    if len(first.split()) != 3:
        raise ValueError(f"{path}: expected 'm n k' on the first line, got {first!r}")
    m, n, k = ints(number, first)
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: header promises {n} voters, found {len(lines) - 1}")
    voters = tuple(tuple(ints(number, line)) for number, line in lines[1:])
    return Election(m=m, voters=voters, k=k)


def loaded(load, path):
    """The election ``load`` reads from ``path`` with its rankings, or its error message."""
    try:
        e = load(path)
    except ValueError as err:
        return str(err)
    assert all(type(c) is int for voter in e.voters for c in voter)
    return e, e._rankings.tolist()


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def mutate(rng, rows, m):
    """One token or separator of the voter lines changed in one of the ways a file can be odd."""
    v = int(rng.integers(len(rows)))
    row = rows[v]
    if not row:  # a deleted one-field line, which leaves a blank line
        return
    at = int(rng.integers(len(row)))
    token = row[at]
    how = int(rng.integers(16))
    if how == 0:
        row[at] = "+" + token
    elif how == 1:
        row[at] = "0_" + token
    elif how == 2:
        row[at] = token.translate(ARABIC_INDIC)
    elif how == 3:
        row[at] = token + ".0"
    elif how == 4:
        row[at] = "0x" + token
    elif how == 5:
        row[at] = "#"
    elif how == 6:
        row[at] = "\t" + token
    elif how == 7:
        row[at] = "\xa0" + token
    elif how == 8:
        del row[at]
    elif how == 9:
        row.append(token)
    elif how == 10:
        row[at] = ["-1", str(m), str(2**32), "00" + token][int(rng.integers(4))]
    elif how == 11:
        row[at] = str([2**63, 2**64, -(2**63) - 1][int(rng.integers(3))])
    elif how == 12:
        rows[v] = [" ".join(row)]
    elif how == 13:
        other = int(rng.integers(len(row)))
        row[at], row[other] = row[other], token
    else:
        row[at] = "-0" if token == "0" else token


def test_load_election_matches_the_line_parser(tmp_path):
    """Random native files with odd tokens: the same election, or the same error message."""
    rng = substream(16)
    path = tmp_path / "x.elec"
    sizes = [(1, 1), (1, 4), (2, 1), (3, 2), (5, 7), (20, 30)]
    for trial in range(1200):
        m, n = sizes[trial % len(sizes)]
        e = generate(CultureSpec("IC", seed=trial), m, n, 1)
        rows = [[str(c) for c in voter] for voter in e.voters]
        for _ in range(int(rng.integers(0, 3))):
            mutate(rng, rows, m)
        body = [" ".join(row) for row in rows]
        newline = "\r\n" if trial % 3 == 0 else "\n"
        path.write_text(newline.join([f"{m} {n} 1", *body]) + newline, newline="")
        expected = loaded(line_parser_load, path)
        assert loaded(load_election, path) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_native_round_trip_at_100x250(tmp_path, kind):
    e = generate(CultureSpec(kind, seed=1), 100, 250, 10)
    path = tmp_path / "e.elec"
    write_native(e, path)
    lines = [f"{e.m} {e.n} {e.k}", *(" ".join(str(c) for c in voter) for voter in e.voters)]
    assert path.read_text() == "\n".join(lines) + "\n"
    back = load_election(path)
    assert back == e and (back._rankings == e._rankings).all()
