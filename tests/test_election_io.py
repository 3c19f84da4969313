import pytest

from queryvote import CultureSpec, Election, generate
from queryvote.election_io import load_election, write_native, write_preflib


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
