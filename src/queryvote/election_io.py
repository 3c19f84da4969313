"""Reading and writing election files.

:func:`load_election` is the one reader: it tells the two formats apart by
the first line. :func:`write_native` and :func:`write_preflib` write them.
Two formats are supported:

* ``native``: line 1 is ``m n k``, followed by ``n`` lines each holding a
  space-separated permutation of the candidate ids ``0..m-1``.
* ``preflib``: the PrefLib complete-strict-order layout. The header is the
  candidate count, one ``<id>,<name>`` line per candidate (1-based ids), and
  a ``<voters>,<vote total>,<unique orders>`` line; each remaining line is
  ``<count>,<ranking>`` with a comma-separated 1-based ranking. The format
  carries no committee size, so ``k`` must be passed to ``load_election``.
  Current PrefLib files, which open with ``# KEY: value`` headers, are
  rejected.

A native body is parsed in one pass, by ``numpy.loadtxt``, into the n x m
int array that :class:`~queryvote.core.Election` reads as it is. Where that
pass fails, warns or gives another shape, the body is read again line by
line with ``int()``, so the line parser gives every error message and
accepts all that ``int()`` does.
"""

from __future__ import annotations

import warnings
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Election


def write_native(election: Election, path) -> None:
    lines = [f"{election.m} {election.n} {election.k}"]
    names = [str(c) for c in range(election.m)]
    lines.extend(" ".join([names[c] for c in voter]) for voter in election.voters)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_lines(path) -> list[tuple[int, str]]:
    """The file's non-blank lines, stripped, each with its 1-based line number.

    A file without any is an error.
    """
    numbered = enumerate(Path(path).read_text().splitlines(), 1)
    lines = [(number, line.strip()) for number, line in numbered if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty election file")
    return lines


def _ints(path, number: int, text: str, sep: str | None = None) -> list[int]:
    """The ``sep``-separated fields of line ``number`` as integers; a field
    that is not one is an error naming the file and the line."""
    try:
        return [int(field) for field in text.split(sep)]
    except ValueError:
        raise ValueError(f"{path}:{number}: expected integers, got {text!r}") from None


def _parse_native(path, lines: list[tuple[int, str]]) -> Election:
    number, first = lines[0]
    if len(first.split()) != 3:
        raise ValueError(f"{path}: expected 'm n k' on the first line, got {first!r}")
    m, n, k = _ints(path, number, first)
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: header promises {n} voters, found {len(lines) - 1}")
    return Election(m=m, voters=_native_body(path, lines[1:], m), k=k)


def _native_body(path, lines: list[tuple[int, str]], m: int):
    """The voter lines as one n x m int64 array, or, where numpy's reader fails,
    warns or gives another shape, as tuples read line by line.

    ``int()`` accepts more than numpy does (``1_0``, non-ASCII digits) and
    gives every error message, so anything numpy does not read cleanly is
    read again by :func:`_ints`.
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" as an int with only a DeprecationWarning.
            warnings.simplefilter("error")
            table = np.loadtxt([line for _, line in lines], dtype=np.int64, comments=None, ndmin=2)
        if table.shape == (len(lines), m):
            return table
    except Exception:
        pass
    return tuple(tuple(_ints(path, number, line)) for number, line in lines)


def write_preflib(election: Election, path, names: Sequence[str] | None = None) -> None:
    """Write the election as PrefLib complete strict orders (names optional)."""
    if names is None:
        names = [f"Candidate {c + 1}" for c in range(election.m)]
    if len(names) != election.m:
        raise ValueError(f"need {election.m} candidate names, got {len(names)}")
    counts = Counter(election.voters)
    lines = [str(election.m)]
    lines.extend(f"{c + 1},{names[c]}" for c in range(election.m))
    lines.append(f"{election.n},{election.n},{len(counts)}")
    for ranking, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{count}," + ",".join(str(c + 1) for c in ranking))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_preflib(path, lines: list[tuple[int, str]], k: int) -> Election:
    number, first = lines[0]
    try:
        m = int(first)
    except ValueError:
        raise ValueError(f"{path}:{number}: expected the candidate count, got {first!r}") from None
    if len(lines) < m + 2:
        raise ValueError(f"{path}: truncated header")
    number, counts_line = lines[m + 1]
    if len(counts_line.split(",")) != 3:
        raise ValueError(f"{path}: expected 'voters,votes,unique' after the names")
    n, vote_total, unique = _ints(path, number, counts_line, sep=",")
    body = lines[m + 2 :]
    if len(body) != unique:
        raise ValueError(f"{path}: header promises {unique} order lines, found {len(body)}")
    voters = []
    for number, line in body:
        count, *ranking = _ints(path, number, line, sep=",")
        voters.extend([tuple(c - 1 for c in ranking)] * count)
    if len(voters) != n or len(voters) != vote_total:
        raise ValueError(f"{path}: vote counts sum to {len(voters)}, header says {n}")
    return Election(m=m, voters=tuple(voters), k=k)


def load_election(path, k: int | None = None) -> Election:
    """Load an election file, sniffing the format from the first line."""
    lines = _read_lines(path)
    _, first = lines[0]
    if first.startswith("#"):
        raise ValueError(
            f"{path}: PrefLib files with '# KEY: value' headers are not supported; "
            "use the legacy PrefLib layout or the native format"
        )
    # PrefLib opens with the candidate count alone; anything else reads as
    # native, so a malformed native header gets the native reader's error.
    if len(first.split()) != 1:
        election = _parse_native(path, lines)
        if k is not None and k != election.k:
            raise ValueError(f"{path}: the header sets k={election.k}, but k={k} was passed")
        return election
    if k is None:
        raise ValueError(f"{path}: PrefLib files carry no committee size, pass k explicitly")
    return _parse_preflib(path, lines, k)
