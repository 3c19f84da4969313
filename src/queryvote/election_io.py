"""Reading and writing election files.

:func:`load_election` is the one reader: it tells the two formats apart by
the first line. :func:`write_native` and :func:`write_preflib` write them.
Two formats are supported:

* ``native``: line 1 is ``m n k``, followed by ``n`` lines each holding a
  space-separated permutation of the candidate ids ``0..m-1``.
* ``preflib``: the PrefLib complete-strict-order layout. The header is the
  candidate count, one ``<id>,<name>`` line per candidate (1-based ids), and
  a ``<voters>,<vote total>,<unique orders>`` line; each remaining line is
  ``<count>,<ranking>``, a count of 1 or more and a comma-separated 1-based
  ranking. The format carries no committee size, so ``k`` must be passed to
  ``load_election``.
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

from .core import Election, _id_table, _whole


def write_native(election: Election, path) -> None:
    lines = [f"{election.m} {election.n} {election.k}"]
    names = np.array([str(c) for c in range(election.m)], dtype=object)
    lines.extend(map(" ".join, names[election._rankings].tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _read_lines(path) -> list[tuple[int, str]]:
    """The file's non-blank lines, stripped, each with its 1-based line number.

    A file that is not UTF-8 text, or has no such line, is an error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from None
    numbered = enumerate(text.splitlines(), 1)
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
    rows = _native_body(path, lines[1:], m)
    try:
        return Election(m=m, voters=rows, k=k)
    except ValueError as err:
        raise _refusal(path, err, m, k, lines[1:], _id_table(rows, m)[1]) from None


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
    """Write the election as PrefLib complete strict orders (names optional, one line each)."""
    if names is None:
        names = [f"Candidate {c + 1}" for c in range(election.m)]
    if len(names) != election.m:
        raise ValueError(f"need {election.m} candidate names, got {len(names)}")
    for c, name in enumerate(map(str, names)):
        if "".join(name.splitlines()) != name:
            raise ValueError(f"candidate {c + 1} name {name!r} holds a line break")
    counts = Counter(election.voters)
    lines = [str(election.m)]
    lines.extend(f"{c + 1},{names[c]}" for c in range(election.m))
    lines.append(f"{election.n},{election.n},{len(counts)}")
    for ranking, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{count}," + ",".join(str(c + 1) for c in ranking))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


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
    orders, counts = [], []
    for number, line in body:
        count, *ranking = _ints(path, number, line, sep=",")
        if count < 1:
            raise ValueError(f"{path}:{number}: expected an order count of at least 1, got {count}")
        orders.append([c - 1 for c in ranking])
        counts.append(count)
    for stated, field in ((n, "voters"), (vote_total, "votes")):
        if sum(counts) != stated:
            raise ValueError(f"{path}: vote counts sum to {sum(counts)}, header says {stated} {field}")
    # Each distinct order is read once. The election checks m and k before
    # any ranking; after them, a bad order is refused as the file states it:
    # by its line, in the file's 1-based ids.
    table, bad = _id_table(orders, m)
    if bad is not None and 1 <= k <= m:
        raise ValueError(f"{path}:{body[bad][0]}: order ranking is not a permutation of ints 1..{m}")
    try:
        return Election(m=m, voters=np.repeat(table, counts, axis=0), k=k)
    except ValueError as err:
        raise _refusal(path, err, m, k, body, bad) from None


def _refusal(path, err: ValueError, m: int, k: int, lines, bad: int | None) -> ValueError:
    """The election's refusal ``err``, prefixed with the file and, when it refused
    the ranking read from ``lines[bad]``, that line's number. The election
    checks ``k`` against ``m`` before any ranking, so a bad ``k`` names no line."""
    where = f"{path}:{lines[bad][0]}" if bad is not None and 1 <= k <= m else path
    return ValueError(f"{where}: {err}")


def load_election(path, k: int | None = None) -> Election:
    """Load an election file, sniffing the format from the first line."""
    k = None if k is None else _whole("k", k)
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
