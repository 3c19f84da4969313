"""Reading and writing election files.

Two formats are supported:

* ``native``: line 1 is ``m n k``, followed by ``n`` lines each holding a
  space-separated permutation of the candidate ids ``0..m-1``.
* ``preflib``: the PrefLib complete-strict-order layout. The header is the
  candidate count, one ``<id>,<name>`` line per candidate (1-based ids), and
  a ``<voters>,<vote total>,<unique orders>`` line; each remaining line is
  ``<count>,<ranking>`` with a comma-separated 1-based ranking. The format
  carries no committee size, so ``k`` must be supplied when reading. Current
  PrefLib files, which open with ``# KEY: value`` headers, are rejected.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Sequence

from .core import Election


def write_native(election: Election, path) -> None:
    lines = [f"{election.m} {election.n} {election.k}"]
    lines.extend(" ".join(str(c) for c in voter) for voter in election.voters)
    Path(path).write_text("\n".join(lines) + "\n")


def read_native(path) -> Election:
    lines = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty election file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"{path}: expected 'm n k' on the first line, got {lines[0]!r}")
    m, n, k = (int(x) for x in header)
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: header promises {n} voters, found {len(lines) - 1}")
    voters = tuple(tuple(int(c) for c in line.split()) for line in lines[1:])
    return Election(m=m, voters=voters, k=k)


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


def read_preflib(path, k: int) -> Election:
    """Parse a PrefLib complete-strict-order file; ``k`` is the committee size."""
    lines = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty election file")
    try:
        m = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: expected the candidate count on line 1, got {lines[0]!r}")
    if len(lines) < m + 2:
        raise ValueError(f"{path}: truncated header")
    counts_line = lines[m + 1].split(",")
    if len(counts_line) != 3:
        raise ValueError(f"{path}: expected 'voters,votes,unique' after the names")
    n, vote_total, unique = (int(x) for x in counts_line)
    body = lines[m + 2 :]
    if len(body) != unique:
        raise ValueError(f"{path}: header promises {unique} order lines, found {len(body)}")
    voters = []
    for line in body:
        parts = line.split(",")
        count = int(parts[0])
        ranking = tuple(int(c) - 1 for c in parts[1:])
        voters.extend([ranking] * count)
    if len(voters) != n or len(voters) != vote_total:
        raise ValueError(f"{path}: vote counts sum to {len(voters)}, header says {n}")
    return Election(m=m, voters=tuple(voters), k=k)


def load_election(path, k: int | None = None) -> Election:
    """Load an election file, sniffing the format from the first line."""
    first = ""
    for line in Path(path).read_text().splitlines():
        if line.strip():
            first = line.strip()
            break
    if first.startswith("#"):
        raise ValueError(
            f"{path}: PrefLib files with '# KEY: value' headers are not supported; "
            "use the legacy PrefLib layout or the native format"
        )
    if len(first.split()) == 3:
        return read_native(path)
    if k is None:
        raise ValueError(f"{path}: PrefLib files carry no committee size, pass k explicitly")
    return read_preflib(path, k)
