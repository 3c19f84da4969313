"""Statistical election cultures.

Eight seeded vote-generation models: impartial culture, 2D Euclidean, urn,
Mallows, and the four reference cultures spanning agreement and conflict
(identity, uniformity, stratification, antagonism).

Generation is a pure function of ``(spec, m, n, k)``. Voters that are
statistically independent draw from per-voter substreams, keyed
``(seed, 1, voter)``, so an election can be filled in any order or in
parallel and come out identical; shared structure (candidate points,
reference orders, urn draws) uses the stream keyed ``(seed, 0)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import Election, PreferenceOrder
from .rng import substream

KINDS = ("IC", "Euclidean2D", "Urn", "Mallows", "ID", "UN", "ST", "AN")

_KIND_ALIASES = {
    "ic": "IC",
    "impartial": "IC",
    "euclidean2d": "Euclidean2D",
    "euclidean": "Euclidean2D",
    "2d": "Euclidean2D",
    "urn": "Urn",
    "mallows": "Mallows",
    "id": "ID",
    "identity": "ID",
    "un": "UN",
    "uniformity": "UN",
    "st": "ST",
    "stratification": "ST",
    "an": "AN",
    "antagonism": "AN",
}

# Parameters accepted per kind, with defaults filled at generation time.
_KIND_PARAMS = {
    "IC": (),
    "Euclidean2D": (),
    "Urn": ("alpha",),
    "Mallows": ("phi", "center"),
    "ID": (),
    "UN": (),
    "ST": (),
    "AN": (),
}

DEFAULT_URN_ALPHA = 0.5  # copies added per draw, as a multiple of m!
DEFAULT_MALLOWS_PHI = 0.8

# Below this many permutations, uniformity elections enumerate the full
# permutation set; above it, distinct orders are rejection-sampled.
_ENUMERATION_LIMIT = 50_000


def canonical_kind(kind: str) -> str:
    key = str(kind).strip().lower().replace("-", "").replace("_", "")
    if key not in _KIND_ALIASES:
        raise ValueError(f"unknown culture kind {kind!r}; choose one of {KINDS}")
    return _KIND_ALIASES[key]


@dataclass
class CultureSpec:
    """A culture kind, its parameters, and the seed that fixes the election."""

    kind: str
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.kind = canonical_kind(self.kind)
        allowed = _KIND_PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(f"{self.kind} culture does not take parameters {unknown}")

    def with_seed(self, seed: int) -> "CultureSpec":
        return replace(self, seed=seed)

    def label(self) -> str:
        """Stable display name, e.g. ``Mallows[phi=0.2]``."""
        shown = {k: v for k, v in sorted(self.params.items()) if k != "center"}
        if not shown:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in shown.items())
        return f"{self.kind}[{inner}]"


def _voter_rng(seed: int, voter: int) -> np.random.Generator:
    return substream(seed, 1, voter)


def _permutation(rng: np.random.Generator, m: int) -> PreferenceOrder:
    return tuple(int(c) for c in rng.permutation(m))


def rank_by_distance(point: Sequence[float], candidate_points) -> PreferenceOrder:
    """Candidates sorted by increasing distance from ``point``.

    Exact distance ties go to the lower candidate id, which keeps generation
    deterministic even for hand-placed points.
    """
    pts = np.asarray(candidate_points, dtype=float)
    here = np.asarray(point, dtype=float)
    if not (np.isfinite(pts).all() and np.isfinite(here).all()):
        raise ValueError("points must be finite")
    squared = ((pts - here) ** 2).sum(axis=1)
    order = sorted(range(len(pts)), key=lambda c: (squared[c], c))
    return tuple(order)


def _generate_ic(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    return tuple(_permutation(_voter_rng(seed, i), m) for i in range(n))


def _generate_euclidean(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    candidate_points = substream(seed, 0).random((m, 2))
    votes = []
    for i in range(n):
        point = _voter_rng(seed, i).random(2)
        votes.append(rank_by_distance(point, candidate_points))
    return tuple(votes)


def _generate_urn(seed: int, m: int, n: int, alpha: float) -> tuple[PreferenceOrder, ...]:
    """Urn sampling: each drawn order returns with ``alpha * m!`` extra copies.

    With probability ``t*alpha / (1 + t*alpha)`` the t-th voter copies a
    uniformly chosen earlier vote, otherwise they draw a fresh uniform order.
    Draws depend on earlier draws, so a single sequential stream is used.
    """
    if alpha < 0:
        raise ValueError(f"urn contagion must be non-negative, got {alpha}")
    rng = substream(seed, 0)
    votes: list[PreferenceOrder] = []
    for t in range(n):
        if t > 0 and rng.random() * (1.0 + t * alpha) >= 1.0:
            votes.append(votes[int(rng.integers(t))])
        else:
            votes.append(_permutation(rng, m))
    return tuple(votes)


def _mallows_vote(rng: np.random.Generator, center: PreferenceOrder, phi: float) -> PreferenceOrder:
    """One repeated-insertion draw around ``center`` with dispersion ``phi``."""
    vote = [center[0]]
    for i in range(2, len(center) + 1):
        weights = phi ** np.arange(i - 1, -1, -1, dtype=float)
        position = int(rng.choice(i, p=weights / weights.sum()))
        vote.insert(position, center[i - 1])
    return tuple(vote)


def _generate_mallows(
    seed: int, m: int, n: int, phi: float, center
) -> tuple[PreferenceOrder, ...]:
    if not 0 < phi <= 1:
        raise ValueError(f"Mallows dispersion must lie in (0, 1], got {phi}")
    if center is None:
        center = _permutation(substream(seed, 0), m)
    else:
        center = tuple(int(c) for c in center)
        if tuple(sorted(center)) != tuple(range(m)):
            raise ValueError(f"Mallows center must be a permutation of 0..{m - 1}")
    return tuple(_mallows_vote(_voter_rng(seed, i), center, phi) for i in range(n))


def _generate_id(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    shared = _permutation(substream(seed, 0), m)
    return (shared,) * n


def _generate_un(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    """Distinct orders sampled without replacement, cycled across voters.

    Perfectly balanced disagreement is only possible when m! divides n; this
    gets as close as n allows by giving each sampled order to at most one
    more voter than any other.
    """
    rng = substream(seed, 0)
    total = math.factorial(m)
    want = min(n, total)
    if total <= _ENUMERATION_LIMIT:
        universe = list(itertools.permutations(range(m)))
        picked = [universe[int(i)] for i in rng.permutation(total)[:want]]
    else:
        seen: set[PreferenceOrder] = set()
        picked = []
        while len(picked) < want:
            candidate = _permutation(rng, m)
            if candidate not in seen:
                seen.add(candidate)
                picked.append(candidate)
    return tuple(picked[i % want] for i in range(n))


def _generate_st(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    if m % 2:
        raise ValueError(f"stratification needs an even candidate count, got m={m}")
    mixed = substream(seed, 0).permutation(m)
    upper = [int(c) for c in sorted(mixed[: m // 2])]
    lower = [int(c) for c in sorted(mixed[m // 2 :])]
    votes = []
    for i in range(n):
        rng = _voter_rng(seed, i)
        votes.append(
            tuple(int(c) for c in rng.permutation(upper))
            + tuple(int(c) for c in rng.permutation(lower))
        )
    return tuple(votes)


def _generate_an(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    forward = _permutation(substream(seed, 0), m)
    backward = forward[::-1]
    first_half = (n + 1) // 2
    return (forward,) * first_half + (backward,) * (n - first_half)


def generate(spec: CultureSpec, m: int, n: int, k: int) -> Election:
    """Sample an election from ``spec``; identical inputs give identical output.

    Args:
        spec: culture kind, parameters, and seed.
        m: number of candidates.
        n: number of voters.
        k: committee size, stored on the election.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    kind = spec.kind
    if kind == "IC":
        votes = _generate_ic(spec.seed, m, n)
    elif kind == "Euclidean2D":
        votes = _generate_euclidean(spec.seed, m, n)
    elif kind == "Urn":
        votes = _generate_urn(spec.seed, m, n, float(spec.params.get("alpha", DEFAULT_URN_ALPHA)))
    elif kind == "Mallows":
        votes = _generate_mallows(
            spec.seed,
            m,
            n,
            float(spec.params.get("phi", DEFAULT_MALLOWS_PHI)),
            spec.params.get("center"),
        )
    elif kind == "ID":
        votes = _generate_id(spec.seed, m, n)
    elif kind == "UN":
        votes = _generate_un(spec.seed, m, n)
    elif kind == "ST":
        votes = _generate_st(spec.seed, m, n)
    else:
        votes = _generate_an(spec.seed, m, n)
    return Election(m=m, voters=votes, k=k)
