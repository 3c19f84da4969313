"""Statistical election cultures.

Eight seeded vote-generation models: impartial culture, 2D Euclidean, urn,
Mallows, and the four reference cultures spanning agreement and conflict
(identity, uniformity, stratification, antagonism).

Each culture is declared once, in ``_CULTURES``: its generator and the names
of the keyword parameters it takes. ``KINDS``, the accepted kind names and
the parameter check of :class:`CultureSpec` derive from that table, and each
generator holds its own parameter defaults.

Generation is a pure function of ``(spec, m, n, k)``. Voters that are
statistically independent draw from per-voter substreams, keyed
``(seed, 1, voter)``, so an election can be filled in any order or in
parallel and come out identical; shared structure (candidate points,
reference orders, urn draws) uses the stream keyed ``(seed, 0)``.

The IC and Euclidean2D generators return their votes as one n x m int
array, which :class:`~queryvote.core.Election` reads as it is: IC stacks
the per-voter permutations, and Euclidean2D ranks every voter with one
stable sort of the n x m squared distances, the sort that
:func:`rank_by_distance` runs on one point. The other generators return
tuples of candidate ids.

Mallows votes come from the repeated insertion model (Doignon et al., 2004;
Lu & Boutilier, 2014) with one batched draw per voter, and are byte-identical
to calling ``rng.choice(i, p=...)`` once per insertion:

- for one draw, ``choice`` takes exactly one ``random()`` double, so one
  ``rng.random(m - 1)`` call yields the same doubles in the same order;
- each insertion cdf is built once per election with the arithmetic
  ``choice`` uses (``p.cumsum()``, then divided by its last entry);
- ``choice`` returns ``cdf.searchsorted(u, side="right")``, which for a
  non-decreasing cdf is the count of entries ``<= u``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import Election, PreferenceOrder
from .rng import substream

DEFAULT_URN_ALPHA = 0.5  # copies added per draw, as a multiple of m!
DEFAULT_MALLOWS_PHI = 0.8

# Below this many permutations, uniformity elections enumerate the full
# permutation set; above it, distinct orders are rejection-sampled.
_ENUMERATION_LIMIT = 50_000


def canonical_kind(kind: str) -> str:
    """The kind's name in ``KINDS``, matched without case, ``-`` or ``_``, or an alias."""
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
        unknown = sorted(set(self.params) - set(_CULTURES[self.kind][1]))
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
    return tuple(rng.permutation(m).tolist())


def _rank_by_distance(points, candidate_points) -> np.ndarray:
    """Row i: the candidates sorted by increasing distance from ``points[i]``.

    Exact distance ties go to the lower candidate id: a stable sort of the
    squared distances is exactly the ``(squared[c], c)`` order.
    """
    pts = np.asarray(candidate_points, dtype=float)
    here = np.asarray(points, dtype=float)
    if not (np.isfinite(pts).all() and np.isfinite(here).all()):
        raise ValueError("points must be finite")
    squared = ((pts - here[:, None, :]) ** 2).sum(axis=2)
    return np.argsort(squared, axis=1, kind="stable")


def rank_by_distance(point: Sequence[float], candidate_points) -> PreferenceOrder:
    """Candidates sorted by increasing distance from ``point``.

    Exact distance ties go to the lower candidate id, which keeps generation
    deterministic even for hand-placed points.
    """
    return tuple(_rank_by_distance([point], candidate_points)[0].tolist())


def _number(value, name: str) -> float:
    """A culture parameter as a float; a value that is not a number is an error naming it.

    A bool is not taken for 0 or 1.
    """
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _generate_ic(seed: int, m: int, n: int) -> np.ndarray:
    return np.stack([_voter_rng(seed, i).permutation(m) for i in range(n)])


def _generate_euclidean(seed: int, m: int, n: int) -> np.ndarray:
    candidate_points = substream(seed, 0).random((m, 2))
    points = np.stack([_voter_rng(seed, i).random(2) for i in range(n)])
    return _rank_by_distance(points, candidate_points)


def _generate_urn(
    seed: int, m: int, n: int, alpha: float = DEFAULT_URN_ALPHA
) -> tuple[PreferenceOrder, ...]:
    """Urn sampling: each drawn order returns with ``alpha * m!`` extra copies.

    With probability ``t*alpha / (1 + t*alpha)`` the t-th voter copies a
    uniformly chosen earlier vote, otherwise they draw a fresh uniform order.
    Draws depend on earlier draws, so a single sequential stream is used.
    """
    alpha = _number(alpha, "urn contagion alpha")
    if not alpha >= 0:  # also rejects NaN, which would give plain IC votes
        raise ValueError(f"urn contagion must be non-negative, got {alpha}")
    rng = substream(seed, 0)
    votes: list[PreferenceOrder] = []
    for t in range(n):
        if t > 0 and rng.random() * (1.0 + t * alpha) >= 1.0:
            votes.append(votes[int(rng.integers(t))])
        else:
            votes.append(_permutation(rng, m))
    return tuple(votes)


def _insertion_cdfs(m: int, phi: float) -> np.ndarray:
    """The cdf of every insertion step, as ``Generator.choice`` builds it.

    Row ``i - 2`` is the cdf for inserting the i-th center candidate into a
    vote of ``i - 1``: the weights ``phi**(i-1), ..., phi, 1`` normalised,
    summed and renormalised with the same numpy calls ``choice(i, p=...)``
    makes, then padded with ``inf`` to length ``m``.
    """
    cdfs = np.full((m - 1, m), np.inf)
    for i in range(2, m + 1):
        weights = phi ** np.arange(i - 1, -1, -1, dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        cdfs[i - 2, :i] = cdf
    return cdfs


def _mallows_vote(
    rng: np.random.Generator, center: PreferenceOrder, cdfs: np.ndarray
) -> PreferenceOrder:
    """One repeated-insertion draw around ``center`` from one batch of uniforms.

    The votes are those of calling ``rng.choice(i, p=...)`` once per
    insertion, byte for byte. For one draw, ``choice`` takes exactly one
    ``random()`` double ``u`` and returns ``cdf.searchsorted(u, side="right")``,
    with the cdf of ``_insertion_cdfs``. So the m - 1 doubles of one
    ``rng.random(m - 1)`` call are the doubles those calls take, in order,
    and counting the entries ``<= u`` of a non-decreasing row (``inf``
    padding never counts) is ``searchsorted`` with ``side="right"``.
    """
    positions = (cdfs <= rng.random(len(center) - 1)[:, None]).sum(axis=1).tolist()
    vote = [center[0]]
    for candidate, position in zip(center[1:], positions):
        vote.insert(position, candidate)
    return tuple(vote)


def _generate_mallows(
    seed: int, m: int, n: int, phi: float = DEFAULT_MALLOWS_PHI, center=None
) -> tuple[PreferenceOrder, ...]:
    phi = _number(phi, "Mallows dispersion phi")
    if not 0 < phi <= 1:
        raise ValueError(f"Mallows dispersion must lie in (0, 1], got {phi}")
    if center is None:
        center = _permutation(substream(seed, 0), m)
    else:
        try:
            center = list(center)
        except TypeError:
            raise ValueError(
                f"Mallows center must be a sequence of candidate ids, got {center!r}"
            ) from None
        if any(isinstance(c, bool) or not isinstance(c, numbers.Real) or c % 1 for c in center):
            raise ValueError(f"Mallows center entries must be integers, got {center}")
        center = tuple(int(c) for c in center)
        if tuple(sorted(center)) != tuple(range(m)):
            raise ValueError(f"Mallows center must be a permutation of 0..{m - 1}")
    cdfs = _insertion_cdfs(m, phi)
    return tuple(_mallows_vote(_voter_rng(seed, i), center, cdfs) for i in range(n))


def _generate_id(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    return (_permutation(substream(seed, 0), m),) * n


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
        picked = [universe[i] for i in rng.permutation(total)[:want].tolist()]
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
    mixed = substream(seed, 0).permutation(m).tolist()
    upper, lower = sorted(mixed[: m // 2]), sorted(mixed[m // 2 :])
    votes = []
    for i in range(n):
        rng = _voter_rng(seed, i)
        votes.append(tuple(rng.permutation(upper).tolist() + rng.permutation(lower).tolist()))
    return tuple(votes)


def _generate_an(seed: int, m: int, n: int) -> tuple[PreferenceOrder, ...]:
    forward = _permutation(substream(seed, 0), m)
    first_half = (n + 1) // 2
    return (forward,) * first_half + (forward[::-1],) * (n - first_half)


# Every culture: its generator and the parameters that generator takes as
# keywords, in the order of ``KINDS``. Each generator is called as
# ``generator(seed, m, n, **params)`` and fills in its own defaults.
_CULTURES = {
    "IC": (_generate_ic, ()),
    "Euclidean2D": (_generate_euclidean, ()),
    "Urn": (_generate_urn, ("alpha",)),
    "Mallows": (_generate_mallows, ("phi", "center")),
    "ID": (_generate_id, ()),
    "UN": (_generate_un, ()),
    "ST": (_generate_st, ()),
    "AN": (_generate_an, ()),
}

KINDS = tuple(_CULTURES)

# Lookup keys for ``canonical_kind``: each kind's lowercased name, plus aliases.
_KIND_ALIASES = {kind.lower(): kind for kind in KINDS} | {
    "impartial": "IC",
    "euclidean": "Euclidean2D",
    "2d": "Euclidean2D",
    "identity": "ID",
    "uniformity": "UN",
    "stratification": "ST",
    "antagonism": "AN",
}


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
    generator, _ = _CULTURES[spec.kind]
    return Election(m=m, voters=generator(spec.seed, m, n, **spec.params), k=k)
