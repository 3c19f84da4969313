"""Statistical election cultures.

Eight seeded vote-generation models: impartial culture, 2D Euclidean, urn,
Mallows, and the four reference cultures spanning agreement and conflict
(identity, uniformity, stratification, antagonism).

Each culture is declared once, in ``_CULTURES``: its generator and the names
of the keyword parameters it takes. ``KINDS`` and the parameter check of
:class:`CultureSpec` derive from that table, and each generator holds its
own parameter defaults. A kind name is read by :func:`~queryvote.core._named`
from ``_KIND_NAMES``: the kinds, and aliases such as ``impartial``.

Generation is a pure function of ``(spec, m, n, k)``. Voters that are
statistically independent draw from per-voter substreams, keyed
``(seed, 1, voter)``, so an election can be filled in any order or in
parallel and come out identical; shared structure (candidate points,
reference orders, urn draws) uses the stream keyed ``(seed, 0)``. The
per-voter streams of an election are seeded in one pass by
:func:`~queryvote.rng._streams`, each bit-identical to its
``substream(seed, 1, voter)``.

Every generator returns its votes as one n x m int array, which
:class:`~queryvote.core.Election` reads as it is: IC and ST shuffle each
voter's row of one preallocated array in place (``permutation(m)`` is
``arange(m)`` shuffled, so the draws are the same), Urn stacks its drawn
permutations, Mallows decodes its insertion positions, ID, UN and AN
repeat their few orders, and Euclidean2D fills one n x 2 array of voter
points in place and ranks every voter with one stable sort of the n x m
squared distances.

Mallows votes come from the repeated insertion model (Doignon et al., 2004;
Lu & Boutilier, 2014) with one batch of uniforms per voter, and are
byte-identical to calling ``rng.choice(i, p=...)`` once per insertion:

- for one draw, ``choice`` takes exactly one ``random()`` double, so one
  ``rng.random(m - 1)`` call yields the same doubles in the same order;
- each insertion cdf is built once per ``(m, phi)`` with the arithmetic
  ``choice`` uses (``p.cumsum()``, then divided by its last entry);
- ``choice`` returns ``cdf.searchsorted(u, side="right")``, which is run
  once per insertion step over every voter's double for that step;
- the positions are decoded for every voter at once: one m x n array holds
  each center candidate's place in each vote so far, a row per candidate so
  that a step reads contiguous rows, in the smallest int dtype that holds
  m; inserting at p moves every place at or after p down by one, and one
  ``put_along_axis`` of the center by the final places gives the votes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .core import (
    Election, PreferenceOrder, _count, _id_table, _is_int_type, _is_real_type, _named, _whole
)
from .rng import _streams, substream

DEFAULT_URN_ALPHA = 0.5  # copies added per draw, as a multiple of m!
DEFAULT_MALLOWS_PHI = 0.8

# Below this many permutations, uniformity elections enumerate the full
# permutation set; above it, distinct orders are rejection-sampled.
_ENUMERATION_LIMIT = 50_000


@dataclass(frozen=True)
class CultureSpec:
    """A culture kind, its parameters, and the seed that fixes the election.

    A frozen value, so it hashes: ``params`` is a read-only copy, left out of the hash.
    """

    kind: str
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", _named(_KIND_NAMES, self.kind, "culture kind")[1])
        object.__setattr__(self, "seed", _whole("seed", self.seed))
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must be a mapping, got {self.params!r}")
        unknown = sorted(set(self.params) - set(_CULTURES[self.kind][1]), key=str)
        if unknown:
            raise ValueError(f"{self.kind} culture does not take parameters {unknown}")
        params = {key: _frozen(value) for key, value in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))

    def __reduce__(self):
        # A mappingproxy does not pickle, and a process pool pickles specs.
        return CultureSpec, (self.kind, self.seed, dict(self.params))

    def with_seed(self, seed: int) -> "CultureSpec":
        return replace(self, seed=seed)

    def label(self) -> str:
        """Stable display name, e.g. ``Mallows[phi=0.2]``."""
        shown = {k: v for k, v in sorted(self.params.items()) if k != "center"}
        if not shown:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in shown.items())
        return f"{self.kind}[{inner}]"


def _frozen(value):
    """A ``params`` value with every iterable in it other than a str, bytes or
    mapping read as a tuple, an ndarray through ``tolist()``; a 0-d array is
    kept as it is."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value.tolist()
    if isinstance(value, (str, bytes, Mapping, np.ndarray)) or not isinstance(value, Iterable):
        return value
    return tuple(map(_frozen, value))


def _permutation(rng: np.random.Generator, m: int) -> PreferenceOrder:
    return tuple(rng.permutation(m).tolist())


def _rank_by_distance(points, candidate_points) -> np.ndarray:
    """Row i: the candidates sorted by increasing distance from ``points[i]``.

    Exact distance ties go to the lower candidate id: a stable sort of the
    squared distances is exactly the ``(squared[c], c)`` order.
    """
    pts = np.asarray(candidate_points, dtype=float)
    here = np.asarray(points, dtype=float)
    squared = (pts[:, 0] - here[:, :1]) ** 2 + (pts[:, 1] - here[:, 1:]) ** 2
    return np.argsort(squared, axis=1, kind="stable")


def _number(value, name: str) -> float:
    """A culture parameter as a float, if its type passes
    :func:`~queryvote.core._is_real_type`; anything else is an error naming it."""
    if _is_real_type(type(value)):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _generate_ic(seed: int, m: int, n: int) -> np.ndarray:
    votes = np.empty((n, m), dtype=np.intp)
    votes[:] = np.arange(m)
    for row, rng in zip(votes, _streams(seed, (1,), (n,))):
        rng.shuffle(row)
    return votes


def _generate_euclidean(seed: int, m: int, n: int) -> np.ndarray:
    candidate_points = substream(seed, 0).random((m, 2))
    points = np.empty((n, 2))
    for row, rng in zip(points, _streams(seed, (1,), (n,))):
        rng.random(out=row)
    return _rank_by_distance(points, candidate_points)


def _generate_urn(seed: int, m: int, n: int, alpha: float = DEFAULT_URN_ALPHA) -> np.ndarray:
    """Urn sampling: each drawn order returns with ``alpha * m!`` extra copies.

    With probability ``t*alpha / (1 + t*alpha)`` the t-th voter copies a
    uniformly chosen earlier vote, otherwise they draw a fresh uniform order.
    Draws depend on earlier draws, so a single sequential stream is used.
    """
    alpha = _number(alpha, "urn contagion alpha")
    if not alpha >= 0:  # also rejects NaN, which would give plain IC votes
        raise ValueError(f"urn contagion must be non-negative, got {alpha}")
    rng = substream(seed, 0)
    votes: list[np.ndarray] = []
    for t in range(n):
        if t > 0 and rng.random() * (1.0 + t * alpha) >= 1.0:
            votes.append(votes[int(rng.integers(t))])
        else:
            votes.append(rng.permutation(m))
    return np.stack(votes)


@lru_cache(maxsize=16)
def _insertion_cdfs(m: int, phi: float) -> tuple[np.ndarray, ...]:
    """The cdf of every insertion step, as ``Generator.choice`` builds it.

    Entry ``i - 2`` is the cdf for inserting the i-th center candidate into
    a vote of ``i - 1``: the weights ``phi**(i-1), ..., phi, 1`` normalised,
    summed and renormalised with the same numpy calls ``choice(i, p=...)``
    makes. Cached per ``(m, phi)``, so the arrays are read-only.
    """
    cdfs = []
    for i in range(2, m + 1):
        weights = phi ** np.arange(i - 1, -1, -1, dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        cdfs.append(cdf)
    return tuple(cdfs)


def _generate_mallows(
    seed: int, m: int, n: int, phi: float = DEFAULT_MALLOWS_PHI, center=None
) -> np.ndarray:
    """Mallows votes around ``center`` (one uniform order by default), by
    repeated insertion, with every voter's insertion positions decoded at
    once into places and the votes built by one ``put_along_axis``."""
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
        if not all(map(_is_int_type, set(map(type, center)))):
            raise ValueError(f"Mallows center entries must be integers, got {center}")
        table, bad = _id_table([center], m)
        if bad is not None:
            raise ValueError(f"Mallows center must be a permutation of 0..{m - 1}")
        center = table[0]
    # One batch of m - 1 uniforms per voter; column i - 1 places center
    # candidate i of every voter at once.
    draws = np.empty((n, m - 1))
    for row, rng in zip(draws, _streams(seed, (1,), (n,))):
        rng.random(out=row)
    # place[j, v]: the place of center candidate j in voter v's vote so far.
    # Inserting candidate i at place[i] moves every candidate placed there
    # or later one down; only later steps move candidate i.
    place = np.zeros((m, n), dtype=np.min_scalar_type(m))
    for i, cdf in enumerate(_insertion_cdfs(m, phi), 1):
        place[i] = cdf.searchsorted(draws[:, i - 1], side="right")
        placed = place[:i]
        placed += placed >= place[i]
    votes = np.empty((n, m), dtype=np.intp)
    np.put_along_axis(votes, place.T, np.array(center)[None], axis=1)
    return votes


def _generate_id(seed: int, m: int, n: int) -> np.ndarray:
    return np.tile(substream(seed, 0).permutation(m), (n, 1))


def _generate_un(seed: int, m: int, n: int) -> np.ndarray:
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
    return np.array(picked)[np.arange(n) % want]


def _generate_st(seed: int, m: int, n: int) -> np.ndarray:
    if m % 2:
        raise ValueError(f"stratification needs an even candidate count, got m={m}")
    mixed = substream(seed, 0).permutation(m).tolist()
    half = m // 2
    votes = np.empty((n, m), dtype=np.intp)
    votes[:, :half], votes[:, half:] = sorted(mixed[:half]), sorted(mixed[half:])
    for row, rng in zip(votes, _streams(seed, (1,), (n,))):
        rng.shuffle(row[:half])
        rng.shuffle(row[half:])
    return votes


def _generate_an(seed: int, m: int, n: int) -> np.ndarray:
    forward = substream(seed, 0).permutation(m)
    first_half = (n + 1) // 2
    return np.stack([forward] * first_half + [forward[::-1]] * (n - first_half))


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

# The names a kind is read by, each with its kind: the kind itself, and aliases.
_KIND_NAMES = {kind: kind for kind in KINDS} | {
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
    if not isinstance(spec, CultureSpec):
        raise ValueError(f"{spec!r} is not a CultureSpec")
    m, n = _count("m", m), _count("n", n)
    generator, _ = _CULTURES[spec.kind]
    return Election(m=m, voters=generator(spec.seed, m, n, **spec.params), k=k)
