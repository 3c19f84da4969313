"""Plain references for the cost audit's draws, for the tests that check them.

:class:`HalfDraws` makes numpy's ``Generator.integers(low, high)`` and
``Generator.choice(pop, size, replace=False)`` one call at a time from a
sequence of 32-bit draws: Lemire's multiply and reject, Floyd's algorithm and
its shuffle, as numpy makes them. The reference samplers draw the audit's
query pairs through either a ``HalfDraws`` or a numpy ``Generator`` itself,
so a sampler can be checked on crafted halves as well as on real streams.
"""

from __future__ import annotations

MASK32 = 2**32 - 1


class HalfDraws:
    """numpy's draws from the 32-bit draws ``halves``, taken in order.

    ``log`` holds ``(kind, span)`` for each half taken, a rejected one
    included, where ``kind`` is ``"integers"``, ``"floyd"`` or ``"shuffle"``;
    ``rejected`` holds the positions of the halves that Lemire's method
    rejected. Anything numpy draws another way is refused before any draw: a
    range of ``2**32`` or more values, and a ``choice`` that numpy makes by
    shuffling the population's tail.
    """

    def __init__(self, halves):
        self._halves = iter(halves)
        self.log: list[tuple[str, int]] = []
        self.rejected: list[int] = []

    def _bounded(self, span: int, kind: str) -> int:
        threshold = 2**32 % span
        while True:
            product = int(next(self._halves)) * span
            self.log.append((kind, span))
            if product & MASK32 >= threshold:
                return product >> 32
            self.rejected.append(len(self.log) - 1)

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if not 1 <= span < 2**32:
            raise ValueError(f"draws copy ranges of 1 to 2**32 - 1 values, got [{low}, {high})")
        return low if span == 1 else low + self._bounded(span, "integers")

    def choice(self, pop: int, size: int, replace: bool = False) -> list[int]:
        if replace or not 0 <= size <= pop < 2**32 or (pop > 10000 and size > pop // 50):
            raise ValueError(f"draws copy Floyd's choice only, got {size} of {pop}")
        picks: list[int] = []
        for top in range(pop - size, pop):
            pick = self._bounded(top + 1, "floyd") if top else 0
            picks.append(top if pick in picks else pick)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i + 1, "shuffle")
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def half_for(value: int, span: int) -> int:
    """A 32-bit draw that Lemire's method maps to ``value`` of ``range(span)``
    and accepts: the middle of the value's share of the draws."""
    return ((2 * value + 1) << 31) // span


def edge_halves(span: int) -> tuple[int, int]:
    """The draws whose low product word is the last that Lemire's method
    rejects for ``span`` and the first that it accepts. ``span`` is not a
    power of two, so some draws are rejected."""
    shift = (span & -span).bit_length() - 1
    odd, modulus = span >> shift, 2 ** (32 - shift)
    threshold = 2**32 % span

    def with_low(low: int) -> int:
        # half * span = low (mod 2**32); low is a multiple of 2**shift.
        return (low >> shift) * pow(odd, -1, modulus) % modulus

    return with_low(threshold - (1 << shift)), with_low(threshold)


def composition(rng, total: int, parts: int) -> list[int]:
    if parts == 1:
        return [total]
    cuts = sorted(int(cut) + 1 for cut in rng.choice(total - 1, parts - 1, replace=False))
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def prefix_pair(rng):
    head = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
    tail = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
    return (sum(head), head), (sum(head) + sum(tail), head + tail)


def multiple_pair(rng):
    parts = int(rng.integers(1, 6))
    size = int(rng.integers(parts, parts + 25))
    classes = composition(rng, size, parts)
    factor = int(rng.integers(2, 9))
    return (size, classes), (factor * size, [factor * x for x in classes])


def variance_attempt(rng):
    """One attempt: a class count, a size and two compositions, or ``None``
    when the two have equal variance."""
    parts = int(rng.integers(2, 7))
    size = int(rng.integers(parts, parts + 25))
    first, second = composition(rng, size, parts), composition(rng, size, parts)
    spread_first = sum((parts * x - size) ** 2 for x in first)
    spread_second = sum((parts * x - size) ** 2 for x in second)
    if spread_first == spread_second:
        return None
    if spread_first < spread_second:
        first, second = second, first
    return (size, first), (size, second)


def variance_pair(rng):
    for _ in range(64):
        pair = variance_attempt(rng)
        if pair is not None:
            return pair
    raise RuntimeError("could not sample bucket vectors with distinct variance")
