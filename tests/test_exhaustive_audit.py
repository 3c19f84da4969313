"""The cost audit's whole sampled domain, checked in closed form.

The samplers draw from a finite domain. Prefix pairs have a head and a tail
of 1 to 3 classes of 1 to 8 candidates each: 584 * 584 pairs. Multiple pairs
have 1 to 5 classes, at most 24 candidates beyond the class count, and a
factor of 2 to 8: 142505 compositions times 7 factors. Variance pairs have 2
to 6 classes and at most 24 candidates beyond the class count: 736255
compositions, compared within each (size, class count). Every verdict of
this enumeration equals ``audit_grid``'s, and every failing cell is a stored
counterexample, so no registry verdict depends on which pairs are sampled.
"""

import itertools

import numpy as np

from queryvote import costs
from queryvote.costs import ALL_AXIOMS, COST_FUNCTIONS, Axiom, audit_grid


def compositions(parts: int) -> np.ndarray:
    """Every composition of ``parts`` to ``parts + 24`` into ``parts``
    positive ints, a row each, built one class at a time. Rows are stored
    column-major here and below, so a sum along a row adds whole columns,
    about twice as fast as over rows of at most 6 entries."""
    rows = np.arange(1, 26)[:, None]
    for more in range(2, parts + 1):
        # A row of more - 1 classes leaves room for a last class of 1 up to this.
        room = more + 24 - rows.sum(axis=1)
        starts = np.repeat(np.cumsum(room) - room, room)
        rows = np.repeat(rows, room, axis=0)
        rows = np.column_stack([rows, 1 + np.arange(len(rows)) - starts])
    return np.asfortranarray(rows)


def priced(fn, classes):
    """The closed-form costs of the queries with these class rows."""
    return costs._closed_costs(fn, classes.sum(axis=1), classes, np.count_nonzero(classes, axis=1))


def prefix_pairs():
    """The first and second class rows of every prefix pair, a block for
    each head and tail length."""
    sequences = [np.array(list(itertools.product(range(1, 9), repeat=n))) for n in (1, 2, 3)]
    for head, tail in itertools.product(sequences, repeat=2):
        first = np.repeat(head, len(tail), axis=0)
        second = np.column_stack([first, np.tile(tail, (len(head), 1))])
        yield np.asfortranarray(first), np.asfortranarray(second)


def prefix_holds(fn, blocks) -> bool:
    return all(costs._below(priced(fn, first), priced(fn, second)).all() for first, second in blocks)


def multiple_holds(fn, blocks) -> bool:
    for classes in blocks:
        cost = priced(fn, classes)
        if any(costs._below(priced(fn, factor * classes), cost, factor).any() for factor in range(2, 9)):
            return False
    return True


def variance_levels(classes):
    """The class rows sorted by size, then by sum of squares, with where
    each level of one size and sum of squares starts, and where the levels
    of each size start, then the end."""
    size, spread = classes.sum(axis=1), (classes * classes).sum(axis=1)
    # A sum of squares is at most size**2 <= 900, so one int key sorts both.
    order = np.argsort(1000 * size + spread)
    size, spread = size[order], spread[order]
    level = np.flatnonzero((np.diff(size, prepend=-1) != 0) | (np.diff(spread, prepend=-1) != 0))
    return np.asfortranarray(classes[order]), level, np.flatnonzero(np.diff(size[level], prepend=-1, append=-1))


def variance_holds(fn, blocks) -> bool:
    """Whether, at each size and class count, every composition costs
    strictly less than each of smaller sum of squares (smaller variance).

    Sorted by sum of squares, the compositions of one sum form a level; the
    cost function holds when each level's cheapest costs more than the
    dearest of every higher level. Exact costs of one size and class count
    share a denominator, so their numerators compare."""
    for classes, level, groups in blocks:
        cost = priced(fn, classes)
        if isinstance(cost, tuple):
            numerator, denominator = cost
            rows = np.append(level, len(classes))[groups]
            assert (denominator == np.repeat(denominator[rows[:-1]], np.diff(rows))).all()
            cost = numerator
        cheapest, dearest = np.minimum.reduceat(cost, level), np.maximum.reduceat(cost, level)
        for start, end in zip(groups, groups[1:]):
            higher = np.maximum.accumulate(dearest[start + 1 : end][::-1])[::-1]
            if not costs._below(higher, cheapest[start : end - 1]).all():
                return False
    return True


def domain(axiom):
    """The blocks of ``axiom``'s sampled domain that its check reads."""
    if axiom is Axiom.PREFIX_MONOTONICITY:
        return list(prefix_pairs())
    if axiom is Axiom.MULTIPLE_MONOTONICITY:
        return [compositions(parts) for parts in range(1, 6)]
    return [variance_levels(compositions(parts)) for parts in range(2, 7)]


HOLDS = {
    Axiom.PREFIX_MONOTONICITY: prefix_holds,
    Axiom.MULTIPLE_MONOTONICITY: multiple_holds,
    Axiom.VARIANCE_MONOTONICITY: variance_holds,
}


def test_compositions_enumerate_every_sampled_size():
    assert [len(compositions(parts)) for parts in range(1, 7)] == [25, 325, 2925, 20475, 118755, 593775]
    rows = compositions(3)
    assert (rows >= 1).all() and set(rows.sum(axis=1).tolist()) == set(range(3, 28))
    assert len({tuple(row) for row in rows.tolist()}) == len(rows)


def test_every_verdict_equals_the_exhaustive_check():
    """The 15 verdicts of the whole domain equal ``audit_grid``'s, and the
    cells that fail are exactly those of the stored counterexamples."""
    exhaustive = {}
    for axiom in ALL_AXIOMS:
        blocks = domain(axiom)
        for name, fn in COST_FUNCTIONS.items():
            exhaustive[(name, axiom)] = HOLDS[axiom](fn, blocks)
    grid = audit_grid(trials=300, seed=0)
    assert exhaustive == {cell: verdict.holds for cell, verdict in grid.items()}
    failing = {cell for cell, holds in exhaustive.items() if not holds}
    assert failing == {(name, Axiom.VARIANCE_MONOTONICITY) for name in costs.VARIANCE_COUNTEREXAMPLES}
