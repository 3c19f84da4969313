"""The sweep step for one strategy and one voter order, for the tests that
compare it with single runs.

``queryvote run`` and ``queryvote sweep`` score every strategy and voter
order of an election in two calls, ``experiments._elicit_sweep`` and then
``experiments._distances``; this makes the same two calls for one of each.
"""

from queryvote import k_borda
from queryvote.experiments import _distances, _elicit_sweep
from queryvote.strategies import _spend, _voter_order


def sweep_step(election, kind, policy, cost, budgets, voter_order=None) -> list[tuple]:
    """``(budget, distance, spent)`` per entry of ``budgets``, in grid order:
    the budget as the budget rule reads it, the Hamming distance from the
    election's k-Borda committee, and the spend in the prices' type, which
    ``run_elicitation`` gives under that budget."""
    sweep = _elicit_sweep([(kind, policy)], cost, election.m, election.n, budgets)
    order = _voter_order(election.n, voter_order)
    distances = _distances(sweep, election, order[None, None], k_borda(election))[0, 0].tolist()
    spent = [_spend(sweep.scales[0], units) for units in sweep.units]
    return list(zip(sweep.budgets, distances, spent))
