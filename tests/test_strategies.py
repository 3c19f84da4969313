import hashlib
import math
import pickle
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction as F
from functools import cache
from itertools import accumulate, chain, pairwise, starmap
from operator import itemgetter

import numpy as np
import pytest

from queryvote import (
    ALL_STRATEGIES,
    COST_FUNCTIONS,
    UNLIMITED,
    BudgetPolicy,
    CultureSpec,
    Election,
    QuestionType,
    RefinementQuery,
    answer_query,
    bucket_sizes,
    generate,
    hamming,
    k_borda,
    make_question,
    run_elicitation,
    select_top_k,
    strategy_label,
)
from queryvote.cultures import KINDS
from queryvote.experiments import full_resolution_cost
from queryvote.queries import OrderedPartition
from queryvote.rng import substream
from queryvote.scoring import _share_table, borda_vector, partial_scores, query_based_committee
from queryvote.strategies import (
    _elicit,
    _equal,
    _levels,
    _schedule_of,
    _singletons,
    _units_cap,
    parse_strategy,
)

from sweep_step import sweep_step

SPLIT, EQ, FCFS = QuestionType.SPLIT, BudgetPolicy.EQUAL, BudgetPolicy.FCFS


@pytest.fixture
def worked_election():
    return Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)


def test_strategy_labels_round_trip():
    labels = [strategy_label(k, p) for k, p in ALL_STRATEGIES]
    assert labels == ["N-EQ", "N-FCFS", "L-EQ", "L-FCFS", "NL-EQ", "NL-FCFS", "S-EQ", "S-FCFS"]
    for label, pair in zip(labels, ALL_STRATEGIES):
        assert parse_strategy(label) == pair
    with pytest.raises(ValueError):
        parse_strategy("X-EQ")

    # A question type or policy is also taken by its code, at every m and every entry.
    for m in (1, 3):
        e = Election(m=m, voters=(tuple(range(m)),), k=1)
        run = run_elicitation(e, "S", "EQ", "variance_aware", UNLIMITED)
        assert run.question is SPLIT and run.policy is EQ
        assert run == run_elicitation(e, SPLIT, EQ, "variance_aware", UNLIMITED)
        assert full_resolution_cost(e, "S", "variance_aware") == float(run.spent)
        swept = sweep_step(e, "S", "FCFS", "variance_aware", [UNLIMITED], [0])
        assert [distance for _, distance, _ in swept] == [0]
        calls = [
            lambda: run_elicitation(e, "bogus", EQ, "variance_aware", UNLIMITED),
            lambda: full_resolution_cost(e, "bogus", "variance_aware"),
            lambda: sweep_step(e, "bogus", EQ, "variance_aware", [0], [0]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="bogus"):
                call()


def test_init_state_one_class_per_voter(worked_election):
    nothing = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 0)
    assert nothing.profile == (((0, 1, 2, 3),), ((0, 1, 2, 3),))
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 16)
    asked = [(entry.voter, entry.query.subset) for entry in run.log]
    assert asked == [(0, (0, 1, 2, 3)), (1, (0, 1, 2, 3))]


def test_init_state_single_candidate():
    e = Election(m=1, voters=((0,),), k=1)
    for policy in BudgetPolicy:
        run = run_elicitation(e, SPLIT, policy, "variance_aware", UNLIMITED)
        assert run.profile == (((0,),),)
        assert run.log == () and run.spent == 0  # nothing to ask, even with no cap


def test_next_question_fresh_split(worked_election):
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 8)
    (entry,) = run.log
    assert entry.voter == 0 and entry.query.subset == (0, 1, 2, 3)
    assert entry.query.buckets == (F(1, 2), F(1, 2))
    assert entry.cost == 8 and run.spent == 8


def test_next_question_exhausted():
    e = Election(m=2, voters=((0, 1),), k=1)
    run = run_elicitation(e, SPLIT, EQ, "variance_aware", UNLIMITED)
    (entry,) = run.log  # one answer resolves the voter, even with no cap
    assert entry.query == make_question(SPLIT, (0, 1))
    partition = apply_answer([(0, 1)], entry.query, ((0,), (1,)))
    assert run.profile == (tuple(partition),)


def test_next_question_after_peel():
    e = Election(m=4, voters=((0, 1, 2, 3),), k=2)
    full = run_elicitation(e, QuestionType.NEXT, EQ, "variance_aware", UNLIMITED)
    run = run_elicitation(e, QuestionType.NEXT, EQ, "variance_aware", full.log[0].cost)
    assert run.profile[0] == ((0,), (1, 2, 3))
    q = full.log[1].query
    assert q.subset == (1, 2, 3)
    assert q.buckets == (F(1, 3), F(2, 3))


def test_engine_limit_refuses_unaffordable_questions(worked_election):
    for bad in (-1, math.nan):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            run_elicitation(worked_election, SPLIT, EQ, "variance_aware", bad)
    # 8 for voter 0; another 8 for voter 1 would spend 16, another 4 for voter 0 12.
    tight = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 10.0)
    assert tight.spent == 8 and tight.budget == 10.0
    assert [entry.voter for entry in tight.log] == [0]
    assert tight.profile[1] == ((0, 1, 2, 3),)  # a refused voter learns nothing
    # Voter 1 fits now; another 4 for voter 0 would spend 20.
    wider = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 16)
    assert wider.spent == 16
    assert [entry.voter for entry in wider.log] == [0, 1]
    assert wider.profile[0] == tight.profile[0]  # voter 0 is where it was


def test_apply_answer_updates_partition_and_queue(worked_election):
    def first_voter_after(budget):
        return run_elicitation(worked_election, SPLIT, FCFS, "variance_aware", budget).profile[0]

    partition = [(0, 1, 2, 3)]
    apply_answer(partition, make_question(SPLIT, (0, 1, 2, 3)), ((0, 1), (2, 3)))
    assert partition == [(0, 1), (2, 3)]
    assert first_voter_after(8) == tuple(partition)
    apply_answer(partition, make_question(SPLIT, (0, 1)), ((0,), (1,)))
    assert partition == [(0,), (1,), (2, 3)]
    assert first_voter_after(12) == tuple(partition)
    full = run_elicitation(worked_election, SPLIT, FCFS, "variance_aware", UNLIMITED)
    asked = [entry.query.subset for entry in full.log if entry.voter == 0]
    # The queue is best first, and singletons never queue.
    assert asked == [(0, 1, 2, 3), (0, 1), (2, 3)]


def test_apply_answer_rejects_inconsistent(worked_election):
    partition = [(0, 1, 2, 3)]
    q = make_question(SPLIT, (0, 1, 2, 3))
    with pytest.raises(ProtocolError):
        apply_answer(partition, q, ((0, 1), (2,)))  # loses a candidate
    other = make_question(SPLIT, (0, 1))
    with pytest.raises(ProtocolError):
        apply_answer(partition, other, ((0,), (1,)))  # not a current class
    assert partition == [(0, 1, 2, 3)]


def test_apply_answer_rejects_class_sizes_off_the_buckets(worked_election):
    q = make_question(SPLIT, (0, 1, 2, 3))  # halves: two classes of 2
    for answer in (((0,), (1,), (2,), (3,)), ((0,), (1, 2, 3)), ((0, 1), (), (2, 3))):
        partition = [(0, 1, 2, 3)]
        with pytest.raises(ProtocolError):
            apply_answer(partition, q, answer)
        assert partition == [(0, 1, 2, 3)]


def test_worked_trace_split_equally(worked_election):
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24)
    assert run.spent == 24
    assert run.profile[0] == ((0,), (1,), (2, 3))
    assert run.profile[1] == ((1,), (0,), (2, 3))
    assert [entry.voter for entry in run.log] == [0, 1, 0, 1]
    assert [entry.cost for entry in run.log] == [8, 8, 4, 4]


def test_zero_budget_learns_nothing(worked_election):
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 0)
    assert run.spent == 0
    assert run.log == ()
    assert all(partition == ((0, 1, 2, 3),) for partition in run.profile)


@pytest.mark.parametrize("kind", list(QuestionType))
@pytest.mark.parametrize("policy", list(BudgetPolicy))
def test_unlimited_budget_recovers_secrets(kind, policy):
    e = generate(CultureSpec("IC", seed=14), 9, 4, 3)
    run = run_elicitation(e, kind, policy, "variance_aware", UNLIMITED)
    for voter, partition in zip(e.voters, run.profile):
        flattened = tuple(cls[0] for cls in partition)
        assert all(len(cls) == 1 for cls in partition)
        assert flattened == voter


def test_budget_safety_fuzzed():
    rng = substream(51)
    for _ in range(60):
        e = generate(CultureSpec("IC", seed=int(rng.integers(2**32))), 6, 4, 2)
        kind, policy = ALL_STRATEGIES[int(rng.integers(8))]
        budget = float(rng.uniform(0, 120))
        run = run_elicitation(e, kind, policy, "variance_aware", budget, record_log=False)
        assert run.spent <= budget


def test_fcfs_exhausts_first_voter_before_second():
    e = generate(CultureSpec("IC", seed=15), 6, 3, 2)
    run = run_elicitation(e, SPLIT, FCFS, "variance_aware", UNLIMITED)
    voters_in_order = [entry.voter for entry in run.log]
    assert voters_in_order == sorted(voters_in_order)


def test_fcfs_stops_at_first_unaffordable_query():
    e = generate(CultureSpec("IC", seed=16), 6, 3, 2)
    # budget covers voter 0's first split (12) but not the follow-up (35/6)
    run = run_elicitation(e, SPLIT, FCFS, "variance_aware", 14)
    assert run.spent == 12
    assert [entry.voter for entry in run.log] == [0]
    assert run.profile[1] == ((0, 1, 2, 3, 4, 5),)


def test_equal_interleaves_one_query_per_visit():
    e = generate(CultureSpec("IC", seed=17), 8, 3, 2)
    run = run_elicitation(e, SPLIT, EQ, "variance_aware", UNLIMITED)
    first_round = [entry.voter for entry in run.log[:3]]
    assert first_round == [0, 1, 2]


def test_equal_skips_unaffordable_voters():
    # budget covers the first split (16) plus one sub-split (8): the second
    # voter's first question no longer fits, but voter 0 keeps refining
    e = generate(CultureSpec("IC", seed=18), 8, 2, 2)
    run = run_elicitation(e, SPLIT, EQ, "variance_aware", 24)
    assert run.spent == 24
    assert [entry.voter for entry in run.log] == [0, 0]


def test_a_larger_equal_budget_can_leave_a_voter_knowing_less():
    """EQ is not monotone in the budget, by its documented rule: at 799 round
    0 asks three voters and round 1 voter 0 again; at 800 round 0 asks four
    and nothing is left for round 1."""
    e = generate(CultureSpec("IC", seed=1), 100, 250, 10)
    seen = {}
    for budget in (799, 800):
        run = run_elicitation(e, SPLIT, EQ, "variance_aware", budget, range(250), record_log=False)
        seen[budget] = [len(classes) for classes in run.profile[:5]], run.spent
    assert seen == {799: ([3, 2, 2, 1, 1], 700), 800: ([2, 2, 2, 2, 1], 800)}


def test_voter_order_is_respected(worked_election):
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=[1, 0])
    assert [entry.voter for entry in run.log] == [1, 0, 1, 0]
    for dtype in (np.int64, np.int32, np.uint8):
        order = np.array([1, 0], dtype=dtype)
        as_array = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=order)
        assert as_array == run and all(type(entry.voter) is int for entry in as_array.log)
    bad_orders = ([0, 0], [1.7, 0.2], [True, False], ["1", "0"], [-1, 0], [[1, 0]], [1, 0, 2],
                  [[1], [0]], [[1, 0], [0, 1]])
    for bad in bad_orders:
        for order in (bad, np.array(bad)):
            with pytest.raises(ValueError, match="^voter_order must be a permutation"):
                run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=order)


def test_arrays_of_other_shapes_are_no_voter_order(worked_election):
    """Only a 1-D array of length n is read as an order; an array as an id is no int."""
    for order in (np.array([[[1, 0]]]), np.array(1), [np.array([1]), np.array([0])],
                  [np.array(1), np.array(0)]):
        with pytest.raises(ValueError, match="^voter_order must be a permutation"):
            run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=order)


def test_negative_budget_rejected(worked_election):
    for budget in (-1, math.nan):
        with pytest.raises(ValueError):
            run_elicitation(worked_election, SPLIT, EQ, "variance_aware", budget)


def test_rerun_is_identical(worked_election):
    first = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24)
    second = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24)
    assert first == second


def test_class_count_is_monotone_over_log():
    e = generate(CultureSpec("IC", seed=20), 8, 3, 2)
    run = run_elicitation(e, SPLIT, EQ, "variance_aware", 150)
    counts = {v: 1 for v in range(e.n)}
    for entry in run.log:
        before = counts[entry.voter]
        counts[entry.voter] = before + len(entry.answer) - 1
        assert counts[entry.voter] >= before


def charge_for_zero(query):
    """A cost that depends on which candidates are shown, not only on how many."""
    return 100 if 0 in query.subset else len(query.subset)


def test_elicitation_rejects_a_custom_cost(worked_election):
    """A callable outside the registry may price by the candidates shown, which no schedule holds."""
    calls = [
        lambda: run_elicitation(worked_election, SPLIT, EQ, charge_for_zero, UNLIMITED),
        lambda: sweep_step(worked_election, SPLIT, FCFS, charge_for_zero, [0, 8], [0, 1]),
        lambda: full_resolution_cost(worked_election, SPLIT, charge_for_zero),
        lambda: query_based_committee(worked_election, SPLIT, EQ, charge_for_zero, 24),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="registry cost.*variance_aware.*charge_for_zero"):
            call()
    # The registry functions themselves are accepted, like their names.
    run = run_elicitation(worked_election, SPLIT, EQ, COST_FUNCTIONS["variance_aware"], 24)
    assert run.spent == 24 and run.cost_name == "variance_aware"


def budget_grid(rng, costs):
    """0, unlimited, a repeated point, random points, and exact spends on the trace of ``costs``."""
    totals, spent = [], 0
    for cost in costs:
        spent = spent + cost
        totals.append(spent)
    points = [0, 0, UNLIMITED, UNLIMITED]
    for i in rng.integers(len(totals), size=3) if totals else ():
        total = totals[int(i)]
        points += [total, float(total), math.nextafter(float(total), 0), total]
    points += [float(x) for x in rng.uniform(0, 1.2 * float(spent) + 1, size=3)]
    return sorted(points)


def test_sweep_matches_a_fresh_run_at_every_budget():
    rng = substream(52)
    for _ in range(12):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        e = Election(m=m, voters=voters, k=1)
        target = k_borda(e)
        order = [int(v) for v in rng.permutation(n)]
        for cost in COST_FUNCTIONS:
            for kind, policy in ALL_STRATEGIES:
                unlimited = run_elicitation(e, kind, policy, cost, UNLIMITED, voter_order=order)
                grid = budget_grid(rng, [entry.cost for entry in unlimited.log])
                swept = sweep_step(e, kind, policy, cost, grid, order)
                assert [budget for budget, _, _ in swept] == grid
                for budget, distance, spent in swept:
                    committee, fresh = query_based_committee(
                        e, kind, policy, cost, budget, voter_order=order, record_log=False
                    )
                    assert distance == hamming(committee, target)
                    assert spent == fresh.spent and type(spent) is type(fresh.spent)
                    assert spent <= budget


def test_sweep_rejects_bad_grids(worked_election):
    target = k_borda(worked_election)
    for bad in ([-1, 8], [8, math.nan]):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            sweep_step(worked_election, SPLIT, EQ, "variance_aware", bad, [0, 1])
    # An unsorted grid with a repeated budget is no bad grid: each budget is its own run.
    grid = [24, 8, 24, 0, 8.5]
    swept = sweep_step(worked_election, SPLIT, EQ, "variance_aware", grid, [1, 0])
    for budget, (swept_budget, distance, spent) in zip(grid, swept, strict=True):
        committee, run = query_based_committee(
            worked_election, SPLIT, EQ, "variance_aware", budget, voter_order=[1, 0]
        )
        assert swept_budget == budget and spent == run.spent
        assert distance == hamming(committee, target)


# SHA-256 of the snapshots below, pinned so that any change in what a run
# learns or spends at any budget shows.
SNAPSHOT_DIGEST = "f615031eed13867349fd8543f9093d7fedf6931440ea64e4caaecfa024e78242"


def test_sweep_snapshots_match_the_pinned_digest():
    """Every run over fixed random cases and budget grids hashes to a pinned value.

    The cases cover m = 1..9, the registry costs plus a subset-dependent
    callable, all eight strategies, and grids with 0, repeated points and
    ``UNLIMITED``. Each unlimited run's answers must be the truthful ones, and
    its log, folded through :func:`apply_answer`, must give its profile.
    Elicitation takes registry costs only, so the callable's snapshots come
    from :func:`reference_run`.
    """
    rng = substream(53)
    digest = hashlib.sha256()
    for m in range(1, 10):
        for _ in range(2):
            n = int(rng.integers(1, 5))
            voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
            e = Election(m=m, voters=voters, k=1)
            order = [int(v) for v in rng.permutation(n)]
            for cost in [*COST_FUNCTIONS, charge_for_zero]:
                for kind, policy in ALL_STRATEGIES:
                    if cost is charge_for_zero:
                        charged = []
                        reference_run(e, kind, policy, cost, UNLIMITED, order, charged)
                        grid = budget_grid(rng, charged)
                        snapshots = [
                            (budget, *reversed(reference_run(e, kind, policy, cost, budget, order)))
                            for budget in grid
                        ]
                    else:
                        run = run_elicitation(e, kind, policy, cost, UNLIMITED, voter_order=order)
                        for entry in run.log:
                            assert entry.answer == answer_query(e.voters[entry.voter], entry.query)
                        partitions = [[tuple(range(m))] for _ in range(n)]
                        for entry in run.log:
                            apply_answer(partitions[entry.voter], entry.query, entry.answer)
                        assert tuple(map(tuple, partitions)) == run.profile
                        grid = budget_grid(rng, [entry.cost for entry in run.log])
                        runs = [
                            run_elicitation(e, kind, policy, cost, budget, order, record_log=False)
                            for budget in grid
                        ]
                        snapshots = [(run.budget, run.profile, run.spent) for run in runs]
                    for budget, profile, spent in snapshots:
                        line = repr((budget, profile, spent, type(spent).__name__))
                        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNAPSHOT_DIGEST


class ProtocolError(ValueError):
    """An answer that does not match the query it responds to."""


def apply_answer(partition: list, query: RefinementQuery, answer: OrderedPartition) -> list:
    """Splice ``answer`` over the class ``query`` shows, after checking it fits the query.

    ``partition`` lists a voter's classes as sorted id tuples, best first.
    """
    subset = tuple(sorted(query.subset))
    classes = tuple(tuple(sorted(cls)) for cls in answer)
    if sorted(c for cls in classes for c in cls) != list(subset):
        raise ProtocolError(f"answer {answer} is not an ordered partition of {subset}")
    sizes = bucket_sizes(query.buckets, len(subset))
    if tuple(map(len, classes)) != sizes:
        raise ProtocolError(f"answer {answer} does not have the class sizes {sizes} of its query")
    try:
        index = partition.index(subset)
    except ValueError:
        raise ProtocolError(f"query subset {subset} is not a current class of this voter") from None
    partition[index : index + 1] = classes
    return partition


def reference_run(e, kind, policy, cost, budget, order, charged=None):
    """``(spent, profile)`` of a plain run: one question at a time, prices summed as given.

    The spend is the running sum of the cost function's own values (Fractions
    for the exact costs), and each question is tested with ``spent + price >
    budget``, which Python decides exactly for int, Fraction and float.
    ``cost`` is a registry name or any callable, priced on the subset shown;
    ``charged``, if given, gets the price of every question asked, in order.
    """
    price_of = cost if callable(cost) else COST_FUNCTIONS[cost]
    partitions = [[tuple(range(e.m))] for _ in e.voters]
    queues = [deque(partition if e.m >= 2 else ()) for partition in partitions]
    spent = 0

    def ask(v):
        nonlocal spent
        query = make_question(kind, queues[v][0])
        price = price_of(query)
        if spent + price > budget:
            return False
        answer = answer_query(e.voters[v], query)
        apply_answer(partitions[v], query, answer)
        queues[v].popleft()
        queues[v].extend(cls for cls in answer if len(cls) >= 2)
        spent = spent + price
        if charged is not None:
            charged.append(price)
        return True

    if policy is FCFS:
        for v in order:
            while queues[v] and ask(v):
                pass
            if queues[v]:
                break
    else:
        progressed = True
        while progressed:
            progressed = False
            for v in order:
                if queues[v] and ask(v):
                    progressed = True
    return spent, tuple(map(tuple, partitions))


def random_election(rng):
    """An election with 2..9 candidates and 1..5 voters, and a voter order."""
    m, n = int(rng.integers(2, 10)), int(rng.integers(1, 6))
    voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
    return Election(m=m, voters=voters, k=1), [int(v) for v in rng.permutation(n)]


def check_against_reference(e, kind, policy, cost, grid, order):
    """Single runs and the sweep's distances over ``grid`` equal the reference run's, in budget."""
    target = k_borda(e)
    swept = sweep_step(e, kind, policy, cost, grid, order)
    for budget, (swept_budget, distance, spent) in zip(grid, swept, strict=True):
        run = run_elicitation(e, kind, policy, cost, budget, voter_order=order, record_log=False)
        reference = reference_run(e, kind, policy, cost, budget, order)
        assert swept_budget == budget
        assert (spent, run.profile) == (run.spent, run.profile) == reference
        assert type(spent) is type(run.spent) is type(reference[0])
        assert spent <= budget
        committee = select_top_k(partial_scores(reference[1], borda_vector(e.m)), e.k)
        assert distance == hamming(committee, target)


@pytest.mark.parametrize("cost", ["candidates", "last_bucket", "bucket_count", "variance_aware"])
def test_integer_cap_at_float_budgets_next_to_an_exact_spend(cost):
    """A float budget at, just under and just over ``float`` of a spend on the trace."""
    rng = substream(55)
    for _ in range(4):
        e, order = random_election(rng)
        for kind, policy in ALL_STRATEGIES:
            full = run_elicitation(e, kind, policy, cost, UNLIMITED, voter_order=order)
            spends = list(accumulate(entry.cost for entry in full.log))
            budgets = set()
            for i in rng.integers(len(spends), size=3):
                near = float(spends[int(i)])
                budgets |= {math.nextafter(near, 0), near, math.nextafter(near, math.inf)}
            check_against_reference(e, kind, policy, cost, sorted(budgets), order)


def test_spend_in_units_of_a_large_denominator_stays_exact():
    e = generate(CultureSpec("IC", seed=23), 60, 3, 5)
    assert _schedule_of(SPLIT, "variance_aware", e.m).scale > 2**64
    for kind, policy in ALL_STRATEGIES:
        full = run_elicitation(e, kind, policy, "variance_aware", UNLIMITED)
        for budget in (UNLIMITED, full.spent / 2, float(full.spent) / 3):
            run = run_elicitation(e, kind, policy, "variance_aware", budget)
            total = sum(entry.cost for entry in run.log)
            assert run.spent == total and type(run.spent) is type(total) is F
            assert run.spent <= budget


def test_units_cap_is_the_floor_of_the_exact_product():
    """``_units_cap`` against ``floor(Fraction(budget) * scale)`` on floats
    from subnormal to 1e300, ints and Fractions, at scale 1 and at the
    135-bit ``variance_aware`` scale of m=100."""
    scales = [1, _schedule_of(QuestionType.NEXT, "variance_aware", 100).scale]
    assert scales[1].bit_length() == 135
    rng = substream(2026, 40)
    floats = [0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 2.5, 1e300]
    floats += np.ldexp(rng.random(300), rng.integers(-1074, 997, 300)).tolist()
    ints = [0, 1, 7, 2**64 + 3, *rng.integers(10**9, size=50).tolist()]
    fractions = [F(1, 3), F(10**40 + 1, 3**90)]
    fractions += [F(a, b) for a, b in rng.integers(1, 2**62, (50, 2)).tolist()]
    assert all(0 <= budget <= 1e300 for budget in floats)
    for scale in scales:
        for budget in floats + ints + fractions:
            assert _units_cap(budget, scale) == math.floor(F(budget) * scale), (budget, scale)


def test_float_cap_between_two_float_spends():
    """``computational`` budgets strictly between consecutive spends of the trace."""
    rng = substream(56)
    for _ in range(4):
        e, order = random_election(rng)
        for kind, policy in ALL_STRATEGIES:
            full = run_elicitation(e, kind, policy, "computational", UNLIMITED, voter_order=order)
            spends = list(accumulate(entry.cost for entry in full.log))
            assert spends[-1] == full.spent
            budgets = set()
            for i in rng.integers(len(spends) - 1, size=3) if len(spends) > 1 else ():
                low, high = spends[int(i)], spends[int(i) + 1]
                budgets |= {math.nextafter(low, math.inf), (low + high) / 2, math.nextafter(high, 0)}
            check_against_reference(e, kind, policy, "computational", sorted(budgets), order)


@pytest.mark.parametrize("cost", list(COST_FUNCTIONS))
def test_levels_and_spend_do_not_depend_on_the_rankings(cost):
    """Permuting each voter's ranking, in the same voter order, moves no level and no spend.

    This is what lets one schedule serve every voter: the plain reference run
    learns classes of the same sizes at the same price, and
    :func:`run_elicitation` asks every voter the same number of questions.
    """
    rng = substream(58)
    for _ in range(6):
        e, order = random_election(rng)
        voters = tuple(tuple(int(c) for c in rng.permutation(e.m)) for _ in e.voters)
        shuffled = Election(m=e.m, voters=voters, k=1)
        for kind, policy in ALL_STRATEGIES:
            full = float(reference_run(e, kind, policy, cost, UNLIMITED, order)[0])
            for budget in (0, UNLIMITED, *map(float, rng.uniform(0, 1.2 * full + 1, size=3))):
                runs = [run_elicitation(x, kind, policy, cost, budget, order) for x in (e, shuffled)]
                levels = [Counter(entry.voter for entry in run.log) for run in runs]
                assert levels[0] == levels[1]
                assert runs[0].spent == runs[1].spent and type(runs[0].spent) is type(runs[1].spent)
                plain = [reference_run(x, kind, policy, cost, budget, order) for x in (e, shuffled)]
                sizes = [[tuple(map(len, classes)) for classes in profile] for _, profile in plain]
                assert sizes[0] == sizes[1] and plain[0][0] == plain[1][0]


@pytest.mark.parametrize("cost", list(COST_FUNCTIONS))
def test_desk_size_runs_and_sweeps_match_the_reference(cost):
    """20 x 20, every strategy: 0, ``UNLIMITED`` and float budgets at, under and over exact spends."""
    e = generate(CultureSpec("IC", seed=24), 20, 20, 10)
    rng = substream(59)
    order = [int(v) for v in rng.permutation(e.n)]
    for kind, policy in ALL_STRATEGIES:
        charged = []
        reference_run(e, kind, policy, cost, UNLIMITED, order, charged)
        near = float(sum(charged[: int(rng.integers(1, len(charged)))]))
        grid = [0, math.nextafter(near, 0), near, math.nextafter(near, math.inf), UNLIMITED]
        check_against_reference(e, kind, policy, cost, grid, order)


def elicited(schedule, policy, n, budget):
    """The level of each place along the voter order under ``budget``, and the spend."""
    runs, spent = _elicit(schedule, policy, n, budget)
    return _levels(runs).tolist(), spent


def reference_profile(e, kind, policy, cost, budget, order):
    """Each voter's classes at its level, each sorted on its own from the ranking."""
    schedule = _schedule_of(kind, cost, e.m)
    levels, _ = elicited(schedule, policy, e.n, budget)
    level_of = dict(zip(order, levels))
    return tuple(
        tuple(
            ranking[a:b] if b - a == 1 else tuple(sorted(ranking[a:b]))
            for a, b in pairwise(schedule.cuts[level_of[v]])
        )
        for v, ranking in enumerate(e.voters)
    )


@pytest.mark.parametrize("m, n", [(20, 20), (100, 250)])
def test_profiles_from_one_sort_match_the_per_class_sort(m, n):
    e = generate(CultureSpec("Mallows", seed=m, params={"phi": 0.8}), m, n, 5)
    order = [int(v) for v in substream(m, n).permutation(n)]
    for cost in COST_FUNCTIONS:
        for kind, policy in ALL_STRATEGIES:
            mid = full_resolution_cost(e, kind, cost) / 2
            for budget in (0, mid, UNLIMITED):
                run = run_elicitation(e, kind, policy, cost, budget, order, record_log=False)
                expected = reference_profile(e, kind, policy, cost, budget, order)
                assert run.profile == expected
                assert all(type(c) is int for partition in run.profile for cls in partition for c in cls)


@cache
def class_table(schedule):
    """``table[q, p]``: the index, best first, of place p's class after q questions."""
    places = np.arange(schedule.m)
    return np.array([np.searchsorted(cuts, places, side="right") - 1 for cuts in schedule.cuts])


def one_sort_profile(e, kind, policy, cost, budget, order):
    """Each voter's classes read off one sort of the whole election, voter by voter.

    Each class index times m, plus the candidate, sorts every voter's
    candidates by class, best first, and by id within a class; the remainder
    mod m gives the candidate back, and the cuts at the voter's level slice
    the row into its classes.
    """
    schedule = _schedule_of(kind, cost, e.m)
    levels, _ = elicited(schedule, policy, e.n, budget)
    level_of = np.empty(e.n, dtype=np.intp)
    level_of[order] = levels
    keys = class_table(schedule)[level_of] * e.m + e._rankings
    keys.sort(axis=1)
    keys %= e.m
    getters = {q: itemgetter(*starmap(slice, pairwise(schedule.cuts[q]))) for q in set(levels) if q}
    return tuple(
        getters[level](row) if level else (row,)
        for row, level in zip(map(tuple, keys.tolist()), level_of.tolist())
    )


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (7, 5), (20, 20), (100, 250)])
@pytest.mark.parametrize("culture", KINDS)
def test_profiles_by_level_and_class_match_the_one_sort(culture, m, n):
    """Every strategy and cost, at 0, one price, half, just under and at the full spend, and unlimited."""
    if culture == "ST":
        m += m % 2  # stratification needs an even candidate count
    e = generate(CultureSpec(culture, seed=m + n), m, n, 1)
    order = [int(v) for v in substream(n, m).permutation(n)]
    for cost in COST_FUNCTIONS:
        for kind, policy in ALL_STRATEGIES:
            schedule = _schedule_of(kind, cost, m)
            full = _elicit(schedule, EQ, n, UNLIMITED)[1]
            one = schedule.prices[0] if schedule.prices else 0
            for budget in (0, one, full / 2, math.nextafter(float(full), 0), full, UNLIMITED):
                run = run_elicitation(e, kind, policy, cost, budget, order, record_log=False)
                assert run.profile == one_sort_profile(e, kind, policy, cost, budget, order)
                # Voters at level 0 share one partition, which is checked once.
                partitions = {id(partition): partition for partition in run.profile}.values()
                assert set(map(type, chain.from_iterable(chain.from_iterable(partitions)))) == {int}


def test_an_elicited_profile_is_a_plain_tuple_to_its_readers():
    e = generate(CultureSpec("Urn", seed=3), 6, 9, 2)
    for kind, policy in ALL_STRATEGIES:
        for budget in (0, 40, UNLIMITED):
            run = run_elicitation(e, kind, policy, "variance_aware", budget)
            plain = tuple(run.profile)
            assert isinstance(run.profile, tuple) and type(plain) is tuple
            assert run.profile == plain and plain == run.profile
            assert hash(run.profile) == hash(plain) and repr(run.profile) == repr(plain)
            assert len(run.profile) == e.n and list(run.profile) == list(plain)
            assert hash(run) == hash(run_elicitation(e, kind, policy, "variance_aware", budget))
            copy = pickle.loads(pickle.dumps(run))
            assert copy == run and type(copy.profile) is tuple


def test_cached_schedule_tables_and_kept_profile_arrays_are_read_only():
    e = generate(CultureSpec("IC", seed=0), 5, 4, 2)
    before = run_elicitation(e, SPLIT, EQ, "computational", UNLIMITED)
    schedule = _schedule_of(SPLIT, "computational", 5)
    shares = _share_table(schedule, borda_vector(5))
    for table in (shares, _singletons(5), before.profile._levels, e._places):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
        with pytest.raises(ValueError):
            table[:] = 0
    assert run_elicitation(e, SPLIT, EQ, "computational", UNLIMITED) == before
    assert before.profile[0] == tuple((c,) for c in e.voters[0])


def equal_loop(schedule, n, cap):
    """``EQUAL`` in units, one price added per question asked."""
    counts, units, asking = [], 0, n
    for price in schedule.units:
        asked = 0
        while asked < asking and units + price <= cap:
            units += price
            asked += 1
        asking = asked
        if not asking:
            break
        counts.append(asking)
    return [sum(count > i for count in counts) for i in range(n)], units


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_exact_equal_by_one_search_matches_the_loop(m):
    """Every question type under every exact cost: the full rounds found by
    one search, then the rounds after them, give the loop's levels and units
    at caps 0, 1, one unit either side of the full cost, and random caps."""
    rng = substream(63, m)
    for cost in COST_FUNCTIONS:
        for kind in QuestionType:
            schedule = _schedule_of(kind, cost, m)
            if not schedule.exact:
                continue
            for n in (1, 2, 5, 20):
                full = n * schedule.cum[-1]
                caps = [0, 1, full - 1, full, full + 1, *map(int, rng.integers(0, full + 2, size=8))]
                for cap in filter(lambda cap: cap >= 0, caps):
                    runs, units = _equal(schedule, n, cap)
                    assert (_levels(runs).tolist(), units) == equal_loop(schedule, n, cap)


def fcfs_loop(schedule, n, cap):
    """``FCFS`` in units, one price added per question asked."""
    last = len(schedule.units)
    levels, units = [], 0
    while len(levels) < n:
        q = 0
        while q < last and units + schedule.units[q] <= cap:
            units += schedule.units[q]
            q += 1
        levels.append(q)
        if q < last:
            break
    return levels + [0] * (n - len(levels)), units


def loop_run(loop, schedule, n, budget):
    """``loop`` under ``budget``: int units against ``floor(budget * D)``, and
    the spend in the prices' type, as ``_elicit`` gives them."""
    cap = budget
    if schedule.exact and budget != UNLIMITED:
        cap = _units_cap(budget, schedule.scale or 1)
    levels, units = loop(schedule, n, cap)
    if schedule.scale is None or not units:
        return levels, units
    return levels, F(units, schedule.scale)


@pytest.mark.parametrize("m", [1, 2, 7, 20, 100])
def test_float_spend_in_closed_form_matches_the_loop(m):
    """Every registry cost at 0, one price, mid, just under and at the full cost, and unlimited."""
    loops = {EQ: equal_loop, FCFS: fcfs_loop}
    for cost in COST_FUNCTIONS:
        for n in (1, 3, 25):
            for kind, policy in ALL_STRATEGIES:
                schedule = _schedule_of(kind, cost, m)
                # One candidate is asked nothing, so no float price is charged.
                assert schedule.exact == (m == 1 or cost != "computational")
                _, full = loop_run(loops[policy], schedule, n, UNLIMITED)
                one = schedule.prices[0] if schedule.prices else 0
                for budget in (0, one, full / 2, math.nextafter(full, 0), full, UNLIMITED):
                    levels, spent = elicited(schedule, policy, n, budget)
                    expected_levels, expected_spent = loop_run(loops[policy], schedule, n, budget)
                    assert levels == expected_levels
                    assert type(spent) is type(expected_spent)
                    assert spent == expected_spent
                    assert float(spent).hex() == float(expected_spent).hex()


def fcfs_per_voter_search(schedule, n, cap):
    """``FCFS`` under float prices, one voter at a time: each voter's running
    sums from the spend so far, searched once for the cap."""
    last = len(schedule.units)
    levels, units = [], 0
    while len(levels) < n:
        sums = list(accumulate(schedule.units, initial=units))
        q = bisect_right(sums, cap) - 1
        levels.append(q)
        units = sums[q]
        if q < last:
            break
    return levels + [0] * (n - len(levels)), units


@pytest.mark.parametrize("n", [1, 250])
@pytest.mark.parametrize("m", [2, 7, 100])
def test_float_fcfs_matches_the_per_voter_search(m, n):
    """Every float cost and question type, at 0, one price, exact partial sums
    (within a voter and at voter boundaries), just under the full cost and unlimited."""
    rng = substream(60, m, n)
    for cost in COST_FUNCTIONS:
        for kind in QuestionType:
            schedule = _schedule_of(kind, cost, m)
            if schedule.exact:
                continue
            _, full = fcfs_per_voter_search(schedule, n, UNLIMITED)
            sums = list(accumulate(chain.from_iterable([schedule.units] * n)))
            boundaries = sums[len(schedule.units) - 1 :: len(schedule.units)]
            picks = [*map(float, rng.choice(sums, size=4)), *map(float, rng.choice(boundaries, size=2))]
            budgets = [0, schedule.prices[0], *picks, math.nextafter(full, 0), full, UNLIMITED]
            budgets += [math.nextafter(b, 0) for b in picks] + [F(picks[0]), int(picks[0])]
            for budget in budgets:
                levels, spent = elicited(schedule, FCFS, n, budget)
                expected_levels, expected_spent = fcfs_per_voter_search(schedule, n, budget)
                assert levels == expected_levels
                assert type(spent) is type(expected_spent)
                assert float(spent).hex() == float(expected_spent).hex()


def test_float_fcfs_does_not_rest_on_its_block_estimate():
    """A schedule that states ten times its true full cost makes the first block
    of running sums too short; the levels and spend are still the loop's."""
    real = _schedule_of(SPLIT, "computational", 9)
    stated = type("Stated", (), {"units": real.units, "exact": False, "scale": None, "cum": [real.cum[-1] * 10]})
    for n in (1, 5, 40):
        _, full = fcfs_per_voter_search(real, n, UNLIMITED)
        for budget in (0, real.cum[-1] * 3, full / 2, math.nextafter(full, 0), full, UNLIMITED):
            assert elicited(stated, FCFS, n, budget) == fcfs_per_voter_search(real, n, budget)
