import hashlib
import io
import math
import re
from collections import deque
from fractions import Fraction as F
from itertools import accumulate

import pytest

from queryvote import (
    ALL_STRATEGIES,
    COST_FUNCTIONS,
    UNLIMITED,
    BudgetPolicy,
    CultureSpec,
    Election,
    ProtocolError,
    QuestionType,
    RefinementEngine,
    answer_query,
    generate,
    make_question,
    parse_strategy,
    read_log,
    replay_log,
    run_elicitation,
    strategy_label,
    sweep_elicitation,
    write_log,
)
from queryvote.rng import substream
from queryvote.strategies import apply_answer

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


def test_init_state_one_class_per_voter(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    assert engine.profile() == (((0, 1, 2, 3),), ((0, 1, 2, 3),))
    for v in range(2):
        assert engine.next_query(v).subset == (0, 1, 2, 3)


def test_init_state_single_candidate():
    e = Election(m=1, voters=((0,),), k=1)
    engine = RefinementEngine(e, SPLIT, "variance_aware")
    assert engine.profile() == (((0,),),)
    assert engine.next_query(0) is None


def test_next_query_fresh_split(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    q = engine.next_query(0)
    assert q.subset == (0, 1, 2, 3)
    assert q.buckets == (F(1, 2), F(1, 2))
    assert engine.ask(0)
    assert engine.spent == 8


def test_next_query_exhausted():
    e = Election(m=2, voters=((0, 1),), k=1)
    engine = RefinementEngine(e, SPLIT, "variance_aware")
    partition = apply_answer([(0, 1)], engine.next_query(0), ((0,), (1,)))
    assert engine.ask(0)
    assert engine.profile() == (tuple(partition),)
    assert engine.next_query(0) is None


def test_next_query_after_peel():
    e = Election(m=4, voters=((0, 1, 2, 3),), k=2)
    engine = RefinementEngine(e, QuestionType.NEXT, "variance_aware")
    assert engine.ask(0)
    assert engine.profile()[0] == ((0,), (1, 2, 3))
    q = engine.next_query(0)
    assert q.subset == (1, 2, 3)
    assert q.buckets == (F(1, 3), F(2, 3))


def test_engine_limit_refuses_unaffordable_questions(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    for bad in (-1, math.nan):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            engine.limit(bad)

    def snapshot():
        return engine.spent, engine.profile(), [engine.next_query(v) for v in range(2)]

    engine.limit(10.0)
    assert engine.ask(0)  # costs 8
    before = snapshot()
    assert not engine.ask(1)  # another 8 would spend 16
    assert not engine.ask(0)  # another 4 would spend 12
    assert snapshot() == before
    twin = engine.fork()
    assert twin.budget == 10.0
    assert not twin.ask(1)
    twin.limit(16)
    assert twin.ask(1) and twin.spent == 16
    assert engine.spent == 8  # the fork is independent
    assert engine.profile() == before[1]


def test_apply_answer_updates_partition_and_queue(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    partition = [(0, 1, 2, 3)]
    apply_answer(partition, engine.next_query(0), ((0, 1), (2, 3)))
    assert partition == [(0, 1), (2, 3)]
    assert engine.ask(0)
    assert engine.profile()[0] == tuple(partition)
    assert engine.next_query(0).subset == (0, 1)  # the queue is best first
    apply_answer(partition, engine.next_query(0), ((0,), (1,)))
    assert partition == [(0,), (1,), (2, 3)]
    assert engine.ask(0)
    assert engine.profile()[0] == tuple(partition)
    assert engine.next_query(0).subset == (2, 3)  # singletons never queue
    assert engine.ask(0)
    assert engine.next_query(0) is None


def test_apply_answer_rejects_inconsistent(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    partition = [(0, 1, 2, 3)]
    q = engine.next_query(0)
    with pytest.raises(ProtocolError):
        apply_answer(partition, q, ((0, 1), (2,)))  # loses a candidate
    other = make_question(SPLIT, (0, 1))
    with pytest.raises(ProtocolError):
        apply_answer(partition, other, ((0,), (1,)))  # not a current class
    assert partition == [(0, 1, 2, 3)]


def test_apply_answer_rejects_class_sizes_off_the_buckets(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    q = engine.next_query(0)  # halves: two classes of 2
    for answer in (((0,), (1,), (2,), (3,)), ((0,), (1, 2, 3)), ((0, 1), (), (2, 3))):
        partition = [(0, 1, 2, 3)]
        with pytest.raises(ProtocolError):
            apply_answer(partition, q, answer)
        assert partition == [(0, 1, 2, 3)]
    log = "Q voter=0 subset=0,1,2,3 B=1/2,1/2 cost=8\nA classes=0|1|2|3\n"
    with pytest.raises(ProtocolError):
        replay_log(read_log(io.StringIO(log)), 4, 1)


@pytest.mark.parametrize("voter", [-1, 2])
def test_replay_rejects_a_voter_out_of_range(voter):
    log = f"Q voter={voter} subset=0,1 B=1/2,1/2 cost=4\nA classes=0|1\n"
    with pytest.raises(ProtocolError, match="outside"):
        replay_log(read_log(io.StringIO(log)), 2, 2)


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


def test_voter_order_is_respected(worked_election):
    run = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=[1, 0])
    assert [entry.voter for entry in run.log] == [1, 0, 1, 0]
    with pytest.raises(ValueError):
        run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24, voter_order=[0, 0])


def test_negative_budget_rejected(worked_election):
    for budget in (-1, math.nan):
        with pytest.raises(ValueError):
            run_elicitation(worked_election, SPLIT, EQ, "variance_aware", budget)


def test_rerun_is_identical(worked_election):
    first = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24)
    second = run_elicitation(worked_election, SPLIT, EQ, "variance_aware", 24)
    assert first == second


def test_log_round_trip_and_replay():
    e = generate(CultureSpec("IC", seed=19), 7, 4, 3)
    run = run_elicitation(e, QuestionType.NEXT_AND_LAST, EQ, "variance_aware", 90)
    buffer = io.StringIO()
    write_log(run, buffer)
    buffer.seek(0)
    entries = read_log(buffer)
    assert list(entries) == list(run.log)
    assert replay_log(entries, e.m, e.n) == run.profile


def test_replay_rejects_corrupted_log():
    with pytest.raises(ValueError):
        read_log(io.StringIO("A classes=0|1\n"))
    with pytest.raises(ValueError):
        read_log(io.StringIO("Q voter=0 subset=0,1 B=1/2,1/2 cost=4\n"))


@pytest.mark.parametrize("field", ["voter", "subset", "B", "cost"])
def test_read_log_names_a_query_line_missing_a_field(field):
    query = "Q voter=0 subset=0,1 B=1/2,1/2 cost=4"
    line = " ".join(part for part in query.split() if not part.startswith(field + "="))
    with pytest.raises(ValueError, match=f"query line .*{line}.* no {field}= field"):
        read_log(io.StringIO(line + "\nA classes=0|1\n"))


@pytest.mark.parametrize(
    "query, answer, field",
    [
        ("Q voter=0 subset B=1/2,1/2 cost=4", "A classes=0|1", "subset"),
        ("Q voter=x subset=0,1 B=1/2,1/2 cost=4", "A classes=0|1", "voter"),
        ("Q voter=0 subset=0,1 B=1/2,1/2 cost=4", "A classes=0,|1", "classes"),
    ],
    ids=["field-without-value", "voter-not-an-int", "empty-candidate-id"],
)
def test_read_log_names_a_malformed_line_and_its_field(query, answer, field):
    bad = answer if field == "classes" else query
    with pytest.raises(ValueError, match=re.escape(repr(bad)) + f".*{field}"):
        read_log(io.StringIO(f"{query}\n{answer}\n"))


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


def test_custom_cost_is_priced_on_the_subset_shown():
    e = generate(CultureSpec("IC", seed=21), 6, 3, 2)
    for kind, policy in ALL_STRATEGIES:
        run = run_elicitation(e, kind, policy, charge_for_zero, UNLIMITED)
        assert run.log
        for entry in run.log:
            assert (entry.cost == 100) == (0 in entry.query.subset)
        assert run.spent == sum(entry.cost for entry in run.log)


def budget_grid(rng, run):
    """0, unlimited, a repeated point, random points, and exact spends on the trace."""
    totals, spent = [], 0
    for entry in run.log:
        spent = spent + entry.cost
        totals.append(spent)
    points = [0, 0, UNLIMITED, UNLIMITED]
    for i in rng.integers(len(totals), size=3) if totals else ():
        total = totals[int(i)]
        points += [total, float(total), math.nextafter(float(total), 0), total]
    points += [float(x) for x in rng.uniform(0, 1.2 * float(spent) + 1, size=3)]
    return sorted(points)


def test_sweep_matches_a_fresh_run_at_every_budget():
    rng = substream(52)
    costs = [*COST_FUNCTIONS, charge_for_zero]
    for _ in range(12):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        e = Election(m=m, voters=voters, k=1)
        order = [int(v) for v in rng.permutation(n)]
        for cost in costs:
            for kind, policy in ALL_STRATEGIES:
                unlimited = run_elicitation(e, kind, policy, cost, UNLIMITED, voter_order=order)
                grid = budget_grid(rng, unlimited)
                snapshots = list(sweep_elicitation(e, kind, policy, cost, grid, voter_order=order))
                assert [budget for budget, _, _ in snapshots] == grid
                for budget, profile, spent in snapshots:
                    fresh = run_elicitation(
                        e, kind, policy, cost, budget, voter_order=order, record_log=False
                    )
                    assert profile == fresh.profile
                    assert spent == fresh.spent and type(spent) is type(fresh.spent)
                    assert spent <= budget


def test_sweep_rejects_bad_grids(worked_election):
    with pytest.raises(ValueError):
        sweep_elicitation(worked_election, SPLIT, EQ, "variance_aware", [24, 8])
    with pytest.raises(ValueError):
        sweep_elicitation(worked_election, SPLIT, EQ, "variance_aware", [-1, 8])


# SHA-256 of the snapshots below, pinned so that any change in what a sweep
# learns or spends at any budget shows.
SNAPSHOT_DIGEST = "f615031eed13867349fd8543f9093d7fedf6931440ea64e4caaecfa024e78242"


def test_sweep_snapshots_match_the_pinned_digest():
    """Every sweep snapshot over fixed random cases hashes to a pinned value.

    The cases cover m = 1..9, the registry costs plus a subset-dependent
    callable, all eight strategies, and grids with 0, repeated points and
    ``UNLIMITED``. Each unlimited run's answers must be the truthful ones and
    its transcript must replay to its profile.
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
                    run = run_elicitation(e, kind, policy, cost, UNLIMITED, voter_order=order)
                    for entry in run.log:
                        assert entry.answer == answer_query(e.voters[entry.voter], entry.query)
                    assert replay_log(run.log, m, n) == run.profile
                    grid = budget_grid(rng, run)
                    for snapshot in sweep_elicitation(e, kind, policy, cost, grid, order):
                        budget, profile, spent = snapshot
                        line = repr((budget, profile, spent, type(spent).__name__))
                        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNAPSHOT_DIGEST


def reference_run(e, kind, policy, cost, budget, order):
    """``(spent, profile)`` of a plain run: one question at a time, prices summed as given.

    The spend is the running sum of the cost function's own values (Fractions
    for the exact costs), and each question is tested with ``spent + price >
    budget``, which Python decides exactly for int, Fraction and float.
    """
    price_of = COST_FUNCTIONS[cost]
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
    """Sweep and single runs over ``grid`` equal the reference run, and stay in budget."""
    swept = sweep_elicitation(e, kind, policy, cost, grid, voter_order=order)
    for budget, profile, spent in swept:
        run = run_elicitation(e, kind, policy, cost, budget, voter_order=order, record_log=False)
        reference = reference_run(e, kind, policy, cost, budget, order)
        assert (spent, profile) == (run.spent, run.profile) == reference
        assert type(spent) is type(run.spent) is type(reference[0])
        assert spent <= budget


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
    assert RefinementEngine(e, SPLIT, "variance_aware").scale > 2**64
    for kind, policy in ALL_STRATEGIES:
        full = run_elicitation(e, kind, policy, "variance_aware", UNLIMITED)
        for budget in (UNLIMITED, full.spent / 2, float(full.spent) / 3):
            run = run_elicitation(e, kind, policy, "variance_aware", budget)
            total = sum(entry.cost for entry in run.log)
            assert run.spent == total and type(run.spent) is type(total) is F
            assert run.spent <= budget


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
