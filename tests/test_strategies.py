import io
import math
from fractions import Fraction as F

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
    apply_answer,
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
    states = RefinementEngine(worked_election, SPLIT, "variance_aware").states
    assert len(states) == 2
    for state in states:
        assert state.partition == [(0, 1, 2, 3)]
        assert list(state.pending) == [(0, 1, 2, 3)]


def test_init_state_single_candidate():
    e = Election(m=1, voters=((0,),), k=1)
    engine = RefinementEngine(e, SPLIT, "variance_aware")
    (state,) = engine.states
    assert state.partition == [(0,)]
    assert not state.pending
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
    apply_answer(engine.states[0], engine.next_query(0), ((0,), (1,)))
    assert engine.next_query(0) is None


def test_next_query_after_peel():
    e = Election(m=4, voters=((0, 1, 2, 3),), k=2)
    engine = RefinementEngine(e, QuestionType.NEXT, "variance_aware")
    assert engine.ask(0)
    assert engine.states[0].partition == [(0,), (1, 2, 3)]
    q = engine.next_query(0)
    assert q.subset == (1, 2, 3)
    assert q.buckets == (F(1, 3), F(2, 3))


def test_engine_limit_refuses_unaffordable_questions(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    for bad in (-1, math.nan):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            engine.limit(bad)

    def snapshot():
        return engine.spent, engine.profile(), [list(s.pending) for s in engine.states]

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


def test_apply_answer_updates_partition_and_queue(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    state = engine.states[0]
    apply_answer(state, engine.next_query(0), ((0, 1), (2, 3)))
    assert state.partition == [(0, 1), (2, 3)]
    assert list(state.pending) == [(0, 1), (2, 3)]
    apply_answer(state, engine.next_query(0), ((0,), (1,)))
    assert state.partition == [(0,), (1,), (2, 3)]
    assert list(state.pending) == [(2, 3)]  # singletons never queue


def test_apply_answer_rejects_inconsistent(worked_election):
    engine = RefinementEngine(worked_election, SPLIT, "variance_aware")
    state = engine.states[0]
    q = engine.next_query(0)
    with pytest.raises(ProtocolError):
        apply_answer(state, q, ((0, 1), (2,)))  # loses a candidate
    other = make_question(SPLIT, (0, 1))
    with pytest.raises(ProtocolError):
        apply_answer(state, other, ((0,), (1,)))  # not a current class


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
