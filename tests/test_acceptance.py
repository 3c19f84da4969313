"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io
import json
import math
import statistics
import time
from fractions import Fraction as F

import queryvote as qv
from queryvote import BudgetPolicy, QuestionType
from queryvote.cli import main as cli_main
from queryvote.rng import substream

SPLIT, EQ, FCFS = QuestionType.SPLIT, BudgetPolicy.EQUAL, BudgetPolicy.FCFS


def report(number: int, description: str, ok: bool, elapsed: float, limit: float | None):
    bound = f", {elapsed:.2f}s < {limit:.0f}s" if limit is not None else f", {elapsed:.2f}s"
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}{bound}")
    assert ok, f"criterion {number} failed: {description}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def mean(xs):
    return sum(xs) / len(xs)


def standard_error(xs):
    if len(set(xs)) <= 1:
        return 0.0
    return statistics.stdev(xs) / math.sqrt(len(xs))


def test_criterion_1_worked_examples_exact():
    start = time.perf_counter()
    ok = True

    def expect(actual, wanted):
        nonlocal ok
        ok = ok and (actual == wanted)

    def q(size, *ratios):
        return qv.RefinementQuery(tuple(range(size)), ratios)

    # cost values
    expect(qv.cost_candidates(q(4, F(1, 4), F(3, 4))), 4)
    expect(qv.cost_last_bucket(q(4, F(1, 4), F(3, 4))), 1)
    expect(qv.cost_last_bucket(q(4, F(1, 2), F(1, 2))), 2)
    expect(qv.cost_last_bucket(q(4, F(1, 4), F(1, 4), F(1, 2))), 2)
    expect(qv.cost_bucket_count(q(10, F(1, 2), F(3, 10), F(1, 5))), 16)
    expect(qv.cost_bucket_count(q(10, F(2, 5), F(7, 20), F(1, 4))), 15)
    expect(qv.cost_variance_aware(q(4, F(1, 2), F(1, 2))), 8)
    expect(qv.cost_variance_aware(q(2, F(1, 2), F(1, 2))), 4)

    # variances
    expect(qv.variance((F(1, 2), F(1, 2))), 0)
    expect(qv.variance((F(1, 4), F(3, 4))), F(1, 16))
    expect(qv.variance((F(1, 2), F(3, 10), F(1, 5))), F(7, 450))

    # query answers: peel the favourite, split into halves
    secret = (0, 1, 2, 3)
    expect(qv.answer_query(secret, q(4, F(1, 4), F(3, 4))), ((0,), (1, 2, 3)))
    expect(qv.answer_query(secret, q(4, F(1, 2), F(1, 2))), ((0, 1), (2, 3)))

    # partial positional scores
    expect(qv.partial_scores([((0, 1), (2, 3))], qv.borda_vector(4)), [2.5, 2.5, 0.5, 0.5])
    expect(qv.partial_scores([((0, 1, 2, 3),)], qv.borda_vector(4)), [1.5, 1.5, 1.5, 1.5])

    # full split-equally trace at budget 24
    election = qv.Election(m=4, voters=((0, 1, 2, 3), (1, 0, 2, 3)), k=2)
    expect(qv.borda_scores(election), [5, 5, 2, 0])
    committee, run = qv.query_based_committee(election, SPLIT, EQ, "variance_aware", 24)
    expect(committee, frozenset({0, 1}))
    expect(run.spent, 24)
    expect(run.profile[0], ((0,), (1,), (2, 3)))
    expect(run.profile[1], ((1,), (0,), (2, 3)))

    report(1, "worked examples reproduce exactly", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_axiom_grid():
    start = time.perf_counter()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["audit-costs", "--trials", "10000", "--seed", "0"])
    output = buffer.getvalue()
    elapsed = time.perf_counter() - start

    ok = code == 0
    cells = {}
    for line in output.splitlines():
        parts = line.split()
        if parts and parts[0] in qv.COST_FUNCTIONS and len(parts) == 4:
            cells[parts[0]] = tuple(parts[1:])
    expected_variance = {
        "candidates": "NO",
        "last_bucket": "NO",
        "bucket_count": "NO",
        "variance_aware": "YES",
        "computational": "NO",
    }
    for name, wanted in expected_variance.items():
        ok = ok and cells.get(name) == ("YES", "YES", wanted)

    # the four NO verdicts carry counterexamples that re-evaluate as violations
    for name in ("candidates", "last_bucket", "bucket_count", "computational"):
        verdict = qv.audit_axiom(name, qv.Axiom.VARIANCE_MONOTONICITY, trials=1, seed=0)
        ok = ok and not verdict.holds
        q1, q2, c1, c2 = verdict.counterexample
        fn = qv.COST_FUNCTIONS[name]
        ok = ok and fn(q1) == c1 and fn(q2) == c2
        ok = ok and qv.variance(q1.buckets) > qv.variance(q2.buckets) and not c1 < c2

    report(2, "axiom grid matches the known pattern", ok, elapsed, 10.0)


def test_criterion_3_exact_recovery():
    start = time.perf_counter()
    kinds = list(qv.KINDS)
    perfect = 0
    total = 0
    for i in range(100):
        spec = qv.CultureSpec(kinds[i % len(kinds)], seed=9000 + i)
        election = qv.generate(spec, 12, 15, 6)
        target = qv.k_borda(election)
        for kind, policy in qv.ALL_STRATEGIES:
            committee, _ = qv.query_based_committee(
                election, kind, policy, "variance_aware", qv.UNLIMITED, record_log=False
            )
            total += 1
            perfect += qv.hamming(committee, target) == 0
    ok = perfect == total == 800
    report(3, f"unbounded budget recovers k-Borda ({perfect}/{total})", ok, time.perf_counter() - start, 10.0)


def test_criterion_4_random_baseline_calibration():
    start = time.perf_counter()
    election = qv.generate(qv.CultureSpec("IC", seed=3), 20, 5, 10)
    target = qv.k_borda(election)
    trials = 10_000
    total = sum(qv.hamming(qv.random_baseline(election, seed=t), target) for t in range(trials))
    observed = total / trials
    analytic = qv.expected_random_distance(20, 10)
    ok = abs(observed - analytic) <= 0.02 * analytic
    report(
        4,
        f"random baseline mean {observed:.3f} within 2% of {analytic}",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def _sweep_distances(config):
    """distances[(strategy, budget_index)] -> per-election distance list."""
    rows = qv.run_budget_sweep(config)
    grid = list(config.budget_grid)
    index = {budget: i for i, budget in enumerate(grid)}
    table = {}
    for row in rows:
        table.setdefault((row.strategy, index[row.budget]), []).append(row.distance)
    return table, grid


def test_criterion_5_split_dominates_at_desk_scale():
    start = time.perf_counter()
    m, n, k = 20, 20, 10
    probe = qv.generate(qv.CultureSpec("IC", seed=0), m, n, k)
    heaviest = max(
        qv.full_resolution_cost(probe, kind, "variance_aware") for kind in QuestionType
    )
    grid = list(
        qv.default_budget_grid(
            heaviest, points=10, include_zero=False, include_unlimited=False
        )
    )
    config = qv.ExperimentConfig(
        cultures=[qv.CultureSpec("IC", seed=101)],
        m=m, n=n, k=k,
        elections_per_culture=200,
        strategies=list(qv.ALL_STRATEGIES),
        cost="variance_aware",
        budget_grid=grid,
        voter_order_repeats=1,
        master_seed=2025,
    )
    table, grid = _sweep_distances(config)

    ok = True
    worst = None
    for policy in ("EQ", "FCFS"):
        split = f"S-{policy}"
        for other_kind in ("N", "L", "NL"):
            other = f"{other_kind}-{policy}"
            for bi in range(1, len(grid) - 1):  # interior grid points
                diffs = [
                    o - s for o, s in zip(table[(other, bi)], table[(split, bi)])
                ]
                margin = mean(diffs) + standard_error(diffs)
                if worst is None or margin < worst[0]:
                    worst = (margin, other, bi)
                ok = ok and margin >= 0
    report(
        5,
        f"split dominance holds at every interior budget (tightest: {worst[1]} at point "
        f"{worst[2]}, margin {worst[0]:.3f})",
        ok,
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_6_budget_policy_culture_effect():
    start = time.perf_counter()
    m, n, k = 20, 20, 5
    probe = qv.generate(qv.CultureSpec("IC", seed=0), m, n, k)
    full_split = qv.full_resolution_cost(probe, SPLIT, "variance_aware")
    grid = list(
        qv.default_budget_grid(
            full_split, points=10, include_zero=False, include_unlimited=False
        )
    )
    mid = range(len(grid) // 3, 2 * len(grid) // 3)

    def sweep(spec):
        config = qv.ExperimentConfig(
            cultures=[spec],
            m=m, n=n, k=k,
            elections_per_culture=200,
            strategies=[(SPLIT, EQ), (SPLIT, FCFS)],
            cost="variance_aware",
            budget_grid=grid,
            voter_order_repeats=1,
            master_seed=77,
        )
        table, _ = _sweep_distances(config)
        return table

    ok = True
    near_identity = sweep(qv.CultureSpec("Mallows", seed=301, params={"phi": 0.2}))
    for bi in mid:
        diffs = [
            f - e for f, e in zip(near_identity[("S-FCFS", bi)], near_identity[("S-EQ", bi)])
        ]
        # probing one voter deeply should not lose when voters agree
        ok = ok and mean(diffs) <= standard_error(diffs)

    scattered = sweep(qv.CultureSpec("IC", seed=302))
    for bi in mid:
        diffs = [
            f - e for f, e in zip(scattered[("S-FCFS", bi)], scattered[("S-EQ", bi)])
        ]
        # on scattered preferences the effect reverses or drowns in noise
        ok = ok and (mean(diffs) >= 0 or abs(mean(diffs)) < standard_error(diffs))

    report(
        6,
        "first-come-first-served helps near identity, not on impartial culture",
        ok,
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_7_property_suites():
    start = time.perf_counter()
    failures = []

    # score conservation: every voter hands out m(m-1)/2 Borda points in total
    rng = substream(701)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        order = [int(c) for c in rng.permutation(m)]
        partition = []
        while order:
            take = int(rng.integers(1, len(order) + 1))
            partition.append(tuple(sorted(order[:take])))
            order = order[take:]
        total = sum(qv.partial_scores([tuple(partition)], qv.borda_vector(m)))
        if abs(total - m * (m - 1) / 2) > 1e-9:
            failures.append(("conservation", partition))

    # bucket sizes stay within 1 of the ideal, non-empty, and sum up
    rng = substream(702)
    for _ in range(1000):
        size = int(rng.integers(1, 30))
        parts = int(rng.integers(1, size + 1))
        if parts > 1:
            cuts = sorted(int(c) + 1 for c in rng.choice(size - 1, parts - 1, replace=False))
        else:
            cuts = []
        bounds = [0, *cuts, size]
        ratios = tuple(F(bounds[i + 1] - bounds[i], size) for i in range(parts))
        sizes = qv.bucket_sizes(ratios, size)
        bad = (
            sum(sizes) != size
            or any(s < 1 for s in sizes)
            or (len(sizes) == parts and any(abs(sizes[j] - ratios[j] * size) >= 1 for j in range(parts)))
        )
        if bad:
            failures.append(("bucket_sizes", ratios, sizes))

    # answers never contradict the secret ranking
    rng = substream(703)
    kinds = list(QuestionType)
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        secret = tuple(int(c) for c in rng.permutation(m))
        subset = tuple(int(c) for c in rng.choice(m, int(rng.integers(2, m + 1)), replace=False))
        question = qv.make_question(kinds[int(rng.integers(4))], subset)
        answer = qv.answer_query(secret, question)
        position = {c: i for i, c in enumerate(secret)}
        for earlier, later in zip(answer, answer[1:]):
            if max(position[c] for c in earlier) >= min(position[c] for c in later):
                failures.append(("consistency", secret, question))

    # spending never exceeds the budget
    rng = substream(704)
    cost_names = list(qv.COST_FUNCTIONS)
    for _ in range(1000):
        kind, policy = qv.ALL_STRATEGIES[int(rng.integers(8))]
        election = qv.generate(
            qv.CultureSpec(qv.KINDS[int(rng.integers(8))], seed=int(rng.integers(2**32))),
            2 * int(rng.integers(1, 5)), int(rng.integers(1, 6)), 1,
        )
        budget = float(rng.uniform(0, 150))
        run = qv.run_elicitation(
            election, kind, policy, cost_names[int(rng.integers(5))], budget, record_log=False
        )
        if not run.spent <= budget:
            failures.append(("budget", kind, policy, budget, run.spent))

    # committee distance is a metric: symmetry, identity, triangle, range
    rng = substream(705)
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 1))
        a, b, c = (
            frozenset(int(x) for x in rng.choice(m, k, replace=False)) for _ in range(3)
        )
        checks = (
            qv.hamming(a, b) == qv.hamming(b, a),
            qv.hamming(a, a) == 0,
            qv.hamming(a, c) <= qv.hamming(a, b) + qv.hamming(b, c),
            0 <= qv.hamming(a, b) <= 2 * k,
            qv.hamming(a, b) % 2 == 0,
        )
        if not all(checks):
            failures.append(("metric", a, b, c))

    # fully resolved partial scoring collapses to plain Borda
    rng = substream(706)
    for _ in range(1000):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 5))
        voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
        election = qv.Election(m=m, voters=voters, k=1)
        profile = [tuple((c,) for c in voter) for voter in voters]
        if qv.partial_scores(profile, qv.borda_vector(m)) != [
            float(s) for s in qv.borda_scores(election)
        ]:
            failures.append(("oracle", voters))

    ok = not failures
    report(
        7,
        f"six property suites x 1000 instances, {len(failures)} failures",
        ok,
        time.perf_counter() - start,
        None,
    )


def test_criterion_8_csv_determinism_across_jobs(tmp_path):
    start = time.perf_counter()
    config = {
        "m": 8, "n": 6, "k": 4,
        "elections_per_culture": 2,
        "cultures": [{"kind": "IC", "seed": 5}, {"kind": "Euclidean2D", "seed": 6}],
        "strategies": ["S-EQ", "NL-FCFS"],
        "cost": "variance_aware",
        "budget_grid": [0, 40, 120, "unlimited"],
        "voter_order_repeats": 2,
        "master_seed": 11,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"rows-{jobs}.csv"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["run", str(config_path), "--out", str(out), "--jobs", jobs])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(8, "results CSV is byte-identical across --jobs", ok, time.perf_counter() - start, None)


def test_criterion_9_split_dominates_at_paper_scale():
    """The paper's headline at its scale: in each of four cultures the best
    split strategy beats the best other strategy, by mean distance over the
    default grid, by at least 2 standard errors of the paired gap over the
    20 (election, voter order) pairs."""
    start = time.perf_counter()
    config = qv.ExperimentConfig(
        cultures=[
            qv.CultureSpec("IC", seed=1),
            qv.CultureSpec("Euclidean2D", seed=2),
            qv.CultureSpec("Urn", seed=3),
            qv.CultureSpec("Mallows", seed=4, params={"phi": 0.5}),
        ],
        m=100, n=250, k=10,
        elections_per_culture=4,
        cost="variance_aware",
        voter_order_repeats=5,
        master_seed=0,
    )
    cells = {}
    for row in qv.run_budget_sweep(config):
        cells.setdefault((row.culture, row.strategy, row.election, row.repeat), []).append(row.distance)
    pairs = sorted({key[2:] for key in cells})
    assert len(pairs) == 20

    strategies = list(dict.fromkeys(key[1] for key in cells))
    splits = [s for s in strategies if s.startswith("S-")]
    others = [s for s in strategies if s not in splits]
    points = len(cells[next(iter(cells))])
    ok, margins = True, []
    for culture in dict.fromkeys(key[0] for key in cells):
        # Each pair's distance summed over the grid: strategies rank by their
        # total, exactly, and every other strategy tied for best is compared.
        totals = {s: [sum(cells[(culture, s, *pair)]) for pair in pairs] for s in strategies}
        split = min(splits, key=lambda s: sum(totals[s]))
        best = min(sum(totals[s]) for s in others)
        for other in (s for s in others if sum(totals[s]) == best):
            gaps = [(o - s) / points for o, s in zip(totals[other], totals[split])]
            gap, error = mean(gaps), standard_error(gaps)
            margins.append(f"{culture} {split} vs {other} {gap:.3f} ± {error:.3f}")
            ok = ok and gap > 0 and gap >= 2 * error
    report(
        9,
        "best split beats the best other strategy by 2 SE at 100x250 in every culture "
        f"({'; '.join(margins)})",
        ok,
        time.perf_counter() - start,
        300.0,
    )
