import itertools
import json
import math
import re

import numpy as np
import pytest

from queryvote import (
    COST_FUNCTIONS,
    BudgetPolicy,
    CultureSpec,
    Election,
    ExperimentConfig,
    QuestionType,
    ResultRow,
    UNLIMITED,
    default_budget_grid,
    difficulty_scores,
    emit_csv,
    expected_random_distance,
    full_resolution_cost,
    generate,
    hamming,
    k_borda,
    load_config,
    random_baseline,
    run_budget_sweep,
    select_top_k,
)
from queryvote.experiments import parse_config, sweep_distances
from queryvote.rng import substream
from queryvote.scoring import (
    _share_table,
    _totals,
    borda_vector,
    partial_scores,
    query_based_committee,
)
from queryvote.strategies import ALL_STRATEGIES, _elicit, _schedule_of, run_elicitation

from results_csv import read_csv_rows


def small_config(**overrides):
    settings = dict(
        cultures=[CultureSpec("IC", seed=1), CultureSpec("ID", seed=2)],
        m=6,
        n=4,
        k=3,
        elections_per_culture=2,
        strategies=[
            (QuestionType.SPLIT, BudgetPolicy.EQUAL),
            (QuestionType.NEXT, BudgetPolicy.FCFS),
        ],
        cost="variance_aware",
        budget_grid=[0.0, 20.0, UNLIMITED],
        voter_order_repeats=2,
        master_seed=99,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_sweep_shape_and_invariants():
    config = small_config()
    rows = run_budget_sweep(config)
    assert len(rows) == 2 * 2 * 2 * 2 * 3  # cultures x elections x strategies x repeats x budgets
    for row in rows:
        assert row.spent <= row.budget
        assert row.distance % 2 == 0
        assert 0 <= row.distance <= 2 * config.k


def test_sweep_unlimited_budget_rows_hit_zero():
    rows = run_budget_sweep(small_config())
    assert all(row.distance == 0 for row in rows if math.isinf(row.budget))


def test_sweep_zero_budget_rows_match_tie_break_committee():
    config = small_config()
    rows = run_budget_sweep(config)
    by_cell = {}
    for row in rows:
        if row.budget == 0.0:
            by_cell.setdefault((row.culture, row.election), set()).add(row.distance)
    for culture_index, spec in enumerate(config.cultures):
        for election_index in range(config.elections_per_culture):
            from queryvote.experiments import _ELECTION_TAG
            from queryvote.rng import derive_seed

            seed = derive_seed(config.master_seed, _ELECTION_TAG, spec.seed, election_index)
            election = generate(spec.with_seed(seed), config.m, config.n, config.k)
            blind = select_top_k([0] * config.m, config.k)
            expected = hamming(blind, k_borda(election))
            assert by_cell[(spec.label(), election_index)] == {expected}


def test_sweep_deterministic_across_jobs():
    config = small_config()
    assert run_budget_sweep(config, jobs=1) == run_budget_sweep(config, jobs=2)
    with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
        run_budget_sweep(config, jobs=0)


def test_sweep_identity_culture_fcfs_needs_one_voter():
    # with full agreement, completely resolving a single voter pins the
    # committee: brute-force check on a small election
    spec = CultureSpec("ID", seed=12)
    election = generate(spec, 6, 5, 3)
    one_voter_cost = float(
        run_elicitation(
            generate(spec, 6, 1, 3), QuestionType.SPLIT, BudgetPolicy.EQUAL,
            "variance_aware", UNLIMITED, record_log=False,
        ).spent
    )
    committee, run = query_based_committee(
        election, QuestionType.SPLIT, BudgetPolicy.FCFS, "variance_aware", one_voter_cost
    )
    assert committee == k_borda(election)
    assert hamming(committee, k_borda(election)) == 0


def test_random_baseline_full_committee():
    e = generate(CultureSpec("IC", seed=3), 5, 3, 5)
    assert random_baseline(e, seed=0) == frozenset(range(5))


def test_random_baseline_deterministic():
    e = generate(CultureSpec("IC", seed=3), 10, 3, 4)
    assert random_baseline(e, seed=7) == random_baseline(e, seed=7)
    assert random_baseline(e, seed=7) != random_baseline(e, seed=8)


def test_expected_random_distance_matches_enumeration():
    # brute force over all committees of a 5-candidate election
    m, k = 5, 2
    target = frozenset({0, 1})
    sizes = [hamming(frozenset(c), target) for c in itertools.combinations(range(m), k)]
    assert sum(sizes) / len(sizes) == pytest.approx(expected_random_distance(m, k))


@pytest.mark.parametrize("m, k", [(3, 5), (0, 0), (4, 0), (4, -1)])
def test_expected_random_distance_rejects_k_outside_1_to_m(m, k):
    with pytest.raises(ValueError, match="committee size"):
        expected_random_distance(m, k)


def test_random_baseline_calibration_small():
    e = generate(CultureSpec("IC", seed=5), 12, 3, 5)
    target = k_borda(e)
    mean = sum(hamming(random_baseline(e, seed=t), target) for t in range(3000)) / 3000
    assert mean == pytest.approx(expected_random_distance(12, 5), rel=0.05)


def rows_for(strategy="S-EQ", culture="IC", election=0, budgets=(1.0, 2.0), repeats=2, distances=None):
    rows = []
    for bi, budget in enumerate(budgets):
        for repeat in range(repeats):
            d = distances[bi][repeat] if distances else 0
            rows.append(
                ResultRow(
                    culture=culture, election=election, strategy=strategy,
                    budget=budget, repeat=repeat, distance=d, spent=budget,
                )
            )
    return rows


def test_difficulty_score_zero_for_perfect_rows():
    # A strategy that solved everything has a peak of 0; it scores 0, not 0 / 0.
    assert difficulty_scores(rows_for()) == {("S-EQ", "IC", 0): 0.0}


def test_difficulty_score_hand_computed():
    # Grid sums: (4 + 2) for election 0 and (6 + 6) for the hardest, election 1.
    rows = rows_for(election=0, distances=[[4, 4], [2, 2]]) + rows_for(
        election=1, distances=[[6, 6], [6, 6]]
    )
    scores = difficulty_scores(rows)
    assert scores[("S-EQ", "IC", 0)] == pytest.approx(0.5)
    assert scores[("S-EQ", "IC", 1)] == 1.0


def test_difficulty_scores_normalize_per_strategy():
    rows = rows_for(election=0, distances=[[4, 4], [2, 2]]) + rows_for(
        election=1, distances=[[2, 2], [1, 1]]
    )
    scores = difficulty_scores(rows)
    assert scores[("S-EQ", "IC", 0)] == pytest.approx(1.0)  # hardest election scores 1
    assert scores[("S-EQ", "IC", 1)] == pytest.approx(0.5)
    assert all(0 <= v <= 1 for v in scores.values())


def test_csv_round_trip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text().strip() == "culture,election,strategy,budget,repeat,distance,spent"
    assert read_csv_rows(path) == []


def test_csv_round_trip_single_row(tmp_path):
    path = tmp_path / "one.csv"
    rows = [ResultRow("IC", 0, "S-EQ", 12.5, 1, 4, 10.25)]
    emit_csv(rows, path)
    assert len(path.read_text().splitlines()) == 2
    assert read_csv_rows(path) == rows


def test_csv_round_trip_random_rows(tmp_path):
    rng = substream(71)
    rows = [
        ResultRow(
            culture=["IC", "Urn", "Mallows[phi=0.2]"][int(rng.integers(3))],
            election=int(rng.integers(100)),
            strategy=["S-EQ", "NL-FCFS"][int(rng.integers(2))],
            budget=float(rng.uniform(0, 1e4)) if rng.random() < 0.9 else math.inf,
            repeat=int(rng.integers(5)),
            distance=2 * int(rng.integers(11)),
            spent=float(rng.uniform(0, 1e4)),
        )
        for _ in range(1000)
    ]
    path = tmp_path / "bulk.csv"
    emit_csv(rows, path)
    assert read_csv_rows(path) == rows


def test_default_budget_grid_shape():
    grid = default_budget_grid(1000.0)
    assert grid[0] == 0.0
    assert grid[-1] == UNLIMITED
    interior = grid[1:-1]
    assert len(interior) == 12
    assert interior[0] == pytest.approx(10.0)
    assert interior[-1] == pytest.approx(1200.0)
    ratios = [b / a for a, b in zip(interior, interior[1:])]
    assert all(r == pytest.approx(ratios[0]) for r in ratios)


def test_full_resolution_cost_positive():
    e = generate(CultureSpec("IC", seed=8), 8, 3, 2)
    assert full_resolution_cost(e, QuestionType.SPLIT, "variance_aware") > 0


def budgets_by_strategy(rows):
    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row.strategy, set()).add(row.budget)
    return by_strategy


def test_auto_grid_used_when_config_has_none():
    config = small_config(budget_grid=None, elections_per_culture=1, voter_order_repeats=1)
    by_strategy = budgets_by_strategy(run_budget_sweep(config))
    budgets = sorted(by_strategy["S-EQ"])
    assert budgets[0] == 0.0 and math.isinf(budgets[-1])
    assert len(budgets) == 14
    # S-EQ and N-FCFS, whose full-resolution costs differ, share one grid.
    assert by_strategy["N-FCFS"] == by_strategy["S-EQ"]


def test_auto_grid_does_not_depend_on_the_strategies_listed():
    def budgets(strategies):
        config = small_config(
            budget_grid=None, strategies=strategies, elections_per_culture=1, voter_order_repeats=1
        )
        return budgets_by_strategy(run_budget_sweep(config))

    everyone = budgets(list(ALL_STRATEGIES))
    split_only = budgets([(QuestionType.SPLIT, BudgetPolicy.EQUAL)])
    assert len(everyone) == 8
    assert all(grid == split_only["S-EQ"] for grid in everyone.values())


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(elections_per_culture=0)
    with pytest.raises(ValueError):
        small_config(voter_order_repeats=0)
    with pytest.raises(ValueError):
        small_config(budget_grid=[5.0, 1.0])
    with pytest.raises(ValueError):
        small_config(budget_grid=[-1.0])
    with pytest.raises(ValueError, match="budget must be non-negative, got nan"):
        small_config(budget_grid=[math.nan, 5.0])
    # An empty grid would sweep nothing and write a header-only CSV.
    with pytest.raises(ValueError, match="^budget_grid must not be empty$"):
        small_config(budget_grid=[])
    with pytest.raises(ValueError):
        small_config(cultures=[])
    with pytest.raises(ValueError):
        small_config(cost="bogus")
    with pytest.raises(ValueError):
        small_config(m=7, cultures=[CultureSpec("ST", seed=1)])  # odd m
    with pytest.raises(ValueError, match="need m >= 1 and n >= 1, got m=6, n=0"):
        small_config(n=0)
    # A JSON budget is a number that is not a bool, or a word for unlimited.
    base = {"m": 4, "n": 3, "k": 2, "elections_per_culture": 1, "cultures": ["IC"]}
    grid = [0, 2.5, "inf", " Unlimited", "infinity"]
    assert parse_config({**base, "budget_grid": grid}).budget_grid == [0, 2.5, *[UNLIMITED] * 3]
    for bad in ([True, 5], ["5"], [1, "nan"], [None], [[3]]):
        with pytest.raises(ValueError, match="config key 'budget_grid': expected a number"):
            parse_config({**base, "budget_grid": bad})
    with pytest.raises(ValueError, match="^budget_grid must not be empty$"):
        parse_config({**base, "budget_grid": []})
    # A grid built in Python is read by the same rule.
    for bad in ([True, "5"], ["5"], [1, "nan"], [None]):
        with pytest.raises(ValueError, match="^budget_grid: expected a number"):
            small_config(budget_grid=bad)
    assert small_config(budget_grid=[0, 2.5, " Unlimited"]).budget_grid == [0.0, 2.5, UNLIMITED]
    with pytest.raises(ValueError, match="^config needs at least one strategy$"):
        small_config(strategies=[])


@pytest.mark.parametrize(
    "culture",
    [
        CultureSpec("Mallows", params={"phi": 1.5}),
        CultureSpec("ST"),  # m = 7 is odd
        CultureSpec("Urn", params={"alpha": math.nan}),
        CultureSpec("Mallows", params={"center": [0.9, 1.7, 2, 3, 4, 5, 6]}),
    ],
)
def test_config_checks_every_culture(culture):
    with pytest.raises(ValueError):
        small_config(m=7, cultures=[CultureSpec("IC", seed=1), culture])


@pytest.mark.parametrize(
    "cultures, label",
    [
        ([CultureSpec("IC", seed=1), CultureSpec("IC", seed=2)], "IC"),
        ([CultureSpec("AN"), CultureSpec("IC"), CultureSpec("AN")], "AN"),
        (
            [
                CultureSpec("Mallows", params={"phi": 0.5, "center": [0, 1, 2, 3, 4, 5]}),
                CultureSpec("Mallows", params={"phi": 0.5, "center": [5, 4, 3, 2, 1, 0]}),
            ],
            "Mallows[phi=0.5]",
        ),
    ],
)
def test_config_rejects_cultures_that_share_a_label(cultures, label):
    # Rows name a culture by its label alone, so these would be merged.
    with pytest.raises(ValueError, match=re.escape(f"two cultures share the label {label!r}")):
        small_config(cultures=cultures)


def test_config_rejects_a_strategy_listed_twice():
    # The two runs' rows could not be told apart, and difficulty_scores pooled them.
    twice = [(QuestionType.SPLIT, BudgetPolicy.EQUAL)] * 2
    with pytest.raises(ValueError, match="the strategy 'S-EQ' is listed twice"):
        small_config(strategies=twice)
    data = {"m": 4, "n": 3, "k": 2, "elections_per_culture": 1, "cultures": ["IC"],
            "strategies": ["N-FCFS", "S-EQ", "s-eq"]}
    with pytest.raises(ValueError, match="the strategy 'S-EQ' is listed twice"):
        parse_config(data)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"strategies": ["S-EQ"]}, "strategies: 'S-EQ' is not a (QuestionType, BudgetPolicy) pair"),
        (
            {"strategies": [("S", "EQ")]},
            "strategies: ('S', 'EQ') is not a (QuestionType, BudgetPolicy) pair",
        ),
        ({"cultures": ["IC"]}, "cultures: 'IC' is not a CultureSpec"),
        ({"n": 3.5}, "n must be an int, got 3.5"),
        ({"elections_per_culture": True}, "elections_per_culture must be an int, got True"),
        ({"voter_order_repeats": 1.5}, "voter_order_repeats must be an int, got 1.5"),
        ({"master_seed": 1.5}, "master_seed must be an int, got 1.5"),
    ],
)
def test_config_built_in_python_names_an_entry_of_the_wrong_type(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        small_config(**overrides)


def test_parse_config_rejects_nan_contagion():
    data = json.loads(
        '{"m": 4, "n": 3, "k": 2, "elections_per_culture": 1,'
        ' "cultures": ["IC", {"kind": "Urn", "params": {"alpha": NaN}}]}'
    )
    with pytest.raises(ValueError, match="urn contagion must be non-negative, got nan"):
        parse_config(data)


def test_parse_config_round_trip():
    data = {
        "m": 6, "n": 4, "k": 2,
        "elections_per_culture": 3,
        "cultures": ["IC", {"kind": "Mallows", "seed": 4, "params": {"phi": 0.5}}],
        "strategies": ["S-EQ", "NL-FCFS"],
        "cost": "computational",
        "budget_grid": [0, 10, "unlimited"],
        "voter_order_repeats": 2,
        "master_seed": 5,
    }
    config = parse_config(data)
    assert config.m == 6 and config.k == 2
    assert config.cultures[1].params["phi"] == 0.5
    assert config.strategies == [
        (QuestionType.SPLIT, BudgetPolicy.EQUAL),
        (QuestionType.NEXT_AND_LAST, BudgetPolicy.FCFS),
    ]
    assert config.budget_grid == [0.0, 10.0, UNLIMITED]
    with pytest.raises(ValueError):
        parse_config({"m": 3})


MINIMAL_CONFIG = {"m": 6, "n": 4, "k": 2, "elections_per_culture": 1, "cultures": ["IC"]}


def test_parse_config_defaults_are_the_dataclass_defaults():
    config = parse_config(dict(MINIMAL_CONFIG))
    assert config == ExperimentConfig(
        cultures=[CultureSpec("IC")], m=6, n=4, k=2, elections_per_culture=1
    )


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown keys \['voter_order_repeat'\]") as err:
        parse_config({**MINIMAL_CONFIG, "voter_order_repeat": 9})
    assert "voter_order_repeats" in str(err.value)  # the known keys are listed


def test_parse_config_rejects_unknown_culture_entry_keys():
    with pytest.raises(ValueError, match=r"culture entry has unknown keys \['sed'\]") as err:
        parse_config({**MINIMAL_CONFIG, "cultures": [{"kind": "IC", "sed": 3}]})
    assert "'seed'" in str(err.value)
    with pytest.raises(ValueError, match="missing required keys"):
        parse_config({**MINIMAL_CONFIG, "cultures": [{"seed": 3}]})
    with pytest.raises(ValueError, match="JSON object"):
        parse_config({**MINIMAL_CONFIG, "cultures": [7]})


@pytest.mark.parametrize(
    "key", ["m", "n", "k", "elections_per_culture", "voter_order_repeats", "master_seed"]
)
def test_parse_config_rejects_non_integral_integers(key):
    with pytest.raises(ValueError, match=f"{key}.*expected an integer, got 4.7"):
        parse_config({**MINIMAL_CONFIG, key: 4.7})
    with pytest.raises(ValueError, match="expected an integer"):
        parse_config({**MINIMAL_CONFIG, key: True})
    assert getattr(parse_config({**MINIMAL_CONFIG, key: 4.0}), key) == 4


def test_parse_config_rejects_non_integral_culture_seed():
    with pytest.raises(ValueError, match="'seed': expected an integer"):
        parse_config({**MINIMAL_CONFIG, "cultures": [{"kind": "IC", "seed": 1.5}]})


def test_default_budget_grid_of_zero_full_cost_is_its_endpoints():
    assert default_budget_grid(0.0) == (0.0, UNLIMITED)
    assert default_budget_grid(0.0, include_zero=False) == (UNLIMITED,)
    assert default_budget_grid(0.0, include_zero=False, include_unlimited=False) == ()


def test_default_budget_grid_rejects_bad_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        default_budget_grid(-1.0)
    with pytest.raises(ValueError, match="non-negative, got nan"):
        default_budget_grid(math.nan)
    # An infinite full cost gave (0.0, inf, nan, nan, inf).
    with pytest.raises(ValueError, match="full-resolution cost must be finite, got inf"):
        default_budget_grid(math.inf, points=3)
    for points in (0, -3):
        with pytest.raises(ValueError, match="points must be at least 1"):
            default_budget_grid(100.0, points=points)
    assert len(default_budget_grid(100.0, points=1)) == 3


def test_one_candidate_config_derives_the_endpoint_grid():
    config = small_config(
        m=1, k=1, budget_grid=None, cultures=[CultureSpec("IC", seed=1)], elections_per_culture=1
    )
    rows = run_budget_sweep(config)
    assert sorted({row.budget for row in rows}) == [0.0, UNLIMITED]
    assert all(row.distance == 0 and row.spent == 0 for row in rows)


def test_sweep_distances_match_one_committee_per_budget():
    election = generate(CultureSpec("Mallows", seed=3, params={"phi": 0.5}), 7, 6, 3)
    target = k_borda(election)
    grid = [0.0, 5.0, 30.0, 30.0, 120.0, UNLIMITED]
    order = [int(v) for v in substream(8).permutation(election.n)]
    for kind, policy in ALL_STRATEGIES:
        swept = sweep_distances(election, kind, policy, "variance_aware", grid, order, target)
        for budget, (swept_budget, distance, spent) in zip(grid, swept, strict=True):
            committee, run = query_based_committee(
                election, kind, policy, "variance_aware", budget, voter_order=order,
                record_log=False,
            )
            assert swept_budget == budget
            assert distance == hamming(committee, target)
            assert spent == run.spent and type(spent) is type(run.spent)


def test_sweep_totals_are_partial_scores_of_the_plain_profile():
    """At every budget the sweep's totals, added in run order, are exactly the
    checked scores of the run's plain profile, and pick the same committee."""
    rng = substream(57)
    for m in range(1, 10):
        for n in range(1, 8):
            voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
            e = Election(m=m, voters=voters, k=int(rng.integers(1, m + 1)))
            order = [int(v) for v in rng.permutation(n)]
            assert (np.argsort(voters, axis=1) == e._places).all()
            target = k_borda(e)
            for cost in COST_FUNCTIONS:
                for kind, policy in ALL_STRATEGIES:
                    full = run_elicitation(e, kind, policy, cost, UNLIMITED, order, record_log=False)
                    points = rng.uniform(0, 1.2 * float(full.spent) + 1, size=2)
                    grid = [0, 0, UNLIMITED, UNLIMITED, *map(float, points), float(points[0])]
                    schedule = _schedule_of(kind, cost, m)
                    table = _share_table(schedule, borda_vector(m))
                    swept = sweep_distances(e, kind, policy, cost, grid, order, target)
                    for budget, (_, distance, _) in zip(grid, swept, strict=True):
                        levels, _ = _elicit(schedule, policy, n, budget)
                        totals = _totals(table, levels, e._places[order])
                        run = run_elicitation(e, kind, policy, cost, budget, order, record_log=False)
                        checked = partial_scores(tuple(run.profile), borda_vector(m))
                        assert [x.hex() for x in totals] == [x.hex() for x in checked]
                        committee = select_top_k(checked, e.k)
                        assert select_top_k(totals, e.k) == committee
                        assert distance == hamming(committee, target)


def test_result_and_config_files_name_the_file_they_fail_on(tmp_path):
    missing = tmp_path / "no such folder" / "rows.csv"
    with pytest.raises(OSError, match=re.escape(f"cannot write results to {missing}: ")):
        emit_csv([], missing)
    with pytest.raises(OSError, match=re.escape(f"cannot read results from {missing}: ")):
        read_csv_rows(missing)
    other = tmp_path / "other.csv"
    other.write_text("culture,budget\n1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{other}: unexpected CSV header ['culture', 'budget']")):
        read_csv_rows(other)
    config = tmp_path / "config.json"
    config.write_text('{"m": 4,')
    with pytest.raises(ValueError, match=re.escape(f"{config} is not valid JSON: ")):
        load_config(config)
