import hashlib
import itertools
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

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
import queryvote.experiments
from queryvote.experiments import (
    CSV_COLUMNS,
    _elicit_sweep,
    _full_cost,
    parse_config,
)
from queryvote.rng import derive_seed, substream
from queryvote.scoring import (
    _share_table,
    _totals,
    borda_vector,
    partial_scores,
    query_based_committee,
)
from queryvote.strategies import (
    ALL_STRATEGIES,
    _elicit,
    _elicit_units,
    _schedule_of,
    _spend,
    parse_strategy,
    run_elicitation,
    strategy_label,
)

from results_csv import read_csv_rows
from sweep_step import sweep_step


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


def test_result_rows_pickle_compare_and_write_as_before(tmp_path):
    """A row's fields are the CSV's columns: its values pickle and compare,
    and a sweep writes the bytes it wrote before. (``jobs=2`` giving the
    rows of ``jobs=1`` is test_sweep_deterministic_across_jobs.)"""
    row = ResultRow("Mallows[phi=0.2]", 3, "NL-FCFS", math.inf, 1, 4, 0.1 + 0.2)
    assert CSV_COLUMNS == ("culture", "election", "strategy", "budget", "repeat", "distance", "spent")
    assert row == ResultRow(
        culture="Mallows[phi=0.2]", election=3, strategy="NL-FCFS", budget=math.inf,
        repeat=1, distance=4, spent=0.1 + 0.2,
    )
    assert row != replace(row, spent=0.3) and hash(row) == hash(pickle.loads(pickle.dumps(row)))
    path = tmp_path / "row.csv"
    emit_csv([row], path)
    assert path.read_bytes() == (
        b"culture,election,strategy,budget,repeat,distance,spent\n"
        b"Mallows[phi=0.2],3,NL-FCFS,inf,1,4,0.30000000000000004\n"
    )
    rows = run_budget_sweep(small_config())
    back = pickle.loads(pickle.dumps(rows))
    assert back == rows and all(type(r) is ResultRow for r in back)
    emit_csv(rows, path)
    # The 48 rows' CSV, pinned: a change in how rows are built or written shows here.
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "23e01ac9889dc6bd61af798cfdebba63284fed69771314b31d496478550bb530"
    )


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
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        small_config(n=0)
    # The config reads m itself, not through its one-voter probe election.
    with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
        small_config(m=0, n=2)
    # A JSON budget is a number that is not a bool, or a word for unlimited.
    base = {"m": 4, "n": 3, "k": 2, "elections_per_culture": 1, "cultures": ["IC"]}
    grid = [0, 2.5, "inf", " Unlimited", "infinity"]
    assert parse_config({**base, "budget_grid": grid}).budget_grid == (0, 2.5, *[UNLIMITED] * 3)
    assert parse_config({**base, "budget_grid": None}).budget_grid is None
    for bad in ([True, 5], ["5"], [1, "nan"], [None], [[3]]):
        with pytest.raises(ValueError, match="^budget_grid: expected a number"):
            parse_config({**base, "budget_grid": bad})
    with pytest.raises(ValueError, match="^budget_grid must not be empty$"):
        parse_config({**base, "budget_grid": []})
    # A grid built in Python is read by the same rule.
    for bad in ([True, "5"], ["5"], [1, "nan"], [None]):
        with pytest.raises(ValueError, match="^budget_grid: expected a number"):
            small_config(budget_grid=bad)
    assert small_config(budget_grid=[0, 2.5, " Unlimited"]).budget_grid == (0.0, 2.5, UNLIMITED)
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
        ({"strategies": [5]}, "strategies: unknown strategy 5; choose one of: "),
        ({"strategies": [("S", "EQ")]}, "strategies: unknown strategy ('S', 'EQ'); choose one of: "),
        ({"cultures": [("IC", 1)]}, "cultures: culture entry must be a JSON object, got ('IC', 1)"),
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


def test_a_built_config_is_frozen():
    """No field can be set after construction, where it would skip the
    checks: a repeat count of 0 would make the sweep return no rows."""
    config = small_config()
    for field in fields(config):
        with pytest.raises(FrozenInstanceError):
            setattr(config, field.name, 0)
    assert len(run_budget_sweep(config)) == 2 * 2 * 2 * 2 * 3
    with pytest.raises(ValueError, match="voter_order_repeats must be at least 1, got 0"):
        replace(config, voter_order_repeats=0)


def test_a_config_is_a_value_all_the_way_down():
    """Neither a list field nor a spec of a checked config can change after
    the checks: an appended culture that shares a label, or a repeated
    strategy, gave rows whose keys could not be told apart, and a late seed
    of 2.5 was refused only at generation, under the wrong name."""
    config = small_config()
    extra = {
        "cultures": CultureSpec("IC", seed=2),
        "strategies": (QuestionType.SPLIT, BudgetPolicy.EQUAL),
        "budget_grid": 30.0,
    }
    for name, entry in extra.items():
        assert type(getattr(config, name)) is tuple
        with pytest.raises(AttributeError):
            getattr(config, name).append(entry)
    with pytest.raises(FrozenInstanceError):
        config.cultures[0].seed = 2.5
    params = {"phi": 0.5}
    spec = CultureSpec("Mallows", params=params)
    params["phi"] = 2  # the spec keeps its own copy
    with pytest.raises(TypeError):
        spec.params["phi"] = 2
    assert spec.params == {"phi": 0.5}
    assert hash(config) == hash(replace(config)) and {config: 1}[replace(config)] == 1


def test_parse_config_equals_and_hashes_as_its_python_twin():
    center = [5, 4, 3, 2, 1, 0]
    data = {
        "m": 6, "n": 4, "k": 2, "elections_per_culture": 1,
        "cultures": ["IC", {"kind": "Mallows", "seed": 4.0, "params": {"phi": 0.5, "center": center}}],
        "strategies": ["S-EQ", "NL-FCFS"],
        "budget_grid": [0, 10, "unlimited"],
    }
    twin = ExperimentConfig(
        cultures=[CultureSpec("IC"), CultureSpec("Mallows", seed=4, params={"phi": 0.5, "center": center})],
        m=6, n=4, k=2, elections_per_culture=1,
        strategies=[(QuestionType.SPLIT, BudgetPolicy.EQUAL), (QuestionType.NEXT_AND_LAST, BudgetPolicy.FCFS)],
        budget_grid=[0, 10, UNLIMITED],
    )
    config = parse_config(data)
    assert config == twin and hash(config) == hash(twin)
    assert pickle.loads(pickle.dumps(config)) == config


def test_a_mallows_center_sweeps_alike_at_two_jobs():
    """A process pool pickles the config; each spec's read-only params are
    rebuilt from a plain copy, center list included."""
    center = CultureSpec("Mallows", seed=3, params={"phi": 0.5, "center": [5, 4, 3, 2, 1, 0]})
    config = small_config(cultures=[CultureSpec("IC", seed=1), center])
    assert run_budget_sweep(config, jobs=2) == run_budget_sweep(config, jobs=1)


def test_a_python_config_reads_names_as_json_does():
    pair = (QuestionType.NEXT_AND_LAST, BudgetPolicy.FCFS)
    read = [small_config(strategies=[name]).strategies for name in ("NL-FCFS", " nl_fcfs ", pair)]
    assert read == [(pair,)] * 3
    assert small_config(cultures=["impartial"]) == small_config(cultures=[CultureSpec("IC")])


def test_a_python_culture_mapping_names_unknown_keys_whatever_their_types():
    # A Python mapping may hold an int key beside a str one, which sorting gave a bare TypeError.
    with pytest.raises(ValueError, match=re.escape("cultures: culture entry has unknown keys [1, 'a']")):
        small_config(cultures=[{"kind": "IC", 1: 2, "a": 3}])


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
    assert config.strategies == (
        (QuestionType.SPLIT, BudgetPolicy.EQUAL),
        (QuestionType.NEXT_AND_LAST, BudgetPolicy.FCFS),
    )
    assert config.budget_grid == (0.0, 10.0, UNLIMITED)
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


@pytest.mark.parametrize(
    "key, entry", [("cultures", "IC"), ("strategies", "S-EQ"), ("budget_grid", "unlimited")]
)
@pytest.mark.parametrize("shape", ["string", "object", "number"])
def test_parse_config_list_keys_take_json_arrays_only(key, entry, shape):
    # Read entry by entry, a string gives its characters and an object its keys.
    value = {"string": entry, "object": {entry: 1}, "number": 5}[shape]
    message = f"{key}: expected a list, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config({**MINIMAL_CONFIG, key: value})
    assert parse_config({**MINIMAL_CONFIG, key: [entry]})


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


def test_the_sweep_step_matches_one_committee_per_budget():
    election = generate(CultureSpec("Mallows", seed=3, params={"phi": 0.5}), 7, 6, 3)
    target = k_borda(election)
    grid = [0.0, 5.0, 30.0, 30.0, 120.0, UNLIMITED]
    order = [int(v) for v in substream(8).permutation(election.n)]
    for kind, policy in ALL_STRATEGIES:
        swept = sweep_step(election, kind, policy, "variance_aware", grid, order)
        for budget, (swept_budget, distance, spent) in zip(grid, swept, strict=True):
            committee, run = query_based_committee(
                election, kind, policy, "variance_aware", budget, voter_order=order,
                record_log=False,
            )
            assert swept_budget == budget
            assert distance == hamming(committee, target)
            assert spent == run.spent and type(spent) is type(run.spent)


def expanded(runs):
    """The level of each place of runs ``(level, count)``, one place at a time."""
    return [level for level, count in runs for _ in range(count)]


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
                    swept = sweep_step(e, kind, policy, cost, grid, order)
                    for budget, (_, distance, _) in zip(grid, swept, strict=True):
                        runs, _ = _elicit(schedule, policy, n, budget)
                        totals = _totals(table, [expanded(runs)], e._places[order])[0].tolist()
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
    config.write_bytes(b'\xff{"m": 4}')
    with pytest.raises(ValueError, match=re.escape(f"{config} is not UTF-8 text: 'utf-8' codec")):
        load_config(config)


@pytest.mark.parametrize("m, n", [(1, 9), (1, 13), (5, 1), (1, 1), (9, 4), (12, 7)])
def test_batched_sweep_totals_match_the_one_cell_reference(monkeypatch, m, n):
    """Every strategy and cost, over a grid with repeats, 0, unlimited and
    unsorted entries, gathered 3 cells at a time: each batched row of totals
    is, by ``float.hex``, the one-row gather of that cell's levels, expanded
    one place at a time, and each distance is that row's committee's."""
    monkeypatch.setattr(queryvote.experiments, "_GATHER_SHARES", 3 * n * m)
    batches = recorded_totals(monkeypatch)
    rng = substream(61, m, n)
    voters = tuple(tuple(int(c) for c in rng.permutation(m)) for _ in range(n))
    e = Election(m=m, voters=voters, k=int(rng.integers(1, m + 1)))
    order = [int(v) for v in rng.permutation(n)]
    target = k_borda(e)
    for cost in COST_FUNCTIONS:
        for kind, policy in ALL_STRATEGIES:
            full = full_resolution_cost(e, kind, cost)
            grid = [full / 2, 0, UNLIMITED, full / 2, float(rng.uniform(0, 1.2 * full + 1)), 0, full]
            schedule = _schedule_of(kind, cost, m)
            table = _share_table(schedule, borda_vector(m))
            batches.clear()
            swept = sweep_step(e, kind, policy, cost, grid, order)
            assert [levels.shape for levels, _ in batches] == [(1, 3, n), (1, 3, n), (1, 1, n)]
            rows = np.concatenate([levels.reshape(-1, n) for levels, _ in batches])
            totals = np.concatenate([totals for _, totals in batches])
            cells = zip(grid, swept, rows.tolist(), totals.tolist(), strict=True)
            for budget, (_, distance, spent), levels, batched in cells:
                runs, elicited = _elicit(schedule, policy, n, budget)
                assert levels == expanded(runs)
                reference = _totals(table, [expanded(runs)], e._places[order])[0].tolist()
                assert [x.hex() for x in batched] == [x.hex() for x in reference]
                assert distance == hamming(select_top_k(reference, e.k), target)
                assert spent == elicited and type(spent) is type(elicited)


@pytest.mark.parametrize("cost", ["variance_aware", "computational"])
def test_run_budget_sweep_rows_are_one_run_per_cell(monkeypatch, cost):
    """Every row of a sweep, over 2 cultures x 2 elections x 2 voter orders x
    all 8 strategies and a grid with 0, a repeated budget and unlimited,
    gathered 2 cells at a time, is the cell run on its own:
    ``query_based_committee`` under its budget and voter order, its Hamming
    distance from k-Borda, and its spend by ``float.hex``; ``jobs=2`` gives
    the same rows."""
    m, n, k, seed = 7, 9, 3, 41
    monkeypatch.setattr(queryvote.experiments, "_GATHER_SHARES", 2 * n * m)
    batches = recorded_totals(monkeypatch)
    probe = generate(CultureSpec("IC", seed=0), m, n, k)
    full = max(full_resolution_cost(probe, kind, cost) for kind in QuestionType)
    grid = [0, full / 5, full / 2, full / 2, full, UNLIMITED]
    cultures = [CultureSpec("Urn", seed=5), CultureSpec("Mallows", seed=6, params={"phi": 0.5})]
    config = ExperimentConfig(
        cultures=cultures, m=m, n=n, k=k, elections_per_culture=2, cost=cost,
        budget_grid=grid, voter_order_repeats=2, master_seed=seed,
    )
    rows = run_budget_sweep(config)
    # Every voter order's 6 cells span 3 batches.
    assert [levels.shape for levels, _ in batches] == [(1, 2, n)] * 3 * (2 * 2 * 8 * 2)
    expected = []
    for culture_index, spec in enumerate(cultures):
        for election_index in range(2):
            election_seed = derive_seed(seed, 0, spec.seed, election_index)
            election = generate(spec.with_seed(election_seed), m, n, k)
            target = k_borda(election)
            for strategy_index, (kind, policy) in enumerate(ALL_STRATEGIES):
                for repeat in range(2):
                    order_rng = substream(seed, 1, culture_index, election_index, strategy_index, repeat)
                    order = order_rng.permutation(n)
                    for budget in grid:
                        committee, run = query_based_committee(
                            election, kind, policy, cost, budget, voter_order=order, record_log=False
                        )
                        expected.append((
                            spec.label(), election_index, strategy_label(kind, policy),
                            float(budget).hex(), repeat, hamming(committee, target),
                            float(run.spent).hex(),
                        ))
    assert [
        (row.culture, row.election, row.strategy, row.budget.hex(), row.repeat, row.distance,
         row.spent.hex())
        for row in rows
    ] == expected
    assert run_budget_sweep(config, jobs=2) == rows


def test_an_elicited_grid_holds_runs_whatever_the_voter_count():
    """A sweep keeps each cell's runs, never one level per voter: at 3 voters
    and at a million, at most max(m, 3) runs per cell, whose counts add up
    to the voters."""
    m = 12
    grid = [0, 10, 10, 500, 10**9, UNLIMITED]
    for kind, policy in ALL_STRATEGIES:
        for n in (3, 10**6):
            elicited = _elicit_sweep([(kind, policy)], "variance_aware", m, n, grid)
            assert len(elicited.at) - 1 == len(grid)
            for first, last in itertools.pairwise(elicited.at):
                assert last - first <= max(m, 3)
                assert elicited.counts[first:last].sum() == n


def test_a_bad_budget_anywhere_in_the_grid_fails_before_any_row():
    e = generate(CultureSpec("IC", seed=4), 5, 3, 2)
    for grid in ([5, -1], [5, math.nan], [5, "lots"]):
        with pytest.raises(ValueError, match="budget"):
            sweep_step(e, "S", "EQ", "variance_aware", grid)


def test_row_spends_are_the_floats_of_the_exact_spends():
    """Under every exact registry cost, each cell's row spend, ``units / D``,
    has the bits of the float of its exact spend, which is the spend of
    ``_elicit``; and ``units / D`` is ``float(Fraction(units, D))`` for
    random units up to 2**80."""
    rng = substream(64)
    for cost in COST_FUNCTIONS:
        for m in (1, 2, 7, 20):
            for kind, policy in ALL_STRATEGIES:
                schedule = _schedule_of(kind, cost, m)
                if not schedule.exact:
                    continue
                n = int(rng.integers(1, 30))
                full = _full_cost(kind, cost, m, n)
                grid = [0, full / 3, full / 3, full, UNLIMITED, *rng.uniform(0, 1.2 * full + 1, size=3)]
                elicited = _elicit_sweep([(kind, policy)], cost, m, n, grid)
                for budget, units, row_spent in zip(grid, elicited.units, elicited.row_spent, strict=True):
                    _, spent = _elicit(schedule, policy, n, budget)
                    assert _spend(elicited.scales[0], units) == spent
                    assert type(_spend(elicited.scales[0], units)) is type(spent)
                    assert row_spent.hex() == float(spent).hex()
                scale = schedule.scale or 1
                highs, lows = rng.integers(1, 2**62, size=50), rng.integers(1, 2**18, size=50)
                for units in (int(high) * int(low) for high, low in zip(highs, lows)):
                    assert (units / scale).hex() == float(Fraction(units, scale)).hex()


def recorded_totals(monkeypatch):
    """Every batch the sweep hands ``_totals``, as ``(rows of levels, totals by cell)``."""
    batches = []

    def recorded(table, rows, places):
        totals = _totals(table, rows, places)
        batches.append((np.asarray(rows), totals.reshape(-1, totals.shape[-1])))
        return totals

    monkeypatch.setattr(queryvote.experiments, "_totals", recorded)
    return batches


def assert_rows_are_the_one_row_reference(config, rows, totals):
    """Each row of a one-culture sweep, with its batched ``totals``: they are,
    by ``float.hex``, the one-row ``_totals`` of its cell's levels under its
    voter order, its distance is their committee's, and its spend is the
    float of ``_elicit``'s."""
    (spec,), m, n, k, seed = config.cultures, config.m, config.n, config.k, config.master_seed
    grid, strategies = config.budget_grid, config.strategies
    elections = [
        generate(spec.with_seed(derive_seed(seed, 0, spec.seed, e)), m, n, k)
        for e in range(config.elections_per_culture)
    ]
    labels = [strategy_label(*strategy) for strategy in strategies]
    for row, batched in zip(rows, totals.tolist(), strict=True):
        e = elections[row.election]
        strategy_index = labels.index(row.strategy)
        kind, policy = strategies[strategy_index]
        order = substream(seed, 1, 0, row.election, strategy_index, row.repeat).permutation(n)
        schedule = _schedule_of(kind, config.cost, m)
        runs, spent = _elicit(schedule, policy, n, grid[grid.index(row.budget)])
        table = _share_table(schedule, borda_vector(m))
        reference = _totals(table, [expanded(runs)], e._places[order])[0].tolist()
        assert [x.hex() for x in batched] == [x.hex() for x in reference]
        assert row.distance == hamming(select_top_k(reference, k), k_borda(e))
        assert row.spent.hex() == float(spent).hex()


@pytest.mark.parametrize("cost", ["variance_aware", "computational"])
@pytest.mark.parametrize("m, n, repeats", [(1, 1, 1), (1, 6, 2), (5, 1, 3), (9, 4, 2), (4, 7, 3)])
def test_per_election_rows_match_the_one_row_reference(monkeypatch, cost, m, n, repeats):
    """Each row of a sweep over 2 elections x 8 strategies x ``repeats`` voter
    orders and a grid with 0, a repeated budget and unlimited, every election
    scored in one gather: its totals are, by ``float.hex``, the one-row
    ``_totals`` of its cell's levels under its voter order, and its distance
    is their committee's; ``jobs=2`` gives the same rows."""
    batches = recorded_totals(monkeypatch)
    k, seed, spec = max(1, m // 2), 77, CultureSpec("Mallows", seed=2, params={"phi": 0.5})
    full = max(_full_cost(kind, cost, m, n) for kind in QuestionType)
    grid = [0, full / 3, full / 3, full, UNLIMITED]
    config = ExperimentConfig(
        cultures=[spec], m=m, n=n, k=k, elections_per_culture=2, cost=cost,
        budget_grid=grid, voter_order_repeats=repeats, master_seed=seed,
    )
    rows = run_budget_sweep(config)
    assert [levels.shape for levels, _ in batches] == [(8 * repeats, len(grid), n)] * 2
    totals = np.concatenate([totals for _, totals in batches])
    assert len(rows) == len(totals) == 2 * 8 * repeats * len(grid)
    assert_rows_are_the_one_row_reference(config, rows, totals)
    assert run_budget_sweep(config, jobs=2) == rows


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 5])
def test_the_sweep_record_holds_each_cells_own_run(m, n):
    """Every strategy under every registry cost, over a grid with 0, a
    repeated budget and unlimited: the record holds the read budgets, each
    strategy's scale and one table block per question type, in order of
    first use; and each cell's runs, less its block's offset, its units, its
    exact spend (value and type) and its row float (by ``float.hex``) are
    those of ``_elicit``."""
    for cost in COST_FUNCTIONS:
        full = max(_full_cost(kind, cost, m, n) for kind in QuestionType)
        grid = [0, full / 3, full / 3, full, UNLIMITED]
        sweep = _elicit_sweep(ALL_STRATEGIES, cost, m, n, grid)
        assert sweep.budgets == grid
        assert len(sweep.at) == len(ALL_STRATEGIES) * len(grid) + 1
        offsets, offset = {}, 0
        for kind, _ in ALL_STRATEGIES:
            schedule = _schedule_of(kind, cost, m)
            if schedule not in offsets:
                offsets[schedule] = offset
                table = _share_table(schedule, borda_vector(m))
                assert np.array_equal(sweep.table[offset : offset + len(table)], table)
                offset += len(table)
        assert len(offsets) == len(QuestionType) and len(sweep.table) == offset
        cell = 0
        for (kind, policy), scale in zip(ALL_STRATEGIES, sweep.scales, strict=True):
            schedule = _schedule_of(kind, cost, m)
            assert scale == schedule.scale
            for budget in grid:
                first, last = sweep.at[cell], sweep.at[cell + 1]
                levels = (sweep.levels[first:last] - offsets[schedule]).tolist()
                runs, spent = _elicit(schedule, policy, n, budget)
                assert list(zip(levels, sweep.counts[first:last].tolist())) == list(runs)
                assert sweep.units[cell] == _elicit_units(schedule, policy, n, budget)[1]
                assert _spend(scale, sweep.units[cell]) == spent
                assert type(_spend(scale, sweep.units[cell])) is type(spent)
                assert sweep.row_spent[cell].hex() == float(spent).hex()
                cell += 1


@pytest.mark.parametrize("cost", ["variance_aware", "computational"])
def test_strategies_apart_that_share_a_schedule_share_its_table_block(monkeypatch, cost):
    """S-EQ and S-FCFS, with N-FCFS between them, read one table block of the
    split schedule, so the record holds 2 blocks; every row of their sweep is
    still the one-row reference's."""
    m, n = 7, 5
    strategies = [parse_strategy(label) for label in ("S-EQ", "N-FCFS", "S-FCFS")]
    full = max(_full_cost(kind, cost, m, n) for kind in QuestionType)
    grid = [0, full / 3, full / 3, full, UNLIMITED]
    blocks = [_share_table(_schedule_of(kind, cost, m), borda_vector(m)) for kind in ("S", "N")]
    assert np.array_equal(_elicit_sweep(strategies, cost, m, n, grid).table, np.concatenate(blocks))
    batches = recorded_totals(monkeypatch)
    config = ExperimentConfig(
        cultures=[CultureSpec("Urn", seed=4)], m=m, n=n, k=3, elections_per_culture=2,
        strategies=strategies, cost=cost, budget_grid=grid, voter_order_repeats=2, master_seed=12,
    )
    rows = run_budget_sweep(config)
    assert len(rows) == 2 * 3 * 2 * len(grid)
    assert_rows_are_the_one_row_reference(config, rows, np.concatenate([t for _, t in batches]))


def test_gather_bound_groups_whole_blocks_or_splits_one():
    """One sweep under five gather bounds: every block in one gather, three
    whole blocks per gather, two cells of one block, one cell, and exactly
    one whole block, the least bound that still gathers whole blocks. The
    batches take exactly the pinned shapes, and the rows are the same."""
    m, n, repeats = 6, 5, 2
    config = ExperimentConfig(
        cultures=[CultureSpec("Urn", seed=3)], m=m, n=n, k=2, elections_per_culture=2,
        budget_grid=[0, 20, 20, 80, UNLIMITED], voter_order_repeats=repeats, master_seed=9,
    )
    cells, blocks = 5, 8 * repeats
    layouts = {
        2**20: [(blocks, cells, n)],
        3 * cells * n * m: [(3, cells, n)] * 5 + [(1, cells, n)],
        2 * n * m: [(1, 2, n), (1, 2, n), (1, 1, n)] * blocks,
        1: [(1, 1, n)] * cells * blocks,
        cells * n * m: [(1, cells, n)] * blocks,
    }
    swept = []
    for bound, layout in layouts.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(queryvote.experiments, "_GATHER_SHARES", bound)
            batches = recorded_totals(patch)
            swept.append(run_budget_sweep(config))
        assert [levels.shape for levels, _ in batches] == layout * 2
    assert all(rows == swept[0] for rows in swept)
