"""Reproducible budget-sweep experiments.

Each experiment cell (culture, election, strategy, budget, repeat) runs the
query-based rule and records the Hamming distance between its committee and
the full-information Borda committee of the same election. All seeds derive
from the master seed by cell key, so results are identical whatever the
worker count or execution order.

Under a registry cost every voter is asked the same schedule of questions,
so a run under one budget is one level per voter: the number of questions it
answered, in closed form (see :mod:`queryvote.strategies`). Each budget of a
grid is its own run, scored by the one scorer of
:func:`~queryvote.scoring.partial_scores` over the schedule's table of Borda
shares by level and place, so the rows equal those of
:func:`~queryvote.scoring.query_based_committee` under each budget.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, get_type_hints

from .core import Committee, Election, hamming, k_borda, select_top_k
from .costs import get_cost_function
from .cultures import CultureSpec, generate
from .rng import derive_seed, substream
from .scoring import _share_table, _totals, borda_vector
from .strategies import (
    ALL_STRATEGIES,
    UNLIMITED,
    BudgetPolicy,
    QuestionType,
    _check_budget,
    _elicit,
    _schedule_of,
    _voter_order,
    parse_strategy,
    strategy_label,
)

# Stream tags for deriving per-cell seeds from the master seed.
_ELECTION_TAG = 0
_ORDER_TAG = 1

@dataclass(frozen=True)
class ResultRow:
    """One experiment cell: where it ran, what it cost, how far it landed."""

    culture: str
    election: int
    strategy: str
    budget: float
    repeat: int
    distance: int
    spent: float


# The results CSV holds one column per ``ResultRow`` field, in field order.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_row_values = attrgetter(*CSV_COLUMNS)
_COLUMN_TYPES = tuple(get_type_hints(ResultRow)[name] for name in CSV_COLUMNS)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a sweep.

    ``budget_grid`` may be None, in which case a per-strategy grid is derived
    from a probe election: geometric points between 1% and 120% of that
    strategy's full-resolution cost, plus 0 and the unlimited budget.
    """

    cultures: list[CultureSpec]
    m: int
    n: int
    k: int
    elections_per_culture: int
    strategies: list[tuple[QuestionType, BudgetPolicy]] = field(
        default_factory=lambda: list(ALL_STRATEGIES)
    )
    cost: str = "variance_aware"
    budget_grid: list[float] | None = None
    voter_order_repeats: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if not self.cultures:
            raise ValueError("config needs at least one culture")
        if self.elections_per_culture < 1:
            raise ValueError("elections_per_culture must be at least 1")
        if self.voter_order_repeats < 1:
            raise ValueError("voter_order_repeats must be at least 1")
        if not self.strategies:
            raise ValueError("config needs at least one strategy")
        get_cost_function(self.cost)
        if self.budget_grid is not None:
            try:
                grid = [_json_budget(b) for b in self.budget_grid]
            except ValueError as err:
                raise ValueError(f"budget_grid: {err}") from None
            for budget in grid:
                _check_budget(budget)
            if grid != sorted(grid):
                raise ValueError("budget_grid must be sorted ascending")
            self.budget_grid = grid
        # Rows carry only the label, which leaves out the seed and a Mallows
        # center; two cultures that share one could not be told apart.
        labels = [spec.label() for spec in self.cultures]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"two cultures share the label {label!r}; give them different "
                    "kinds or parameters (the label leaves out seed and center)"
                )
        # Surface bad culture parameters and impossible sizes before any work.
        for spec in self.cultures:
            generate(spec.with_seed(0), self.m, self.n, self.k)


def full_resolution_cost(election: Election, kind: QuestionType, cost) -> float:
    """Total cost of resolving every voter completely: the spend of an unlimited EQ run."""
    schedule = _schedule_of(kind, cost, election.m)
    return float(_elicit(schedule, BudgetPolicy.EQUAL, election.n, UNLIMITED)[1])


# Ends of the default budget grid, as fractions of the full-resolution cost.
_GRID_LOW = 0.01
_GRID_HIGH = 1.2


def default_budget_grid(
    full_cost: float,
    points: int = 12,
    include_zero: bool = True,
    include_unlimited: bool = True,
) -> tuple[float, ...]:
    """Geometric budget grid from 1% to 120% of the full-resolution cost.

    A zero full cost (an election with one candidate needs no question) has
    no geometric points: the grid holds only the endpoints asked for.
    """
    if not full_cost >= 0:
        raise ValueError(f"full-resolution cost must be non-negative, got {full_cost}")
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    grid = []
    if full_cost > 0:
        low = _GRID_LOW * full_cost
        high = _GRID_HIGH * full_cost
        ratio = (high / low) ** (1.0 / (points - 1)) if points > 1 else 1.0
        grid = [low * ratio**i for i in range(points)]
    if include_zero:
        grid.insert(0, 0.0)
    if include_unlimited:
        grid.append(UNLIMITED)
    return tuple(grid)


def _resolved_grids(config: ExperimentConfig) -> dict[str, tuple[float, ...]]:
    if config.budget_grid is not None:
        shared = tuple(config.budget_grid)
        return {strategy_label(k, p): shared for k, p in config.strategies}
    probe_seed = derive_seed(config.master_seed, _ELECTION_TAG, config.cultures[0].seed, 0)
    probe = generate(config.cultures[0].with_seed(probe_seed), config.m, config.n, config.k)
    # The full-resolution cost is an unlimited EQ run, the same for both policies.
    by_kind = {
        kind: default_budget_grid(full_resolution_cost(probe, kind, config.cost))
        for kind in {kind for kind, _ in config.strategies}
    }
    return {strategy_label(k, p): by_kind[k] for k, p in config.strategies}


def sweep_distances(
    election: Election,
    kind: QuestionType,
    policy: BudgetPolicy,
    cost,
    budgets: Sequence,
    voter_order: Sequence[int],
    target: Committee,
) -> Iterator[tuple[object, int, object]]:
    """Hamming distance from ``target`` at every budget of a grid, in grid order.

    Yields ``(budget, distance, spent)`` per entry of ``budgets``: each budget
    is its own run, with the spend of
    :func:`~queryvote.strategies.run_elicitation` under it, scored by Borda
    over the partial profile; the top ``k`` committee is compared with
    ``target``.
    """
    schedule = _schedule_of(kind, cost, election.m)
    policy = BudgetPolicy(policy)
    table = _share_table(schedule, borda_vector(election.m))
    places = election._places[_voter_order(election.n, voter_order)]
    for budget in budgets:
        levels, spent = _elicit(schedule, policy, election.n, budget)
        # The rows are added in run order, not voter order. That gives the
        # totals of partial_scores: every Borda share is a half-integer and
        # every partial sum is far below 2**52, so each addition is exact.
        committee = select_top_k(_totals(table, levels, places), election.k)
        yield budget, hamming(committee, target), spent


def _election_rows(args) -> list[ResultRow]:
    config, grids, culture_index, election_index = args
    spec = config.cultures[culture_index]
    seed = derive_seed(config.master_seed, _ELECTION_TAG, spec.seed, election_index)
    election = generate(spec.with_seed(seed), config.m, config.n, config.k)
    target = k_borda(election)
    label = spec.label()
    rows = []
    for strategy_index, (kind, policy) in enumerate(config.strategies):
        name = strategy_label(kind, policy)
        for repeat in range(config.voter_order_repeats):
            order_rng = substream(
                config.master_seed, _ORDER_TAG, culture_index, election_index, strategy_index, repeat
            )
            order = order_rng.permutation(config.n)
            for budget, distance, spent in sweep_distances(
                election, kind, policy, config.cost, grids[name], order, target
            ):
                rows.append(
                    ResultRow(
                        culture=label,
                        election=election_index,
                        strategy=name,
                        budget=float(budget),
                        repeat=repeat,
                        distance=distance,
                        spent=float(spent),
                    )
                )
    return rows


def run_budget_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the sweep; output is independent of ``jobs``."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    grids = _resolved_grids(config)
    tasks = [
        (config, grids, culture_index, election_index)
        for culture_index in range(len(config.cultures))
        for election_index in range(config.elections_per_culture)
    ]
    if jobs == 1:
        return [row for task in tasks for row in _election_rows(task)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for chunk in pool.map(_election_rows, tasks) for row in chunk]


def random_baseline(election: Election, seed: int) -> Committee:
    """A uniformly random committee of size k, fixed by the seed."""
    rng = substream(seed, 0)
    members = rng.choice(election.m, size=election.k, replace=False)
    return frozenset(int(c) for c in members)


def expected_random_distance(m: int, k: int) -> float:
    """Mean Hamming distance of a uniform random committee from any fixed one.

    The overlap of a random k-set with a fixed k-set is hypergeometric with
    mean k*k/m, so the distance averages 2k(1 - k/m).
    """
    if not 1 <= k <= m:
        raise ValueError(f"committee size k={k} outside [1, {m}]")
    return 2.0 * k * (1.0 - k / m)


def _grid_sum(rows: list[ResultRow]) -> float:
    """Distances averaged over repeats at each budget, summed over the grid."""
    by_budget: dict[float, list[int]] = {}
    for row in rows:
        by_budget.setdefault(row.budget, []).append(row.distance)
    return sum(sum(d) / len(d) for d in by_budget.values())


def difficulty_scores(rows: Iterable[ResultRow]) -> dict[tuple[str, str, int], float]:
    """Per-election difficulty for every (strategy, culture, election) group.

    Each strategy is normalized by its own hardest election, so scores are
    comparable within a strategy and the maximum per strategy is 1 (or 0 if
    the strategy solved everything).
    """
    groups: dict[tuple[str, str, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.strategy, row.culture, row.election), []).append(row)
    sums = {key: _grid_sum(group) for key, group in groups.items()}
    peak_by_strategy: dict[str, float] = {}
    for (strategy, _, _), value in sums.items():
        peak_by_strategy[strategy] = max(peak_by_strategy.get(strategy, 0.0), value)
    return {key: total / peak_by_strategy[key[0]] if total else 0.0 for key, total in sums.items()}


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    """Write rows with the stable column set; floats round-trip exactly."""
    try:
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_row_values, rows))
    except OSError as err:
        raise OSError(f"cannot write results to {path}: {err}") from err


def read_csv_rows(path) -> list[ResultRow]:
    try:
        with Path(path).open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if tuple(header or ()) != CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            return [
                ResultRow(*(cast(value) for cast, value in zip(_COLUMN_TYPES, record, strict=True)))
                for record in reader
            ]
    except OSError as err:
        raise OSError(f"cannot read results from {path}: {err}") from err


def parse_config(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, with friendly validation errors.

    The keys are the fields of :class:`ExperimentConfig`: an omitted key takes
    its field's default, and an unknown key is an error.
    """
    return _from_json(ExperimentConfig, data, "config")


def _from_json(schema, data, what: str):
    """A ``schema`` dataclass from a JSON object, each value parsed by its field's type."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    known = {f.name: f for f in fields(schema)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; known keys: {list(known)}")
    missing = [
        name for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{what} is missing required keys: {missing}")
    types = get_type_hints(schema)
    values = {}
    for name, value in data.items():
        try:
            values[name] = _PARSERS[types[name]](value)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{what} key {name!r}: {err}") from None
    return schema(**values)


def _parse_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_culture(entry) -> CultureSpec:
    if isinstance(entry, str):
        return CultureSpec(kind=entry)
    return _from_json(CultureSpec, entry, "culture entry")


# How a JSON value is read into a config or culture-entry field, by the field's type.
_PARSERS = {
    int: _parse_int,
    str: str,
    Mapping[str, object]: dict,
    list[CultureSpec]: lambda entries: [_parse_culture(entry) for entry in entries],
    list[tuple[QuestionType, BudgetPolicy]]: lambda labels: [parse_strategy(s) for s in labels],
    list[float] | None: lambda grid: None if grid is None else [_json_budget(b) for b in grid],
}

_UNLIMITED_WORDS = ("inf", "unlimited", "infinity")


def parse_budget(value) -> float:
    """A budget from the command line: a number or number string, or inf/unlimited/infinity."""
    if isinstance(value, str) and value.strip().lower() in _UNLIMITED_WORDS:
        return UNLIMITED
    return float(value)


def _json_budget(value) -> float:
    """A budget from a config: a JSON number that is not a bool, or inf/unlimited/infinity."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    is_word = isinstance(value, str) and value.strip().lower() in _UNLIMITED_WORDS
    if not (is_number or is_word):
        raise ValueError(f"expected a number or one of {list(_UNLIMITED_WORDS)}, got {value!r}")
    return parse_budget(value)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    return parse_config(data)
