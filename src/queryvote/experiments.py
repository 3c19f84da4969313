"""Reproducible budget-sweep experiments.

Each experiment cell (culture, election, strategy, budget, repeat) runs the
query-based rule and records the Hamming distance between its committee and
the full-information Borda committee of the same election. All seeds derive
from the master seed by cell key, so results are identical whatever the
worker count or execution order.

A sweep does not start a fresh elicitation per budget: each (election,
strategy, voter order) resumes the single-run driver along the ascending
budget grid, through :func:`~queryvote.strategies.sweep_elicitation`. Under
``FCFS`` each budget continues the previous budget's run. Under ``EQ`` the
shared run stops at each budget's first refused question and a fork finishes
that budget. Each snapshot is scored like a single run, so the rows equal
those of one run per budget.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, get_type_hints

from .core import Committee, Election, hamming, k_borda, select_top_k
from .costs import get_cost_function
from .cultures import CultureSpec, generate
from .rng import derive_seed, substream
from .scoring import borda_vector, partial_scores
from .strategies import (
    ALL_STRATEGIES,
    UNLIMITED,
    BudgetPolicy,
    QuestionType,
    _check_budget,
    parse_strategy,
    run_elicitation,
    strategy_label,
    sweep_elicitation,
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
            grid = [float(b) for b in self.budget_grid]
            for budget in grid:
                _check_budget(budget)
            if grid != sorted(grid):
                raise ValueError("budget_grid must be sorted ascending")
            self.budget_grid = grid
        # Surface bad culture parameters and impossible sizes before any work.
        generate(self.cultures[0].with_seed(0), self.m, self.n, self.k)


def full_resolution_cost(election: Election, kind: QuestionType, cost) -> float:
    """Total cost of resolving every voter completely (an unlimited dry run)."""
    run = run_elicitation(election, kind, BudgetPolicy.EQUAL, cost, UNLIMITED, record_log=False)
    return float(run.spent)


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


def _election_rows(args) -> list[ResultRow]:
    config, grids, culture_index, election_index = args
    spec = config.cultures[culture_index]
    seed = derive_seed(config.master_seed, _ELECTION_TAG, spec.seed, election_index)
    election = generate(spec.with_seed(seed), config.m, config.n, config.k)
    target = k_borda(election)
    scoring = borda_vector(config.m)
    label = spec.label()
    rows = []
    for strategy_index, (kind, policy) in enumerate(config.strategies):
        name = strategy_label(kind, policy)
        for repeat in range(config.voter_order_repeats):
            order_rng = substream(
                config.master_seed, _ORDER_TAG, culture_index, election_index, strategy_index, repeat
            )
            order = [int(v) for v in order_rng.permutation(config.n)]
            for budget, profile, spent in sweep_elicitation(
                election, kind, policy, config.cost, grids[name], voter_order=order
            ):
                committee = select_top_k(partial_scores(profile, scoring), config.k)
                rows.append(
                    ResultRow(
                        culture=label,
                        election=election_index,
                        strategy=name,
                        budget=float(budget),
                        repeat=repeat,
                        distance=hamming(committee, target),
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
    return 2.0 * k * (1.0 - k / m)


def _grid_sum(rows: list[ResultRow]) -> float:
    """Distances averaged over repeats at each budget, summed over the grid."""
    by_budget: dict[float, list[int]] = {}
    for row in rows:
        by_budget.setdefault(row.budget, []).append(row.distance)
    return sum(sum(d) / len(d) for d in by_budget.values())


def difficulty_score(rows: Iterable[ResultRow], normalizer: float) -> float:
    """How hard one election was for one strategy, scaled to [0, 1].

    Rows must cover one (election, strategy) pair over its whole budget grid.
    Distances are averaged over repeats at each budget, the averages summed
    over the grid, and the sum divided by ``normalizer`` (conventionally the
    largest such sum across elections, making the hardest election score 1).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to score: need the full budget grid for one election")
    total = _grid_sum(rows)
    if total == 0:
        return 0.0
    if normalizer <= 0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    return total / normalizer


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
    list[float] | None: lambda grid: None if grid is None else [parse_budget(b) for b in grid],
}


def parse_budget(value) -> float:
    """A budget from a config or the command line: a number, or inf/unlimited/infinity."""
    if isinstance(value, str) and value.strip().lower() in ("inf", "unlimited", "infinity"):
        return UNLIMITED
    return float(value)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    return parse_config(data)
