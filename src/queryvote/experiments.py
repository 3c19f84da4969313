"""Reproducible budget-sweep experiments.

Each experiment cell (culture, election, strategy, budget, repeat) runs the
query-based rule and records the Hamming distance between its committee and
the full-information Borda committee of the same election. All seeds derive
from the master seed by cell key, so results are identical whatever the
worker count or execution order.

A sweep does not re-run elicitation per budget: each (election, strategy,
voter order) runs one trace, read off at every point of the ascending budget
grid by :func:`~queryvote.strategies.sweep_elicitation`. Under ``FCFS`` a run
under budget B is a prefix of the unlimited run; under ``EQ`` it equals the
unlimited run up to the first question B cannot afford, and a copy finishes
the round-robin under B from there. Each snapshot is scored like a single
run, so the rows equal those of one run per budget.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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
    parse_strategy,
    run_elicitation,
    strategy_label,
    sweep_elicitation,
)

# Stream tags for deriving per-cell seeds from the master seed.
_ELECTION_TAG = 0
_ORDER_TAG = 1

CSV_COLUMNS = ("culture", "election", "strategy", "budget", "repeat", "distance", "spent")


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
            if any(b < 0 for b in grid):
                raise ValueError("budgets must be non-negative")
            if grid != sorted(grid):
                raise ValueError("budget_grid must be sorted ascending")
            self.budget_grid = grid
        # Surface bad culture parameters and impossible sizes before any work.
        generate(self.cultures[0].with_seed(0), self.m, self.n, self.k)


def full_resolution_cost(election: Election, kind: QuestionType, cost) -> float:
    """Total cost of resolving every voter completely (an unlimited dry run)."""
    run = run_elicitation(
        election, kind, BudgetPolicy.EQUAL, cost, UNLIMITED, record_log=False
    )
    return float(run.spent)


def default_budget_grid(
    full_cost: float,
    points: int = 12,
    low_fraction: float = 0.01,
    high_fraction: float = 1.2,
    include_zero: bool = True,
    include_unlimited: bool = True,
) -> tuple[float, ...]:
    """Geometric budget grid spanning ``[low, high]`` fractions of a full run."""
    if full_cost <= 0:
        raise ValueError(f"full-resolution cost must be positive, got {full_cost}")
    low = low_fraction * full_cost
    high = high_fraction * full_cost
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
    grids = {}
    for kind, policy in config.strategies:
        label = strategy_label(kind, policy)
        if label not in grids:
            grids[label] = default_budget_grid(full_resolution_cost(probe, kind, config.cost))
    return grids


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
    rows: list[ResultRow] = []
    if jobs == 1:
        for task in tasks:
            rows.extend(_election_rows(task))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_election_rows, tasks):
                rows.extend(chunk)
    return rows


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
    return {
        key: difficulty_score(group, peak_by_strategy[key[0]]) for key, group in groups.items()
    }


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    """Write rows with the stable column set; floats round-trip exactly."""
    path = Path(path)
    try:
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow(
                    [
                        row.culture,
                        row.election,
                        row.strategy,
                        repr(row.budget),
                        row.repeat,
                        row.distance,
                        repr(row.spent),
                    ]
                )
    except OSError as err:
        raise OSError(f"cannot write results to {path}: {err}") from err


def read_csv_rows(path) -> list[ResultRow]:
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if tuple(header or ()) != CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            return [
                ResultRow(
                    culture=culture,
                    election=int(election),
                    strategy=strategy,
                    budget=float(budget),
                    repeat=int(repeat),
                    distance=int(distance),
                    spent=float(spent),
                )
                for culture, election, strategy, budget, repeat, distance, spent in reader
            ]
    except OSError as err:
        raise OSError(f"cannot read results from {path}: {err}") from err


def parse_config(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, with friendly validation errors."""
    required = ("m", "n", "k", "elections_per_culture", "cultures")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"config is missing required keys: {missing}")
    cultures = []
    for entry in data["cultures"]:
        if isinstance(entry, str):
            cultures.append(CultureSpec(kind=entry))
        else:
            cultures.append(
                CultureSpec(
                    kind=entry["kind"],
                    seed=int(entry.get("seed", 0)),
                    params=dict(entry.get("params", {})),
                )
            )
    strategies = [parse_strategy(s) for s in data.get("strategies", [])] or list(ALL_STRATEGIES)
    grid = data.get("budget_grid")
    if grid is not None:
        grid = [parse_budget(b) for b in grid]
    return ExperimentConfig(
        cultures=cultures,
        m=int(data["m"]),
        n=int(data["n"]),
        k=int(data["k"]),
        elections_per_culture=int(data["elections_per_culture"]),
        strategies=strategies,
        cost=str(data.get("cost", "variance_aware")),
        budget_grid=grid,
        voter_order_repeats=int(data.get("voter_order_repeats", 5)),
        master_seed=int(data.get("master_seed", 0)),
    )


def parse_budget(value) -> float:
    """A budget from a config or the command line: a number, or inf/unlimited/infinity."""
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "unlimited", "infinity"):
            return UNLIMITED
        return float(value)
    return float(value)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return parse_config(data)
