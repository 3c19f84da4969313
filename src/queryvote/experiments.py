"""Reproducible budget-sweep experiments.

Each experiment cell (culture, election, strategy, budget, repeat) runs the
query-based rule and records the Hamming distance between its committee and
the full-information Borda committee of the same election. All seeds derive
from the master seed by cell key, so results are identical whatever the
worker count or execution order.

Under a registry cost every voter is asked the same schedule of questions,
so a run under one budget is one level per voter: the number of questions it
answered, in closed form (see :mod:`queryvote.strategies`). Each budget of a
grid is its own run, and its runs of levels and its spend depend on the
budget and the number of voters only. So :func:`run_budget_sweep` elicits
every (strategy, budget) cell once, into one record, :class:`_Sweep`: the
read budgets, each cell's runs (not one level per voter) and spend, and one
table of Borda shares by level and place, with one block per distinct
schedule, which EQ and FCFS of a question type share.

Each election is then one pass (:func:`_election_rows`): it is generated,
and all its strategies x repeats voter orders are seeded in one pass of
:func:`~queryvote.rng._streams`, each bit-identical to its ``substream``,
into one array ``(strategies, repeats, n)``. :func:`_distances` scores every
(strategy, repeat) block of budgets against the election's k-Borda committee
into one array ``(strategies, repeats, budgets)``: the runs of a range of
cells, expanded by one ``np.repeat``, form their arrays of levels, which the
one scorer of :func:`~queryvote.scoring.partial_scores` gathers from the
record's table. One loop takes the blocks a group at a time, as many whole
blocks as fit under a bound of shares, and a block's cells a batch at a
time, all of them unless one block does not fit; every gather has one shape,
and one stable sort picks every committee of the batch. So the rows equal
those of :func:`~queryvote.scoring.query_based_committee` under each budget.
``queryvote sweep`` takes the same two calls, :func:`_elicit_sweep` and then
:func:`_distances`, with one voter order per repeat for every strategy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Committee, Election, _count, _named, _top_k_rows, _whole, k_borda
from .costs import COST_FUNCTIONS
from .cultures import CultureSpec, generate
from .rng import _streams, derive_seed, substream
from .scoring import _share_table, _totals, borda_vector
from .strategies import (
    ALL_STRATEGIES,
    UNLIMITED,
    BudgetPolicy,
    QuestionType,
    _budget,
    _elicit,
    _elicit_units,
    _schedule_of,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep.

    The constructor is the one reader of every field, in Python and for
    :func:`parse_config` alike. A ``cultures`` entry is a
    :class:`~queryvote.cultures.CultureSpec`, a kind name or a mapping of a
    spec's fields; a ``strategies`` entry is read by
    :func:`~queryvote.strategies.parse_strategy`; ``cost`` is stored as its
    registry name, read by the name rule of :func:`~queryvote.core._named`;
    and each ``budget_grid`` entry as the budget rule of
    :mod:`queryvote.strategies` reads it. The list fields are stored as
    tuples, so a config is a value: no part of it changes after the checks,
    and it hashes. ``dataclasses.replace`` makes a changed copy, checked anew.

    ``budget_grid`` may be None, in which case every strategy gets the one
    grid of ``m``, ``n`` and ``cost``: 12 geometric points from 1% to 120% of
    the heaviest of the four question types' full-resolution costs, plus 0
    and unlimited. Each budget caps the spend of every strategy alike, so a
    cheaper question type reaches full resolution earlier in the grid.
    """

    cultures: tuple[CultureSpec, ...]
    m: int
    n: int
    k: int
    elections_per_culture: int
    strategies: tuple[tuple[QuestionType, BudgetPolicy], ...] = ALL_STRATEGIES
    cost: str = "variance_aware"
    budget_grid: tuple | None = None
    voter_order_repeats: int = 5
    master_seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "k", "elections_per_culture", "voter_order_repeats", "master_seed"):
            read = _whole if name in ("k", "master_seed") else _count
            object.__setattr__(self, name, read(name, getattr(self, name)))
        object.__setattr__(self, "cultures", _each("cultures", self.cultures, _culture))
        if not self.cultures:
            raise ValueError("config needs at least one culture")
        object.__setattr__(self, "strategies", _each("strategies", self.strategies, parse_strategy))
        if not self.strategies:
            raise ValueError("config needs at least one strategy")
        # Rows carry only the strategy's label, so a repeat could not be told apart.
        strategies = [strategy_label(kind, policy) for kind, policy in self.strategies]
        for label in strategies:
            if strategies.count(label) > 1:
                raise ValueError(f"the strategy {label!r} is listed twice")
        object.__setattr__(self, "cost", _named(COST_FUNCTIONS, self.cost, "cost function")[0])
        if self.budget_grid is not None:
            grid = _each("budget_grid", self.budget_grid, _budget)
            if not grid:
                raise ValueError("budget_grid must not be empty")
            if list(grid) != sorted(grid):
                raise ValueError("budget_grid must be sorted ascending")
            object.__setattr__(self, "budget_grid", grid)
        # Rows carry only the label, which leaves out the seed and a Mallows
        # center; two cultures that share one could not be told apart.
        labels = [spec.label() for spec in self.cultures]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"two cultures share the label {label!r}; give them different "
                    "kinds or parameters (the label leaves out seed and center)"
                )
        # Surface bad culture parameters and an impossible m or k before any
        # work. One voter is enough: no culture's check reads the voter count.
        for spec in self.cultures:
            generate(spec.with_seed(0), self.m, 1, self.k)


def _each(name: str, entries, read) -> tuple:
    """A list field as the tuple of its entries read by ``read``; any error names the field."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{name}: expected a list, got {entries!r}")
    try:
        return tuple(map(read, entries))
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def _culture(entry) -> CultureSpec:
    """A ``cultures`` entry: a spec as it is, a kind name, or a mapping of a spec's fields."""
    if isinstance(entry, str):
        entry = CultureSpec(entry)
    return entry if isinstance(entry, CultureSpec) else _from_json(CultureSpec, entry, "culture entry")


def full_resolution_cost(election: Election, kind: QuestionType, cost) -> float:
    """Total cost of resolving every voter completely: the spend of an unlimited EQ run.

    Every voter is asked the same schedule, so only the election's ``m`` and
    ``n`` matter, not its rankings.
    """
    return _full_cost(kind, cost, election.m, election.n)


def _full_cost(kind: QuestionType, cost, m: int, n: int) -> float:
    """The full-resolution cost of ``n`` voters over ``m`` candidates."""
    return float(_elicit(_schedule_of(kind, cost, m), BudgetPolicy.EQUAL, n, UNLIMITED)[1])


# Ends of the default budget grid, as fractions of the full-resolution cost, and its size.
_GRID_LOW = 0.01
_GRID_HIGH = 1.2
_GRID_POINTS = 12


def default_budget_grid(
    full_cost: float,
    points: int = _GRID_POINTS,
    include_zero: bool = True,
    include_unlimited: bool = True,
) -> tuple[float, ...]:
    """Geometric budget grid from 1% to 120% of the full-resolution cost.

    ``full_cost`` is read by the budget rule and must be finite. A zero full
    cost (an election with one candidate needs no question) has no geometric
    points: the grid holds only the endpoints asked for.
    """
    full_cost = _budget(full_cost, "full-resolution cost")
    if not math.isfinite(full_cost):
        raise ValueError(f"full-resolution cost must be finite, got {full_cost}")
    points = _count("points", points)
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


def _default_grid(m: int, n: int, cost, points: int = _GRID_POINTS) -> tuple[float, ...]:
    """The one default grid: every strategy is compared at the same budgets, scaled
    to the heaviest full-resolution cost of all four question types at (m, n)."""
    return default_budget_grid(max(_full_cost(kind, cost, m, n) for kind in QuestionType), points)


# The most shares one batched gather of a sweep holds, about 8 MB of floats;
# a batch is at least one cell.
_GATHER_SHARES = 2**20


@dataclass(frozen=True)
class _Sweep:
    """Every strategy's grid of a sweep, elicited once for its ``n`` voters:
    the one record that a sweep scores and writes rows from.

    ``budgets`` are the grid's budgets as the budget rule reads them, and
    cell ``s * len(budgets) + i`` is strategy s under ``budgets[i]``. Its
    spend is ``units[c]`` in its schedule's units and ``row_spent[c]`` as a
    float, ``units[c] / scales[s]``, with ``scales[s]`` the scale of the
    strategy's schedule (read as 1 when None). ``table`` holds one block of
    Borda shares by level and place per distinct schedule, in order of first
    use, so EQ and FCFS of a question type share theirs. Cell c's runs are
    ``levels[at[c]:at[c + 1]]`` and ``counts[at[c]:at[c + 1]]``, each level
    offset to its schedule's block of ``table``, so expanding a range of
    cells is one ``np.repeat``. A cell has at most max(m, 3) runs, so the
    record takes O(cells x m) memory whatever n is.
    """

    budgets: list
    scales: list
    units: list
    row_spent: list
    table: np.ndarray
    levels: np.ndarray
    counts: np.ndarray
    at: list


def _elicit_sweep(strategies, cost, m: int, n: int, budgets: Sequence) -> _Sweep:
    """Every strategy's schedule and policy read, then every budget, and each
    (strategy, budget) cell elicited once for ``n`` voters over ``m``
    candidates, straight into the flat runs of the record."""
    schedules, policies = [], []
    for kind, policy in strategies:
        schedules.append(_schedule_of(kind, cost, m))
        policies.append(_named(BudgetPolicy, policy, "budget policy")[1])
    budgets = [_budget(budget) for budget in budgets]
    tables = {schedule: _share_table(schedule, borda_vector(m)) for schedule in schedules}
    offsets = dict(zip(tables, accumulate(map(len, tables.values()), initial=0)))
    levels, counts, at, units, row_spent = [], [], [0], [], []
    for schedule, policy in zip(schedules, policies):
        offset, scale = offsets[schedule], schedule.scale or 1
        for budget in budgets:
            runs, spent = _elicit_units(schedule, policy, n, budget)
            for level, count in runs:
                levels.append(level + offset)
                counts.append(count)
            at.append(len(levels))
            units.append(spent)
            # One correctly rounded division: the float of Fraction(units, scale).
            row_spent.append(spent / scale)
    return _Sweep(
        budgets=budgets,
        scales=[schedule.scale for schedule in schedules],
        units=units,
        row_spent=row_spent,
        table=np.concatenate(list(tables.values())),
        levels=np.array(levels, dtype=np.intp),
        counts=np.array(counts, dtype=np.intp),
        at=at,
    )


def _distances(sweep: _Sweep, election: Election, orders: np.ndarray, target: Committee) -> np.ndarray:
    """The Hamming distance from ``target``, the election's k-Borda committee,
    at every cell of ``sweep`` under every voter order of ``election``:
    ``orders[s, r]`` is repeat r's order for strategy s, and the result is an
    int array ``(strategies, repeats, budgets)``.

    One loop takes the (strategy, repeat) blocks ``group`` at a time and their
    cells ``batch`` at a time: whole blocks, as many as fit under
    ``_GATHER_SHARES`` shares, or, when one block does not fit, one block a
    run of its cells at a time. Each batch is one
    :func:`~queryvote.scoring._totals` gather of ``(g, b, n)`` rows with
    ``(g, 1, n, m)`` places from the record's table, and one top-k pick and
    count of hits.
    """
    m, k = election.m, election.k
    in_target = np.zeros(m, dtype=bool)
    in_target[list(target)] = True
    strategies, repeats, n = orders.shape
    cells = len(sweep.budgets)
    distances = np.empty((strategies, repeats, cells), dtype=np.intp)
    blocks, by_block = orders.reshape(-1, n), distances.reshape(-1, cells)
    # A group of two or more blocks has every cell in one batch, so the runs
    # of a batch are always one range of the record.
    group = max(1, _GATHER_SHARES // (cells * n * m))
    batch = min(cells, max(1, _GATHER_SHARES // (n * m)))
    for start in range(0, len(blocks), group):
        stop = min(start + group, len(blocks))
        first, last = start // repeats, (stop - 1) // repeats + 1
        # Each block's strategy, counted from the group's first.
        pick = np.arange(start, stop) // repeats - first
        places = election._places[blocks[start:stop]][:, None]
        for low in range(0, cells, batch):
            high = min(low + batch, cells)
            runs = slice(sweep.at[first * cells + low], sweep.at[(last - 1) * cells + high])
            rows = np.repeat(sweep.levels[runs], sweep.counts[runs])
            rows = rows.reshape(last - first, high - low, n)[pick]
            # The voters are added in run order, not id order. That gives the
            # totals of partial_scores: every Borda share is a half-integer and
            # every partial sum is far below 2**52, so each addition is exact.
            totals = _totals(sweep.table, rows, places)
            hits = in_target[_top_k_rows(totals.reshape(-1, m), k)].sum(axis=1)
            by_block[start:stop, low:high] = (2 * (k - hits)).reshape(stop - start, -1)
    return distances


def _election_rows(args) -> list[ResultRow]:
    """The per-election step of a sweep: the election generated, all its voter
    orders seeded in one pass, and every strategy x repeat x budget cell
    scored by :func:`_distances` against its k-Borda target."""
    config, sweep, culture_index, election_index = args
    spec = config.cultures[culture_index]
    seed = derive_seed(config.master_seed, _ELECTION_TAG, spec.seed, election_index)
    election = generate(spec.with_seed(seed), config.m, config.n, config.k)
    shape = (len(config.strategies), config.voter_order_repeats)
    streams = _streams(config.master_seed, (_ORDER_TAG, culture_index, election_index), shape)
    orders = np.array([rng.permutation(config.n) for rng in streams]).reshape(*shape, config.n)
    distances = _distances(sweep, election, orders, k_borda(election)).tolist()
    label = spec.label()
    budgets = [float(budget) for budget in sweep.budgets]
    cells = len(budgets)
    rows = []
    for strategy_index, (kind, policy) in enumerate(config.strategies):
        name = strategy_label(kind, policy)
        row_spent = sweep.row_spent[strategy_index * cells : (strategy_index + 1) * cells]
        for repeat, cell_distances in enumerate(distances[strategy_index]):
            rows += (
                ResultRow(label, election_index, name, budget, repeat, distance, spent)
                for budget, distance, spent in zip(budgets, cell_distances, row_spent)
            )
    return rows


def run_budget_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the sweep; output is independent of ``jobs``.

    Each strategy's grid is elicited once, and every election and voter
    order is scored from its runs.
    """
    jobs = _count("jobs", jobs)
    budgets = config.budget_grid
    if budgets is None:
        budgets = _default_grid(config.m, config.n, config.cost)
    sweep = _elicit_sweep(config.strategies, config.cost, config.m, config.n, budgets)
    tasks = [
        (config, sweep, culture_index, election_index)
        for culture_index in range(len(config.cultures))
        for election_index in range(config.elections_per_culture)
    ]
    if jobs == 1:
        return [row for task in tasks for row in _election_rows(task)]
    # The pool loads multiprocessing and its modules, which a jobs=1 run does without.
    from concurrent.futures import ProcessPoolExecutor

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
    m, k = _whole("m", m), _whole("k", k)
    # A k below 1 is named as a committee size even when m is below 1 too.
    if k < 1 or k > _count("m", m):
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


def parse_config(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, with friendly validation errors.

    The keys are the fields of :class:`ExperimentConfig`: an omitted key takes
    its field's default, and an unknown key is an error. Every value is read
    by the constructor, as in Python.
    """
    return _from_json(ExperimentConfig, data, "config")


def _from_json(schema, data, what: str):
    """A ``schema`` dataclass from a JSON object: its keys checked, and a whole
    number in an int field read as an int (JSON may write 4 as ``4.0``)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    known = {f.name: f for f in fields(schema)}
    unknown = sorted(set(data) - set(known), key=str)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; known keys: {list(known)}")
    missing = [
        name for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{what} is missing required keys: {missing}")
    values = dict(data)
    for name, value in data.items():
        if known[name].type in ("int", int):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
                raise ValueError(f"{what} key {name!r}: expected an integer, got {value!r}")
            values[name] = int(value)
    return schema(**values)


def parse_budget(text: str):
    """A budget from the command line: ``float(text)``, else the budget rule's reading."""
    try:
        return float(text)
    except ValueError:
        return _budget(text)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    except UnicodeDecodeError as err:
        raise ValueError(f"{path} is not UTF-8 text: {err}") from err
    return parse_config(data)
