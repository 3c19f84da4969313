"""The three benchmark workloads.

Each workload has a production path (``run``: what ``queryvote run``,
``queryvote generate``/``sweep`` or ``queryvote audit-costs`` executes), a
traced path (``replay``: the same work through the public functions of each
module, with a span around every call), and a ``check`` that validates one
output op by op. ``queryvote`` must be importable before this module is.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from queryvote.core import hamming, k_borda, select_top_k
from queryvote.costs import (
    ALL_AXIOMS,
    COST_FUNCTIONS,
    Axiom,
    audit_axiom,
    audit_csv_rows,
    audit_grid,
    get_cost_function,
)
from queryvote.cultures import CultureSpec, generate
from queryvote.election_io import load_election, write_native
from queryvote.experiments import (
    ExperimentConfig,
    ResultRow,
    default_budget_grid,
    emit_csv,
    full_resolution_cost,
    run_budget_sweep,
)
from queryvote.queries import QuestionType
from queryvote.rng import derive_seed, substream
from queryvote.scoring import borda_vector, partial_scores
from queryvote.strategies import ALL_STRATEGIES, run_elicitation, strategy_label

from spans import NULL

# Stream tags of queryvote.experiments (election seeds, voter orders); the
# replay must derive the same streams, and the replay check catches drift.
_ELECTION_TAG = 0
_ORDER_TAG = 1

# Relative slack the cost audit allows between float costs.
_FLOAT_SLACK = 1e-9


@dataclass
class Output:
    """What one unit of a workload produced.

    ``rows`` are compared between the production and the traced path,
    ``payload`` is the byte string whose SHA-256 is pinned at the default
    seed, and ``runs`` holds ``(group, budget, spent, queries)`` per
    elicitation run (``queries`` is None unless the log was recorded).
    ``counts`` holds per-unit layer counts, ``verdicts`` the audit's
    ``(function, axiom, verdict)`` triples, and ``broken`` the ops already
    known to have failed.
    """

    rows: list
    payload: bytes
    runs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    broken: int = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def distance_ok(distance: int, k: int) -> bool:
    return distance % 2 == 0 and 0 <= distance <= 2 * k


class Laps(dict):
    """Seconds per repeat of each timed part of a unit, by part name.

    ``before`` runs ahead of every part, outside its time.
    """

    def __init__(self, before=None):
        super().__init__()
        self.before = before

    def begin(self) -> float:
        if self.before is not None:
            self.before()
        return perf_counter()

    def end(self, part: str, start: float) -> None:
        self.setdefault(part, []).append(perf_counter() - start)


def runs_failed(runs) -> int:
    """Runs that spent more than their budget (exact comparison)."""
    return sum(1 for _, budget, spent, _ in runs if not spent <= budget)


class DeskSweep:
    """The paper's budget sweep at desk scale, run as ``queryvote run`` does.

    IC at m=n=20, k=10, all 8 strategies, ``variance_aware`` (exact) costs, 10
    geometric budgets from 1% to 120% of the heaviest full-resolution cost on
    the probe election IC seed 0, one voter order, CSV written by
    ``emit_csv``. Elicitation dominates; generation is under 1%.
    """

    name = "desk-sweep"
    default_seed = 2025
    # SHA-256 of the CSV at the default seed; equals `queryvote run` on the same config.
    digest = "84ff636f10a8115fbcfab7c8fcc50ed9d2ac6b0f57756187c9e1d1abd82e27db"

    def __init__(self, m=20, n=20, k=10, elections=2, points=10, culture_seed=101):
        self.m, self.n, self.k = m, n, k
        self.elections = elections
        self.points = points
        self.culture_seed = culture_seed
        self.cost = "variance_aware"

    def params(self) -> dict:
        return {
            "culture": "IC", "culture_seed": self.culture_seed, "m": self.m, "n": self.n,
            "k": self.k, "elections": self.elections, "strategies": 8, "cost": self.cost,
            "budget_points": self.points, "voter_order_repeats": 1, "jobs": 1,
        }

    def setup(self, seed: int, tracer, out_dir: Path):
        probe = generate(CultureSpec("IC", seed=0), self.m, self.n, self.k)
        heaviest = max(
            tracer.call("experiments.full_resolution_cost", full_resolution_cost, probe, kind, self.cost)
            for kind in QuestionType
        )
        grid = default_budget_grid(
            heaviest, points=self.points, include_zero=False, include_unlimited=False
        )
        config = ExperimentConfig(
            cultures=[CultureSpec("IC", seed=self.culture_seed)],
            m=self.m, n=self.n, k=self.k,
            elections_per_culture=self.elections,
            strategies=list(ALL_STRATEGIES),
            cost=self.cost,
            budget_grid=list(grid),
            voter_order_repeats=1,
            master_seed=seed,
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return {"config": config, "csv": out_dir / "desk-sweep.csv"}

    def _emit(self, state, rows, tracer) -> bytes:
        tracer.call("experiments.emit_csv", emit_csv, rows, state["csv"])
        return state["csv"].read_bytes()

    def run(self, state, tracer=NULL, laps=None) -> Output:
        laps = Laps() if laps is None else laps
        start = laps.begin()
        rows = tracer.call("experiments.run_budget_sweep", run_budget_sweep, state["config"], jobs=1)
        output = Output(rows=rows, payload=self._emit(state, rows, tracer))
        laps.end("sweep", start)
        return output

    def replay(self, state, tracer, record_log=False) -> Output:
        """Re-run every cell of ``run_budget_sweep`` through the layer functions."""
        config = state["config"]
        m, n, k = config.m, config.n, config.k
        scoring = borda_vector(m)
        rows, runs = [], []
        for ci, spec in enumerate(config.cultures):
            label = spec.label()
            for ei in range(config.elections_per_culture):
                tracer.op = ei
                seed = derive_seed(config.master_seed, _ELECTION_TAG, spec.seed, ei)
                election = tracer.call(
                    "cultures.generate", generate, spec.with_seed(seed), m, n, k, tag=spec.kind
                )
                target = tracer.call("core.k_borda", k_borda, election)
                for si, (kind, policy) in enumerate(config.strategies):
                    name = strategy_label(kind, policy)
                    for repeat in range(config.voter_order_repeats):
                        rng = tracer.call(
                            "rng.substream", substream,
                            config.master_seed, _ORDER_TAG, ci, ei, si, repeat,
                        )
                        order = [int(v) for v in rng.permutation(n)]
                        for budget in config.budget_grid:
                            run = tracer.call(
                                "strategies.run_elicitation", run_elicitation,
                                election, kind, policy, config.cost, budget,
                                voter_order=order, record_log=record_log, tag=name,
                            )
                            totals = tracer.call(
                                "scoring.partial_scores", partial_scores, run.profile, scoring
                            )
                            committee = tracer.call("core.select_top_k", select_top_k, totals, k)
                            distance = tracer.call("core.hamming", hamming, committee, target)
                            rows.append(
                                ResultRow(
                                    culture=label, election=ei, strategy=name,
                                    budget=float(budget), repeat=repeat,
                                    distance=distance, spent=float(run.spent),
                                )
                            )
                            runs.append(
                                (
                                    (ci, ei, si, repeat), run.budget, run.spent,
                                    len(run.log) if record_log else None,
                                )
                            )
        return Output(rows=rows, payload=self._emit(state, rows, tracer), runs=runs)

    def check(self, state, output: Output) -> tuple[int, int]:
        """(attempted, failed) ops: one op is one CSV row."""
        k = state["config"].k
        failed = sum(
            1
            for row in output.rows
            if not (row.spent <= row.budget and distance_ok(row.distance, k))
        )
        return len(output.rows), failed + runs_failed(output.runs)


class WideFloat:
    """``queryvote generate`` -> file -> ``sweep`` at 100 x 250, float costs.

    Per unit: one election each from IC, Euclidean2D, Urn and Mallows
    (phi=0.8), written with ``write_native`` and read back with
    ``load_election``, then all 8 strategies at one budget of 50000 under
    ``computational`` costs, below every strategy's full-resolution cost
    (168000 for S, 1262250 for N). 250 voters rather than 1000 keep a unit
    near 1 s, so that a run holds enough of them for a steady estimate.
    """

    name = "wide-float"
    default_seed = 0
    # SHA-256 of the (culture, strategy, distance, spent) lines at the default seed.
    digest = "b4fb827d6f12d57b49437be7a68ac46bcaf007984e64b26704c661ed4d0548ab"
    kinds = ("IC", "Euclidean2D", "Urn", "Mallows")

    def __init__(self, m=100, n=250, k=10, budget=50_000):
        self.m, self.n, self.k = m, n, k
        self.budget = budget
        self.cost = "computational"

    def params(self) -> dict:
        return {
            "cultures": ["IC", "Euclidean2D", "Urn", "Mallows[phi=0.8]"], "m": self.m,
            "n": self.n, "k": self.k, "strategies": 8, "cost": self.cost,
            "budget": self.budget, "format": "native",
        }

    def setup(self, seed: int, tracer, out_dir: Path):
        specs = [
            CultureSpec(kind, seed=seed, params={"phi": 0.8} if kind == "Mallows" else {})
            for kind in self.kinds
        ]
        out_dir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "specs": specs, "dir": out_dir}

    def run(self, state, tracer=NULL, laps=None) -> Output:
        return self.replay(state, NULL, laps=laps)

    def replay(self, state, tracer, record_log=False, laps=None) -> Output:
        laps = Laps() if laps is None else laps
        m, n, k = self.m, self.n, self.k
        scoring = borda_vector(m)
        rows, runs = [], []
        io_bytes = broken = 0
        for ci, spec in enumerate(state["specs"]):
            tracer.op = ci
            start = laps.begin()
            election = tracer.call("cultures.generate", generate, spec, m, n, k, tag=spec.kind)
            path = state["dir"] / f"wide-float-{spec.kind}.elec"
            tracer.call("election_io.write_native", write_native, election, path)
            io_bytes += path.stat().st_size
            loaded = tracer.call("election_io.load_election", load_election, path)
            round_trip_ok = loaded == election
            target = tracer.call("core.k_borda", k_borda, loaded)
            rng = tracer.call("rng.substream", substream, state["seed"], 0)
            order = [int(v) for v in rng.permutation(n)]
            laps.end(spec.kind, start)
            label = spec.label()
            for si, (kind, policy) in enumerate(ALL_STRATEGIES):
                name = strategy_label(kind, policy)
                start = laps.begin()
                run = tracer.call(
                    "strategies.run_elicitation", run_elicitation,
                    loaded, kind, policy, self.cost, self.budget,
                    voter_order=order, record_log=record_log, tag=name,
                )
                totals = tracer.call("scoring.partial_scores", partial_scores, run.profile, scoring)
                committee = tracer.call("core.select_top_k", select_top_k, totals, k)
                distance = tracer.call("core.hamming", hamming, committee, target)
                rows.append((label, name, distance, float(run.spent)))
                runs.append(((ci, si), run.budget, run.spent, len(run.log) if record_log else None))
                broken += not round_trip_ok
                laps.end(f"{spec.kind}/{name}", start)
        payload = "".join(f"{c},{s},{d},{sp!r}\n" for c, s, d, sp in rows).encode()
        return Output(
            rows=rows, payload=payload, runs=runs,
            counts={"election_io.bytes": io_bytes}, broken=broken,
        )

    def check(self, state, output: Output) -> tuple[int, int]:
        """(attempted, failed) ops: one op is one committee."""
        failed = sum(1 for _, _, distance, _ in output.rows if not distance_ok(distance, self.k))
        return len(output.rows), failed + runs_failed(output.runs) + output.broken


def violates(fn, axiom: Axiom, counterexample) -> bool:
    """Whether a reported counterexample re-evaluates as a violation of ``axiom``."""
    low_query, high_query, low, high = counterexample
    if fn(low_query) != low or fn(high_query) != high:
        return False
    slack = 0.0
    if isinstance(low, float) or isinstance(high, float):
        slack = _FLOAT_SLACK * max(1.0, abs(high))
    if axiom is Axiom.MULTIPLE_MONOTONICITY:
        factor = len(high_query.subset) // len(low_query.subset)
        return high < factor * low - slack
    return not low < high - slack


class AxiomAudit:
    """``audit_grid``: 5 cost functions x 3 axioms, the costs layer alone.

    A unit samples 250 pairs per cell, a fortieth of the CLI default, so that
    a run holds enough units for a steady estimate on a shared host; the work
    per pair is the same.
    """

    name = "axiom-audit"
    default_seed = 0
    # SHA-256 of the grid CSV at the default seed; equals `queryvote audit-costs --csv`.
    digest = "a1daec6f7d45bdd41db6fdaeb0ee698c79ec70d0536cb411711afdfbe1759caa"

    def __init__(self, trials=250):
        self.trials = trials

    def params(self) -> dict:
        return {"trials": self.trials, "functions": list(COST_FUNCTIONS), "axioms": [a.value for a in ALL_AXIOMS]}

    def setup(self, seed: int, tracer, out_dir: Path):
        return {"seed": seed}

    def _output(self, grid) -> Output:
        rows = audit_csv_rows(grid)
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=("function", "axiom", "holds", "counterexample"), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
        verdicts = [(name, axiom, verdict) for (name, axiom), verdict in grid.items()]
        counts = {
            "costs.pairs_checked": sum(verdict.trials for _, _, verdict in verdicts),
            "costs.counterexamples": sum(not verdict.holds for _, _, verdict in verdicts),
        }
        return Output(
            rows=rows, payload=buffer.getvalue().encode(), counts=counts, verdicts=verdicts
        )

    def run(self, state, tracer=NULL, laps=None) -> Output:
        laps = Laps() if laps is None else laps
        start = laps.begin()
        grid = tracer.call("costs.audit_grid", audit_grid, trials=self.trials, seed=state["seed"])
        laps.end("grid", start)
        return self._output(grid)

    def replay(self, state, tracer, record_log=False) -> Output:
        """Re-run ``audit_grid`` cell by cell through ``audit_axiom``."""
        grid = {}
        for fi, name in enumerate(COST_FUNCTIONS):
            for ai, axiom in enumerate(ALL_AXIOMS):
                tracer.op = fi * len(ALL_AXIOMS) + ai
                grid[(name, axiom)] = tracer.call(
                    "costs.audit_axiom", audit_axiom, name, axiom,
                    trials=self.trials, seed=derive_seed(state["seed"], fi, ai),
                    tag=f"{name}/{axiom.value}",
                )
        return self._output(grid)

    def check(self, state, output: Output) -> tuple[int, int]:
        """(attempted, failed) ops: one op is one checked query pair.

        A counterexample that does not re-evaluate as a violation fails.
        """
        failed = 0
        for name, axiom, verdict in output.verdicts:
            if verdict.holds != (verdict.counterexample is None):
                failed += 1
            elif not verdict.holds and not violates(get_cost_function(name), axiom, verdict.counterexample):
                failed += 1
        return output.counts["costs.pairs_checked"], failed


WORKLOADS = {w.name: w for w in (DeskSweep(), WideFloat(), AxiomAudit())}
