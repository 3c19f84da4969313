"""Command-line interface.

Subcommands: ``generate`` samples an election from a culture and writes it to
a file, ``run`` executes an experiment config and writes a results CSV,
``audit-costs`` prints the cost-function axiom grid, and ``sweep`` runs all
eight strategies on one election over a budget grid.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import election_io
from .core import _count, _named, _whole
from .costs import audit_csv_rows, audit_grid, format_audit_table
from .cultures import KINDS, CultureSpec, generate
from .experiments import (
    _GRID_POINTS,
    _default_grid,
    _distances,
    _elicit_sweep,
    difficulty_scores,
    emit_csv,
    load_config,
    parse_budget,
    run_budget_sweep,
)
from .rng import substream
from .strategies import ALL_STRATEGIES, strategy_label


_WRITERS = {"native": election_io.write_native, "preflib": election_io.write_preflib}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryvote",
        description="Committee selection from budgeted preference queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an election from a culture")
    gen.add_argument("culture", help=f"culture kind, one of {', '.join(KINDS)}")
    gen.add_argument("--m", required=True, help="number of candidates")
    gen.add_argument("--n", required=True, help="number of voters")
    gen.add_argument("--k", required=True, help="committee size")
    gen.add_argument("--seed", default=0)
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="culture parameter, e.g. phi=0.2 or center=[3,2,1,0]; a value that is "
        "not a number is read as JSON (repeatable)",
    )
    gen.add_argument("--out", required=True, help="output file path")
    gen.add_argument("--format", default="native", help=f"one of {', '.join(_WRITERS)}")
    gen.set_defaults(handler=_cmd_generate)

    run = sub.add_parser("run", help="run an experiment config, write results CSV")
    run.add_argument("config", help="JSON experiment config file")
    run.add_argument("--out", required=True, help="results CSV path")
    run.add_argument("--jobs", default=1, help="worker processes")
    run.add_argument("--seed", default=None, help="override the master seed")
    run.add_argument(
        "--difficulty",
        action="store_true",
        help="also print per-culture mean difficulty per strategy",
    )
    run.set_defaults(handler=_cmd_run)

    audit = sub.add_parser("audit-costs", help="check cost functions against the axioms")
    audit.add_argument("--trials", default=10_000, help="sampled pairs per cell")
    audit.add_argument("--seed", default=0)
    audit.add_argument("--csv", default=None, help="also write the grid as CSV here")
    audit.set_defaults(handler=_cmd_audit)

    sweep = sub.add_parser("sweep", help="all strategies on one election file")
    sweep.add_argument("election", help="election file (native or PrefLib)")
    sweep.add_argument("--k", default=None, help="committee size (PrefLib files only)")
    sweep.add_argument("--cost", default="variance_aware", help="cost function, by name")
    sweep.add_argument(
        "--budgets",
        default=None,
        help="comma-separated budgets; 'inf' allowed (default: derived grid)",
    )
    sweep.add_argument("--points", default=_GRID_POINTS, help="derived grid size")
    sweep.add_argument("--repeats", default=1, help="voter orders per budget")
    sweep.add_argument("--seed", default=0, help="seed for voter orders")
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _read_ints(args) -> None:
    """Read each int option given on the command line by the rules of core:
    ``--k`` and ``--seed`` by the int rule, every other one by the count rule."""
    for name in ("m", "n", "k", "seed", "jobs", "trials", "points", "repeats"):
        value = getattr(args, name, None)
        if isinstance(value, str):
            read = _whole if name in ("k", "seed") else _count
            try:
                value = int(value)
            except ValueError:
                pass
            setattr(args, name, read(f"--{name}", value))


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            try:
                params[key.strip()] = json.loads(value)
            except json.JSONDecodeError:
                raise ValueError(f"--param {pair!r}: the value is not a number or JSON") from None
    return params


def _cmd_generate(args) -> int:
    _, write = _named(_WRITERS, args.format, "--format")
    spec = CultureSpec(kind=args.culture, seed=args.seed, params=_parse_params(args.param))
    election = generate(spec, args.m, args.n, args.k)
    write(election, args.out)
    print(f"wrote {spec.label()} election (m={args.m}, n={args.n}, k={args.k}) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    rows = run_budget_sweep(config, jobs=args.jobs)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} result rows to {args.out}")
    if args.difficulty:
        scores = difficulty_scores(rows)
        by_group: dict[tuple[str, str], list[float]] = {}
        for (strategy, culture, _), value in scores.items():
            by_group.setdefault((strategy, culture), []).append(value)
        print("mean difficulty (0 easy .. 1 hardest seen for that strategy):")
        for (strategy, culture), values in sorted(by_group.items()):
            print(f"  {strategy:8s} {culture:20s} {sum(values) / len(values):.3f}")
    return 0


def _cmd_audit(args) -> int:
    grid = audit_grid(trials=args.trials, seed=args.seed)
    print(format_audit_table(grid))
    if args.csv:
        rows = audit_csv_rows(grid)
        with Path(args.csv).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote grid to {args.csv}")
    return 0


def _cmd_sweep(args) -> int:
    election = election_io.load_election(args.election, k=args.k)
    if args.budgets is not None:
        budgets = [parse_budget(item) for item in args.budgets.split(",")]
    else:
        budgets = _default_grid(election.m, election.n, args.cost, args.points)
    # Every strategy's grid is elicited once and scored under each repeat's
    # voter order, one order per repeat for all the strategies.
    orders = [substream(args.seed, r).permutation(election.n) for r in range(args.repeats)]
    sweep = _elicit_sweep(ALL_STRATEGIES, args.cost, election.m, election.n, budgets)
    shape = (len(ALL_STRATEGIES), args.repeats, election.n)
    distances = _distances(sweep, election, np.broadcast_to(orders, shape))
    # The table is printed whole, so a rejected budget leaves stdout empty.
    table = ["strategy".ljust(9) + "".join(_fmt_budget(b).rjust(10) for b in budgets)]
    for (kind, policy), means in zip(ALL_STRATEGIES, distances.mean(axis=1)):
        table.append(
            strategy_label(kind, policy).ljust(9) + "".join(f"{value:10.2f}" for value in means)
        )
    print("\n".join(table))
    return 0


def _fmt_budget(budget: float) -> str:
    # An unlimited budget prints as "inf" under ".0f".
    return f"{budget:.0f}" if budget >= 10 else f"{budget:.2f}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _read_ints(args)
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
