"""The public API is ``queryvote.__all__``; growing or shrinking it is a test edit here.

The README may name only public names, and its Python examples must run.
Every int parameter of a public entry point has a row in ``INT_PARAMETERS``.
Every entry point that takes a budget has a row in ``BUDGET_PARAMETERS``.
Every entry point that takes a name has a row in ``NAME_PARAMETERS``.
"""

import ast
import importlib
import io
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import queryvote as qv
from queryvote import cli
from queryvote.core import _named
from queryvote.cultures import _KIND_NAMES
from queryvote.experiments import parse_config
from queryvote.rng import derive_seed, substream
from queryvote.strategies import _STRATEGIES, _budget, parse_strategy

from sweep_step import sweep_step

PUBLIC_API = [
    "ALL_STRATEGIES",
    "Axiom",
    "AxiomVerdict",
    "BudgetPolicy",
    "COST_FUNCTIONS",
    "Committee",
    "CultureSpec",
    "Election",
    "ElicitationRun",
    "ExperimentConfig",
    "InfeasibleQueryError",
    "KINDS",
    "QuestionType",
    "RefinementQuery",
    "ResultRow",
    "UNLIMITED",
    "answer_query",
    "audit_axiom",
    "audit_grid",
    "borda_scores",
    "borda_vector",
    "bucket_sizes",
    "cost_bucket_count",
    "cost_candidates",
    "cost_computational",
    "cost_last_bucket",
    "cost_variance_aware",
    "default_budget_grid",
    "difficulty_scores",
    "emit_csv",
    "expected_random_distance",
    "format_audit_table",
    "full_resolution_cost",
    "generate",
    "get_cost_function",
    "hamming",
    "k_borda",
    "load_config",
    "load_election",
    "make_question",
    "partial_scores",
    "query_based_committee",
    "random_baseline",
    "run_budget_sweep",
    "run_elicitation",
    "select_top_k",
    "strategy_label",
    "variance",
    "write_native",
    "write_preflib",
]


def test_public_api_is_pinned():
    assert sorted(qv.__all__) == PUBLIC_API
    assert all(hasattr(qv, name) for name in PUBLIC_API)


def test_public_api_covers_the_acceptance_suite():
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    used = set(re.findall(r"\bqv\.(\w+)", source)) | {"BudgetPolicy", "QuestionType"}
    assert used <= set(PUBLIC_API), sorted(used - set(PUBLIC_API))


# Public names that no CLI command, bench workload, acceptance criterion or
# README text reads, with the reason each stays public.
PUBLIC_UNREAD_ALLOWED = {
    # The record that run_elicitation and query_based_committee return.
    "ElicitationRun",
    # The verdict that audit_axiom returns.
    "AxiomVerdict",
    # The error a RefinementQuery or bucket_sizes raises on too many buckets.
    "InfeasibleQueryError",
    # One of the five registry costs; the acceptance suite reads the other four.
    "cost_computational",
}


def test_every_public_name_has_a_reader_outside_the_package():
    """The API is no larger than the experiments need: every name in
    ``__all__`` is read, as a whole word, by the CLI, a bench module, the
    acceptance suite or the README, or is allowed above with its reason."""
    root = Path(__file__).parent.parent
    readers = [root / "src" / "queryvote" / "cli.py", *sorted((root / "bench").glob("*.py")),
               root / "tests" / "test_acceptance.py", root / "README.md"]
    words = set(re.findall(r"\w+", "\n".join(path.read_text() for path in readers)))
    unread = sorted(set(qv.__all__) - words)
    assert unread == sorted(PUBLIC_UNREAD_ALLOWED), unread


def test_readme_python_runs_and_names_only_public_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for number, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    used = set(re.findall(r"\bqv\.(\w+)", readme))
    assert used <= set(qv.__all__), sorted(used - set(qv.__all__))


# Public names that no package code reads, with the reason each stays.
UNREAD_ALLOWED: set[str] = set()


def unread_top_level_names() -> list[str]:
    """Every top-level name of the package that no package statement reads
    outside the statement that defines it. The AST is read, so a name
    mentioned only in a docstring or comment counts as unread."""
    package = Path(__file__).parent.parent / "src" / "queryvote"
    defined, statements = {}, []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined.update(dict.fromkeys(names, node))
            reads = set()
            for part in ast.walk(node):
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load):
                    reads.add(part.id)
                elif isinstance(part, ast.Attribute):
                    reads.add(part.attr)
            statements.append((node, reads))
    return sorted(
        name
        for name, definition in defined.items()
        if not any(name in reads for node, reads in statements if node is not definition)
    )


def test_every_public_name_is_exported_or_read():
    """A top-level name without a leading underscore is either in ``__all__``
    or read by package code outside the statement that defines it."""
    unread = [name for name in unread_top_level_names() if not name.startswith("_") and name not in qv.__all__]
    assert unread == sorted(UNREAD_ALLOWED), unread


def test_every_private_name_is_read_by_the_package():
    """A top-level name with a leading underscore, other than a module dunder
    such as ``__all__``, is read by package code outside the statement that
    defines it: no private function lives in the package for the tests alone."""
    unread = [name for name in unread_top_level_names() if name.startswith("_") and not name.endswith("__")]
    assert unread == [], unread


ROLE = re.compile(r":(?:func|class|mod|data|attr):`~?([\w.]+?)(?:\(\))?`")


def resolve(module, path):
    """The object that dotted ``path`` names, from ``module`` on, or None."""
    found = module
    for part in path.split("."):
        found = getattr(found, part, None)
        if found is None:
            return None
    return found


def test_docstring_cross_references_resolve():
    """Every ``:func:``, ``:class:``, ``:mod:``, ``:data:`` and ``:attr:`` role
    in the package names something that exists: a bare name in its own
    module, a ``queryvote.`` path by attribute lookup from the package."""
    package = Path(__file__).parent.parent / "src" / "queryvote"
    unresolved = []
    for path in sorted(package.glob("*.py")):
        module = qv if path.stem == "__init__" else importlib.import_module(f"queryvote.{path.stem}")
        for target in ROLE.findall(path.read_text()):
            root = qv if target.startswith("queryvote.") else module
            if resolve(root, target.removeprefix("queryvote.")) is None:
                unresolved.append(f"{path.name}: {target}")
    assert not unresolved, unresolved


def tiny_config(**overrides):
    settings = dict(cultures=[qv.CultureSpec("IC")], m=3, n=2, k=1, elections_per_culture=1,
                    strategies=[qv.ALL_STRATEGIES[0]], budget_grid=[0, 5], voter_order_repeats=1)
    settings.update(overrides)
    return qv.ExperimentConfig(**settings)


CONFIG_INTS = ["m", "n", "k", "elections_per_culture", "voter_order_repeats", "master_seed"]


def loaded_k(k):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "election.txt"
        qv.write_native(qv.Election(m=3, voters=[(0, 1, 2)], k=2), path)
        return qv.load_election(path, k=k).k

# Every public entry point that takes an int, as (row id, parameter, a call
# that hands the value over as that parameter and returns what it made of it).
INT_PARAMETERS = [
    ("Election.m", "m", lambda v: qv.Election(m=v, voters=[(0,) if v == 1 else (0, 1)], k=1).m),
    ("Election.k", "k", lambda v: qv.Election(m=2, voters=[(0, 1)], k=v).k),
    ("generate.m", "m", lambda v: qv.generate(qv.CultureSpec("IC"), v, 2, 1)),
    ("generate.n", "n", lambda v: qv.generate(qv.CultureSpec("IC"), 2, v, 1)),
    ("CultureSpec.seed", "seed", lambda v: qv.CultureSpec("IC", seed=v).seed),
    *(
        (f"ExperimentConfig.{name}", name, lambda v, name=name: getattr(tiny_config(**{name: v}), name))
        for name in CONFIG_INTS
    ),
    ("substream.seed", "seed", lambda v: substream(v, 0).bit_generator.state),
    ("substream.path", "path", lambda v: substream(0, 1, v).bit_generator.state),
    ("derive_seed.seed", "seed", lambda v: derive_seed(v, 0)),
    ("derive_seed.path", "path", lambda v: derive_seed(0, 1, v)),
    (
        "audit_axiom.trials", "trials",
        lambda v: qv.audit_axiom("computational", qv.Axiom.PREFIX_MONOTONICITY, trials=v),
    ),
    ("audit_grid.trials", "trials", lambda v: qv.audit_grid(trials=v)),
    ("default_budget_grid.points", "points", lambda v: qv.default_budget_grid(10.0, points=v)),
    ("run_budget_sweep.jobs", "jobs", lambda v: qv.run_budget_sweep(tiny_config(), jobs=v)),
    ("expected_random_distance.m", "m", lambda v: qv.expected_random_distance(v, 1)),
    ("expected_random_distance.k", "k", lambda v: qv.expected_random_distance(3, v)),
    ("select_top_k.k", "k", lambda v: qv.select_top_k([3, 1, 2], v)),
    ("load_election.k", "k", loaded_k),
]


@pytest.mark.parametrize(
    "parameter, call", [row[1:] for row in INT_PARAMETERS], ids=[row[0] for row in INT_PARAMETERS]
)
def test_every_int_parameter_takes_ints_only(parameter, call):
    """A float, a bool or a string is an error naming the parameter; a numpy
    int is read as the plain int it holds, so the result (which repr shows
    to the last int) is the one the Python int gives."""
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match=re.escape(f"{parameter} must be an int, got {bad!r}")):
            call(bad)
    assert repr(call(np.int64(2))) == repr(call(2))


INT_ROWS = {row[0]: row[1:] for row in INT_PARAMETERS}
# The rows of INT_PARAMETERS whose int is a count, read by the count rule.
COUNT_PARAMETERS = [
    "Election.m", "generate.m", "generate.n", "ExperimentConfig.m", "ExperimentConfig.n",
    "ExperimentConfig.elections_per_culture", "ExperimentConfig.voter_order_repeats",
    "audit_axiom.trials", "audit_grid.trials", "default_budget_grid.points",
    "run_budget_sweep.jobs", "expected_random_distance.m",
]


@pytest.mark.parametrize(
    "parameter, call",
    [INT_ROWS[name] for name in COUNT_PARAMETERS],
    ids=COUNT_PARAMETERS,
)
def test_every_count_parameter_is_at_least_1(parameter, call):
    """0 or a negative count is an error naming the parameter and the value;
    1 is read, as a numpy int as well as a Python one."""
    for bad in (0, -1):
        message = f"{parameter} must be at least 1, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    assert repr(call(np.int64(1))) == repr(call(1))


BUDGET_ELECTION = qv.generate(qv.CultureSpec("IC", seed=3), 6, 5, 2)
SPLIT, EQ, FCFS = qv.QuestionType.SPLIT, qv.BudgetPolicy.EQUAL, qv.BudgetPolicy.FCFS


def elicited(budget, cost):
    run = qv.run_elicitation(BUDGET_ELECTION, SPLIT, EQ, cost, budget)
    return run.budget, run.spent, run.profile, run.log


def committee(budget, cost):
    chosen, run = qv.query_based_committee(BUDGET_ELECTION, SPLIT, FCFS, cost, budget)
    return chosen, run.budget, run.spent, run.profile


def swept(budget, cost):
    return [
        row for policy in (EQ, FCFS) for row in sweep_step(BUDGET_ELECTION, SPLIT, policy, cost, [budget])
    ]


def json_grid(budget, cost):
    data = {"cultures": ["IC"], "m": 3, "n": 2, "k": 1, "elections_per_culture": 1,
            "strategies": ["S-EQ"], "cost": cost, "budget_grid": [0, budget]}
    return parse_config(data).budget_grid


# Every entry point that takes a budget, as (row id, a call that hands the
# value over as a budget under a registry cost and returns what it made of it).
BUDGET_PARAMETERS = [
    ("run_elicitation", elicited),
    ("query_based_committee", committee),
    ("sweep_step", swept),
    (
        "ExperimentConfig.budget_grid",
        lambda v, cost: tiny_config(budget_grid=[0, v], cost=cost).budget_grid,
    ),
    ("parse_config.budget_grid", json_grid),
    ("default_budget_grid.full_cost", lambda v, cost: qv.default_budget_grid(v)),
]

# Each numpy scalar budget, with the Python number it reads as.
BUDGET_TWINS = [(np.float32(30), 30.0), (np.float64(30), 30.0), (np.int64(30), 30)]


@pytest.mark.parametrize(
    "call", [row[1] for row in BUDGET_PARAMETERS], ids=[row[0] for row in BUDGET_PARAMETERS]
)
@pytest.mark.parametrize("cost", ["variance_aware", "candidates", "computational"])
def test_every_budget_parameter_takes_real_numbers_only(call, cost):
    """A bool, a string that is no word for unlimited, None, a complex, a
    negative number, NaN or a Decimal is a ValueError, never a TypeError; a numpy
    scalar is read as the Python number it holds, so the result (which repr
    shows to the last bit) is the one that number gives, and a Fraction
    gives the result of the float of the same value."""
    for bad in (True, "5", None, 30 + 0j, -1, math.nan, Decimal(30)):
        with pytest.raises(ValueError, match="must be non-negative|expected a number"):
            call(bad, cost)
    for budget, plain in BUDGET_TWINS:
        assert repr(call(budget, cost)) == repr(call(plain, cost))
    assert call(Fraction(61, 2), cost) == call(30.5, cost)


def test_the_budget_rule():
    assert [_budget(word) for word in ("inf", " Unlimited ", "INFINITY")] == [qv.UNLIMITED] * 3
    for budget in (0, 30, 30.5, Fraction(61, 2), qv.UNLIMITED):
        assert _budget(budget) is budget
    for budget, plain in BUDGET_TWINS:
        read = _budget(budget)
        assert read == plain and type(read) is type(plain)
    # A config stores each entry as the rule reads it, so a Fraction stays exact.
    grid = tiny_config(budget_grid=[np.int64(3), Fraction(7, 2)]).budget_grid
    assert grid == (3, Fraction(7, 2)) and list(map(type, grid)) == [int, Fraction]
    with pytest.raises(ValueError, match="^full-resolution cost must be non-negative, got -1$"):
        _budget(-1, "full-resolution cost")
    with pytest.raises(ValueError, match="^expected a number or one of .* for budget, got 'nan'$"):
        _budget("nan")
    # A Decimal is no numbers.Real, so it is refused like a string.
    with pytest.raises(ValueError, match="for budget, got Decimal"):
        _budget(Decimal(30))
    # A sweep yields each budget as the rule reads it, which run.budget also holds.
    budgets = [np.float32(30), " unlimited "]
    yielded = [budget for budget, _, _ in sweep_step(BUDGET_ELECTION, SPLIT, EQ, "variance_aware", budgets)]
    assert yielded == [30.0, qv.UNLIMITED] and list(map(type, yielded)) == [float, float]
    assert [elicited(budget, "variance_aware")[0] for budget in budgets] == yielded


VARIANCE_AWARE = ["variance_aware", " Variance-Aware ", "VARIANCEAWARE", qv.cost_variance_aware]
SPLIT_NAMES = ["S", " s ", SPLIT]
FCFS_NAMES = ["FCFS", " fcfs ", "F_C-FS", FCFS]


def sweep_cli(cost):
    """``queryvote sweep --cost``: the table it prints, or its error as a ValueError."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder, redirect_stdout(out), redirect_stderr(err):
        path = Path(folder) / "election.txt"
        qv.write_native(BUDGET_ELECTION, path)
        code = cli.main(["sweep", str(path), "--cost", str(cost), "--budgets", "0,30"])
    if code:
        raise ValueError(err.getvalue().removeprefix("error: ").strip())
    return out.getvalue()


def name_config(cost):
    data = {"cultures": ["IC"], "m": 3, "n": 2, "k": 1, "elections_per_culture": 1, "cost": cost}
    return parse_config(data).cost


def swept_by(kind=SPLIT, policy=EQ, cost="variance_aware"):
    return sweep_step(BUDGET_ELECTION, kind, policy, cost, [0, 30])


def elicited_by(kind=SPLIT, policy=EQ, cost="variance_aware"):
    return qv.run_elicitation(BUDGET_ELECTION, kind, policy, cost, 30)


# Every entry point that takes a name, as (row id, the forms of one name it
# reads alike: the key, variants in case, spacing, "-" or "_", and the entry
# itself where a caller can hand one over; a call that hands the value over
# as that name and returns what it made of it).
NAME_PARAMETERS = [
    ("CultureSpec.kind", ["Euclidean2D", " euclidean_2d ", "EUCLIDEAN-2D"], lambda v: qv.CultureSpec(v).kind),
    ("get_cost_function", VARIANCE_AWARE, qv.get_cost_function),
    ("run_elicitation.kind", SPLIT_NAMES, lambda v: elicited_by(kind=v)),
    ("run_elicitation.policy", FCFS_NAMES, lambda v: elicited_by(policy=v)),
    ("run_elicitation.cost", VARIANCE_AWARE, lambda v: elicited_by(cost=v)),
    ("sweep_step.kind", SPLIT_NAMES, lambda v: swept_by(kind=v)),
    ("sweep_step.policy", FCFS_NAMES, lambda v: swept_by(policy=v)),
    ("sweep_step.cost", VARIANCE_AWARE, lambda v: swept_by(cost=v)),
    ("full_resolution_cost.kind", SPLIT_NAMES, lambda v: qv.full_resolution_cost(BUDGET_ELECTION, v, "computational")),
    ("full_resolution_cost.cost", VARIANCE_AWARE, lambda v: qv.full_resolution_cost(BUDGET_ELECTION, SPLIT, v)),
    (
        "audit_axiom.cost", VARIANCE_AWARE,
        lambda v: qv.audit_axiom(v, qv.Axiom.VARIANCE_MONOTONICITY, trials=20),
    ),
    (
        "audit_axiom.axiom",
        ["prefix_monotonicity", " Prefix-Monotonicity ", "PREFIXMONOTONICITY", qv.Axiom.PREFIX_MONOTONICITY],
        lambda v: qv.audit_axiom("candidates", v, trials=20),
    ),
    ("make_question", SPLIT_NAMES, lambda v: qv.make_question(v, range(5))),
    ("parse_strategy", ["NL-FCFS", " nl_fcfs ", "Nl-Fcfs", _STRATEGIES["NL-FCFS"]], parse_strategy),
    ("ExperimentConfig.cost", VARIANCE_AWARE, lambda v: tiny_config(cost=v).cost),
    ("parse_config.cost", VARIANCE_AWARE, name_config),
    # The command line takes strings only.
    ("sweep --cost", VARIANCE_AWARE[:-1], sweep_cli),
]


@pytest.mark.parametrize(
    "names, call", [row[1:] for row in NAME_PARAMETERS], ids=[row[0] for row in NAME_PARAMETERS]
)
def test_every_name_parameter_reads_the_name_rule(names, call):
    """Every form of one name gives one result; a name of no entry, None or
    a number is a ValueError that starts ``unknown``, never an AttributeError
    or a TypeError."""
    results = [repr(call(name)) for name in names]
    assert results == [results[0]] * len(names)
    for bad in ("bogus", None, 5):
        with pytest.raises(ValueError, match="^unknown .*; choose one of: "):
            call(bad)


NAME_TABLES = [_KIND_NAMES, qv.COST_FUNCTIONS, _STRATEGIES, qv.QuestionType, qv.BudgetPolicy, qv.Axiom]


@pytest.mark.parametrize("table", NAME_TABLES)
def test_no_two_keys_of_a_registry_match_each_other(table):
    """Each key, in the other case and spaced, reads as itself: no key is
    shadowed by another that equals it apart from case, ``-`` and ``_``."""
    keys = [member.value for member in table] if isinstance(table, type) else list(table)
    assert len({key.lower().replace("-", "").replace("_", "") for key in keys}) == len(keys)
    for key in keys:
        assert _named(table, f" {key.swapcase()} ", "name")[0] == key
