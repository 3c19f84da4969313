import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import queryvote
from queryvote import CultureSpec, generate
from queryvote.cli import _fmt_budget, main
from queryvote.election_io import load_election, write_native

from results_csv import read_csv_rows


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_native(tmp_path, capsys):
    out = tmp_path / "e.elec"
    assert run_cli("generate", "IC", "--m", 6, "--n", 4, "--k", 2, "--seed", 3, "--out", out) == 0
    election = load_election(out)
    assert (election.m, election.n, election.k) == (6, 4, 2)
    assert "wrote IC election" in capsys.readouterr().out


def test_generate_preflib_with_params(tmp_path):
    out = tmp_path / "e.soc"
    assert (
        run_cli(
            "generate", "mallows", "--m", 5, "--n", 6, "--k", 2, "--seed", 1,
            "--param", "phi=0.3", "--out", out, "--format", "preflib",
        )
        == 0
    )
    election = load_election(out, k=2)
    assert election.n == 6


def test_generate_reads_a_non_number_param_as_json(tmp_path, capsys):
    out = tmp_path / "e.elec"
    assert run_cli(
        "generate", "Mallows", "--m", 4, "--n", 5, "--k", 2, "--seed", 2,
        "--param", "phi=0.5", "--param", "center=[3,2,1,0]", "--out", out,
    ) == 0
    spec = CultureSpec("Mallows", 2, {"phi": 0.5, "center": [3, 2, 1, 0]})
    expected = tmp_path / "expected.elec"
    write_native(generate(spec, 4, 5, 2), expected)
    assert out.read_bytes() == expected.read_bytes()
    assert "wrote Mallows[phi=0.5] election" in capsys.readouterr().out
    assert run_cli("generate", "Mallows", "--m", 4, "--n", 5, "--k", 2,
                   "--param", "center=[3,2,1", "--out", out) == 1
    assert "'center=[3,2,1': the value is not a number or JSON" in capsys.readouterr().err


def test_generate_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.elec", tmp_path / "b.elec"
    run_cli("generate", "urn", "--m", 5, "--n", 5, "--k", 2, "--seed", 9, "--out", a)
    run_cli("generate", "urn", "--m", 5, "--n", 5, "--k", 2, "--seed", 9, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_culture(tmp_path, capsys):
    code = run_cli("generate", "nope", "--m", 5, "--n", 5, "--k", 2, "--out", tmp_path / "x")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_bad_param(tmp_path, capsys):
    code = run_cli(
        "generate", "mallows", "--m", 5, "--n", 5, "--k", 2,
        "--param", "phi=2.0", "--out", tmp_path / "x",
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_a_scalar_center(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli(
        "generate", "mallows", "--m", 3, "--n", 2, "--k", 1, "--param", "center=1", "--out", out
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error: Mallows center must be a sequence of candidate ids, got 1.0" in err
    assert not out.exists()


def test_generate_rejects_nan_contagion(tmp_path, capsys):
    out = tmp_path / "u.elec"
    code = run_cli(
        "generate", "urn", "--m", 4, "--n", 5, "--k", 2, "--param", "alpha=nan", "--out", out
    )
    assert code == 1
    assert "error: urn contagion must be non-negative, got nan" in capsys.readouterr().err
    assert not out.exists()


def config_file(tmp_path, **overrides):
    data = {
        "m": 6, "n": 4, "k": 3,
        "elections_per_culture": 2,
        "cultures": [{"kind": "IC", "seed": 1}, {"kind": "AN", "seed": 2}],
        "strategies": ["S-EQ", "N-FCFS"],
        "cost": "variance_aware",
        "budget_grid": [0, 25, "unlimited"],
        "voter_order_repeats": 2,
        "master_seed": 7,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_run_writes_csv(tmp_path, capsys):
    config = config_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert run_cli("run", config, "--out", out) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 2 * 2 * 2 * 2 * 3
    assert "result rows" in capsys.readouterr().out


def test_run_jobs_do_not_change_output(tmp_path):
    config = config_file(tmp_path)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli("run", config, "--out", one, "--jobs", 1) == 0
    assert run_cli("run", config, "--out", two, "--jobs", 2) == 0
    assert one.read_bytes() == two.read_bytes()


def test_run_seed_override_changes_rows(tmp_path):
    config = config_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", config, "--out", a)
    run_cli("run", config, "--out", b, "--seed", 123)
    assert a.read_bytes() != b.read_bytes()


def test_run_seed_override_equals_the_seed_in_the_config(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    overridden, configured = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("run", config_file(tmp_path / "a", master_seed=0), "--out", overridden, "--seed", 7) == 0
    assert run_cli("run", config_file(tmp_path / "b", master_seed=7), "--out", configured) == 0
    assert overridden.read_bytes() == configured.read_bytes()


def test_run_difficulty_summary(tmp_path, capsys):
    config = config_file(tmp_path)
    assert run_cli("run", config, "--out", tmp_path / "r.csv", "--difficulty") == 0
    assert "mean difficulty" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 5}))
    assert run_cli("run", bad, "--out", tmp_path / "r.csv") == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert run_cli("run", missing, "--out", tmp_path / "r.csv") == 1


@pytest.mark.parametrize(
    "culture, message",
    [
        ({"kind": "Mallows", "params": {"phi": 1.5}}, "Mallows dispersion must lie in (0, 1]"),
        ({"kind": "Mallows", "params": {"center": [0.9, 1.7, 2, 3, 4, 5]}},
         "Mallows center entries must be integers"),
        ({"kind": "Urn", "params": {"alpha": float("nan")}}, "urn contagion must be non-negative"),
        ({"kind": "Mallows", "params": {"phi": None}}, "Mallows dispersion phi must be a number"),
        ({"kind": "Mallows", "params": {"phi": [0.5]}}, "Mallows dispersion phi must be a number"),
        ({"kind": "Urn", "params": {"alpha": None}}, "urn contagion alpha must be a number"),
        ({"kind": "Urn", "params": {"alpha": False}}, "urn contagion alpha must be a number"),
        ({"kind": "Mallows", "params": {"center": 3}},
         "Mallows center must be a sequence of candidate ids, got 3"),
        ({"kind": "IC", "seed": 2}, "two cultures share the label 'IC'"),
        ({"kind": "Mallows", "params": {"phi": "0.5"}},
         "Mallows dispersion phi must be a number, got '0.5'"),
        ({"kind": "Urn", "params": {"alpha": "inf"}}, "urn contagion alpha must be a number"),
    ],
)
def test_run_rejects_a_bad_later_culture(tmp_path, capsys, culture, message):
    config = config_file(tmp_path, cultures=[{"kind": "IC", "seed": 1}, culture])
    assert run_cli("run", config, "--out", tmp_path / "r.csv") == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_audit_costs_prints_grid(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    assert run_cli("audit-costs", "--trials", 200, "--seed", 3, "--csv", csv_path) == 0
    out = capsys.readouterr().out
    for name in ("candidates", "last_bucket", "bucket_count", "variance_aware", "computational"):
        assert name in out
    assert "counterexamples:" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "function,axiom,holds,counterexample"
    assert len(lines) == 1 + 5 * 3


def test_sweep_prints_table(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 6, "--n", 4, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, "--budgets", "0,20,inf", "--repeats", 2) == 0
    out = capsys.readouterr().out
    assert "S-EQ" in out and "NL-FCFS" in out
    # unlimited budget column should be all zeros
    lines = out.splitlines()
    assert lines[0].startswith("strategy")
    for line in lines[1:]:
        assert line.rstrip().endswith("0.00")


@pytest.mark.parametrize(
    "options, digest",
    [
        (
            ["--repeats", 2, "--points", 5],
            "f2d01fc7bf778e187f864c981e806612c4f9259a8e94e847b1004c35dfa8a783",
        ),
        (
            ["--cost", "computational", "--budgets", "0,9,inf,3"],
            "9bd54c37f95f489fd8778abc4a23a6cb4f9bd864b6b9f2cdb6fdaa3e9a511261",
        ),
        # Means over 3 repeats, which are not dyadic.
        (
            ["--repeats", 3, "--points", 5],
            "fc9b03aeb7acbe70e03f089c0509c08f851248cf579d046c20f2879a754dc41e",
        ),
    ],
)
def test_sweep_table_is_pinned(tmp_path, capsys, options, digest):
    elec = tmp_path / "e.elec"
    run_cli("generate", "Mallows", "--m", 7, "--n", 6, "--k", 3, "--seed", 3,
            "--param", "phi=0.5", "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, *options) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_auto_grid(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 6, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    assert run_cli("sweep", elec, "--points", 4) == 0
    assert "strategy" in capsys.readouterr().out


def test_sweep_rejects_no_repeats(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 4, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, "--budgets", "0,inf", "--repeats", 0) == 1
    assert "error: --repeats must be at least 1" in capsys.readouterr().err


def test_sweep_rejects_bad_budgets_before_printing(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 4, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    for budgets in ("nan,5", "5,-1"):
        assert run_cli("sweep", elec, "--budgets", budgets) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: budget must be non-negative" in captured.err


def test_sweep_rejects_a_k_other_than_the_native_header(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 5, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, "--budgets", "0", "--k", 3) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(elec) in captured.err
    assert run_cli("sweep", elec, "--budgets", "0", "--k", 2) == 0


def test_sweep_preflib_needs_k(tmp_path, capsys):
    elec = tmp_path / "e.soc"
    run_cli(
        "generate", "IC", "--m", 5, "--n", 3, "--k", 2, "--seed", 5,
        "--out", elec, "--format", "preflib",
    )
    assert run_cli("sweep", elec, "--budgets", "0") == 1
    assert run_cli("sweep", elec, "--budgets", "0", "--k", 2) == 0


def test_sweep_one_candidate_auto_grid(tmp_path, capsys):
    elec = tmp_path / "one.elec"
    elec.write_text("1 1 1\n0\n")
    assert run_cli("sweep", elec) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["strategy", "0.00", "inf"]
    assert len(lines) == 1 + 8


def test_sweep_rejects_non_positive_points(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 4, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, "--points", -3) == 1
    assert "error: --points must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        (["run", "c.json", "--out", "r.csv"], "--jobs"),
        (["audit-costs"], "--trials"),
        (["generate", "IC", "--n", 3, "--k", 1, "--out", "e0.elec"], "--m"),
        (["generate", "IC", "--m", 3, "--k", 1, "--out", "e0.elec"], "--n"),
        (["sweep", "e.elec"], "--repeats"),
        (["sweep", "e.elec"], "--points"),
        # A given grid does not read --points, but a count below 1 is still refused.
        (["sweep", "e.elec", "--budgets", "1,2"], "--points"),
    ],
)
@pytest.mark.parametrize("value", [0, -2])
def test_a_count_below_1_exits_1_naming_its_option(
    tmp_path, monkeypatch, capsys, command, option, value
):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command, option, value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} must be at least 1, got {value}\n" and captured.out == ""


def test_sweep_default_grid_is_the_run_grid(tmp_path, capsys):
    m, n, k = 6, 5, 2
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", m, "--n", n, "--k", k, "--seed", 5, "--out", elec)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "m": m, "n": n, "k": k, "elections_per_culture": 1, "cultures": ["IC"],
        "strategies": ["S-EQ", "N-FCFS"], "cost": "computational", "voter_order_repeats": 1,
    }))
    assert run_cli("run", config, "--out", tmp_path / "r.csv") == 0
    capsys.readouterr()
    assert run_cli("sweep", elec, "--cost", "computational") == 0
    header = capsys.readouterr().out.splitlines()[0].split()[1:]
    budgets = sorted({row.budget for row in read_csv_rows(tmp_path / "r.csv")})
    assert len(header) == 14
    assert header == [_fmt_budget(budget) for budget in budgets]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--m", "2.5"], "error: --m must be an int, got '2.5'"),
        (["--seed", "x"], "error: --seed must be an int, got 'x'"),
        (["--format", "bogus"], "error: unknown --format 'bogus'; choose one of: native, preflib"),
    ],
)
def test_generate_reads_ints_and_format_by_the_package_rules(tmp_path, capsys, options, message):
    # A repeated option takes its last value.
    out = tmp_path / "e.elec"
    assert run_cli("generate", "IC", "--m", 4, "--n", 3, "--k", 2, "--out", out, *options) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option",
    [
        (["run", "c.json", "--out", "r.csv"], "--jobs"),
        (["audit-costs"], "--trials"),
        (["sweep", "e.elec"], "--points"),
        (["sweep", "e.elec"], "--repeats"),
        (["sweep", "e.elec"], "--k"),
    ],
)
def test_every_int_option_exits_1_naming_itself(tmp_path, capsys, command, option):
    assert run_cli(*command, option, "1.5") == 1
    assert capsys.readouterr().err == f"error: {option} must be an int, got '1.5'\n"


def test_run_refuses_an_empty_budget_grid(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli("run", config_file(tmp_path, budget_grid=[]), "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget_grid must not be empty\n" and captured.out == ""
    assert not out.exists()


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "m": 4, "n": 3, "k": 2, "elections_per_culture": 1, "cultures": ["IC"],
        "voter_order_repeat": 9,
    }))
    assert run_cli("run", config, "--out", tmp_path / "r.csv") == 1
    assert "unknown keys ['voter_order_repeat']" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_sweep_reads_budget_words_by_the_budget_rule(tmp_path, capsys):
    elec = tmp_path / "e.elec"
    run_cli("generate", "IC", "--m", 4, "--n", 3, "--k", 2, "--seed", 5, "--out", elec)
    capsys.readouterr()
    assert run_cli("sweep", elec, "--budgets", "0, Unlimited") == 0
    words = capsys.readouterr().out
    assert run_cli("sweep", elec, "--budgets", "0,inf") == 0
    assert words == capsys.readouterr().out and words.splitlines()[0].endswith("inf")
    # A word that is not one for unlimited gets the rule's message, before any output.
    assert run_cli("sweep", elec, "--budgets", "5,abc") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: expected a number or one of ['inf', 'unlimited', 'infinity']" in captured.err


def test_generate_rejects_a_param_without_a_value(tmp_path, capsys):
    code = run_cli(
        "generate", "mallows", "--m", 5, "--n", 5, "--k", 2, "--param", "phi", "--out", tmp_path / "x"
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --param expects KEY=VALUE, got 'phi'\n"


def test_sweep_reads_the_cost_by_the_name_rule(tmp_path, capsys):
    path = tmp_path / "e.elec"
    write_native(generate(CultureSpec("IC", seed=5), 5, 4, 2), path)
    tables = []
    for cost in ("variance_aware", "Variance-Aware", " VARIANCE_AWARE "):
        assert run_cli("sweep", path, "--cost", cost, "--budgets", "0,20,inf") == 0
        tables.append(capsys.readouterr().out)
    assert tables == [tables[0]] * 3
    # An unknown cost is invalid input: exit 1 with the rule's message, not argparse's 2.
    assert run_cli("sweep", path, "--cost", "bogus", "--budgets", "0,20") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown cost function 'bogus'; choose one of: candidates, ")


def test_sweep_reads_a_utf_8_file_whatever_the_locale(tmp_path):
    """``queryvote sweep`` under the C locale, with Python's UTF-8 mode and
    locale coercion off, on a PrefLib file naming the candidate Zoë: it
    exits 0 with its table, where reading in the locale's ASCII refused the
    file as ``not UTF-8 text``."""
    path = tmp_path / "z.soc"
    path.write_bytes("2\n1,Zoë\n2,Bo\n3,3,2\n2,1,2\n1,2,1\n".encode())
    code = "import sys\nfrom queryvote.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = Path(queryvote.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    args = ["sweep", str(path), "--k", "1", "--budgets", "0,inf"]
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[0].split() == ["strategy", "0.00", "inf"]
