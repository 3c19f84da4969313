"""Small-size tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

from queryvote.costs import VARIANCE_COUNTEREXAMPLES, Axiom, audit_axiom, get_cost_function  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_desk(seed=3):
    workload = workloads.DeskSweep(m=6, n=5, k=3, elections=2, points=3)
    workload.default_seed = seed
    workload.digest = ""  # nothing recorded at this size
    return workload


def test_replay_equals_run_budget_sweep(tmp_path):
    workload = small_desk()
    state = workload.setup(3, NULL, tmp_path)
    reference = workload.run(state)
    tracer = Tracer()
    replayed = workload.replay(state, tracer)
    assert replayed.rows == reference.rows
    assert replayed.payload == reference.payload
    assert len(tracer.durations("strategies.run_elicitation")) == len(reference.rows) == 2 * 8 * 3
    assert workload.check(state, replayed) == (len(replayed.rows), 0)
    counted = workload.replay(state, NULL, record_log=True)
    assert counted.rows == reference.rows
    assert all(queries is not None for *_, queries in counted.runs)


def test_measured_metric_names_match_benchmark_json(tmp_path):
    workload = small_desk()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        measured = run.measure(workload, 3, seconds=0, trace=trace, out_dir=tmp_path, setup_repeats=1)
        declared = [(m["name"], m["unit"]) for m in SPEC[key]]
        printed = [(name, unit) for name, (_, unit) in measured["metrics"].items()]
        assert printed == declared
        assert measured["result"].correct


def run_main(monkeypatch, tmp_path, workload, argv):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def test_printed_result_line(monkeypatch, tmp_path):
    workload = small_desk()
    code, lines = run_main(
        monkeypatch, tmp_path, workload,
        ["--workload", "desk-sweep", "--seed", "3", "--seconds", "0", "--trace", "1"],
    )
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert (tmp_path / "record-desk-sweep-seed3-trace1.json").is_file()


def test_corrupted_output_fails_the_digest_check(monkeypatch, tmp_path):
    workload = small_desk()
    state = workload.setup(3, NULL, tmp_path)
    workload.digest = workloads.sha256(workload.run(state).payload)
    argv = ["--workload", "desk-sweep", "--seed", "3", "--seconds", "0", "--trace", "0"]
    code, lines = run_main(monkeypatch, tmp_path, workload, argv)
    assert code == 0 and json.loads(lines[-1])["correct"] is True

    honest_run = workload.run

    def corrupted_run(state, tracer=NULL, laps=None):
        output = honest_run(state, tracer, laps)
        payload = bytearray(output.payload)
        payload[-2] ^= 1
        return replace(output, payload=bytes(payload))

    monkeypatch.setattr(workload, "run", corrupted_run)
    code, lines = run_main(monkeypatch, tmp_path, workload, argv)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("MISMATCH" in line for line in lines)


def test_other_seeds_skip_the_digest_but_keep_the_invariants(tmp_path):
    workload = small_desk()
    workload.digest = "0" * 64
    measured = run.measure(workload, 4, seconds=0, trace=False, out_dir=tmp_path, setup_repeats=1)
    assert measured["result"].correct
    state = workload.setup(4, NULL, tmp_path)
    output = workload.run(state)
    output.rows[0] = replace(output.rows[0], distance=7)
    assert workload.check(state, output) == (len(output.rows), 1)


@pytest.mark.parametrize("name", sorted(VARIANCE_COUNTEREXAMPLES))
def test_reported_counterexamples_re_evaluate_as_violations(name):
    verdict = audit_axiom(name, Axiom.VARIANCE_MONOTONICITY, trials=1)
    fn = get_cost_function(name)
    assert workloads.violates(fn, Axiom.VARIANCE_MONOTONICITY, verdict.counterexample)
    low_query, high_query, low, high = verdict.counterexample
    misreported = (low_query, high_query, low, high + 1)
    assert not workloads.violates(fn, Axiom.VARIANCE_MONOTONICITY, misreported)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
