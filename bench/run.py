"""Benchmark entry point: run one workload in a fresh single process.

    python3 bench/run.py --workload desk-sweep --seed 2025 --seconds 20 --trace 0

With ``--trace 0`` it repeats the workload's production path, at least once
and while the next unit is expected to end within ``--seconds``, and prints
every end-to-end metric.
With ``--trace 1`` it alternates the production path with a traced replay of
the same work through each module's public functions, checks that both give
the same output, and prints the per-layer metrics. Every op is checked; at a
workload's default seed the output's SHA-256 must match the recorded digest.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed. A run record and, when tracing, the spans are
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed from spawn to the end of set-up, spread over the run.
SETUP_REPEATS = 16
# Timings are reported as the fastest of many short repeats. The host is
# shared: other tenants only ever add time, and they come and go on a scale of
# seconds to minutes. Measured on 2 vCPUs, the median unit time of 30 s
# windows swung 2x (quartile spread 38%), the fastest unit's 10%. Every unit
# time is kept in the run record.
# Tail percentiles tried in order; the first with >= 10 samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CULTURE_KINDS = ("IC", "Euclidean2D", "Urn", "Mallows")
SELF_FRAC_MODULES = ("cultures", "core", "strategies", "scoring")


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process (and the children it starts) to the CPU that runs a
    short loop fastest right now.

    Other tenants load the host's cores unevenly, and which core is busy
    changes from second to second; the choice is made again before every unit.
    """
    if len(cpus) == 1:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """Ops attempted and failed, unit times, and digest results of one run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.digest_mismatch = False
        self.replay_mismatch = False

    def check(self, state, output) -> None:
        from workloads import sha256

        attempted, failed = self.workload.check(state, output)
        digest = sha256(output.payload)
        self.digests.append(digest)
        expected = self.workload.digest if self.seed == self.workload.default_seed else None
        if expected and digest != expected:
            self.digest_mismatch = True
            failed = attempted
        self.attempted += attempted
        self.failed += failed

    def compare(self, reference, replayed) -> None:
        """Count rows where the traced replay differs from the production path."""
        differing = sum(a != b for a, b in zip_longest(reference.rows, replayed.rows))
        if differing:
            self.replay_mismatch = True
            self.failed += differing

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.digest_mismatch and not self.replay_mismatch


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run ``workload`` for ``seconds`` and return its metrics and checks."""
    from spans import NULL, Tracer
    from workloads import Laps

    tracer = Tracer() if trace else NULL
    setup_seconds: list[float] = []
    probes = 0 if trace else setup_repeats
    state = workload.setup(seed, tracer, out_dir)
    result = Measurement(workload, seed)
    cpus = os.sched_getaffinity(0)
    laps = Laps(before=lambda: pin_to_fastest_cpu(cpus))
    reference_times, traced_times = [], []
    replayed = counted = None
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        # Set-up probes are spread over the run, like the units.
        while len(setup_seconds) < probes * min(1.0, (time.perf_counter() - began) / max(seconds, 1e-9)):
            pin_to_fastest_cpu(cpus)
            setup_seconds.append(setup_probe(workload.name, seed))
        tracer.op = None
        start = time.perf_counter()
        with tracer.span("reference"):
            reference = workload.run(state, tracer, laps)
        reference_times.append(time.perf_counter() - start)
        result.check(state, reference)
        if trace:
            pin_to_fastest_cpu(cpus)
            with tracer.span("unit") as span:
                replayed = workload.replay(state, tracer)
            traced_times.append(span[3] - span[2])
            result.check(state, replayed)
            result.compare(reference, replayed)
            if counted is None and replayed.runs:
                # Exact query counts need the log, which the timed paths skip.
                counted = workload.replay(state, NULL, record_log=True)
                result.compare(reference, counted)
        # Stop before a unit that would likely end past the deadline.
        if time.perf_counter() + reference_times[-1] + sum(traced_times[-1:]) > deadline:
            break

    while len(setup_seconds) < probes:
        pin_to_fastest_cpu(cpus)
        setup_seconds.append(setup_probe(workload.name, seed))
    os.sched_setaffinity(0, cpus)
    if trace:
        metrics = layer_metrics(tracer, reference_times, traced_times, replayed, counted)
    else:
        # A unit's time is the sum over its parts, each timed on its own.
        run_s = sum(min(times) for times in laps.values())
        metrics = {
            "setup_s": (min(setup_seconds), "s"),
            "run_s": (run_s, "s"),
            "ops_per_s": (result.attempted / len(reference_times) / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "result": result,
        "metrics": metrics,
        "tracer": tracer,
        "unit_seconds": reference_times,
        "part_seconds": dict(laps),
        "traced_unit_seconds": traced_times,
        "setup_seconds": setup_seconds,
    }


def layer_metrics(tracer, reference_times, traced_times, output, counted) -> dict:
    """Per-layer metrics from the spans of the traced units; 0 where a layer did not run."""
    units = len(traced_times)
    unit_total = sum(traced_times)
    ms = lambda name, tag=None: median_or_zero(tracer.durations(name, tag)) * 1e3
    metrics = {}
    for kind in CULTURE_KINDS:
        metrics[f"cultures.generate.{kind}.ms"] = (ms("cultures.generate", kind), "ms")

    # Module self time over the traced units only (spans below a "unit" root).
    root_of = []
    for name, _, _, _, parent, _ in tracer.spans:
        root_of.append(name if parent is None else root_of[parent])
    own = tracer.self_times()
    busy = dict.fromkeys(SELF_FRAC_MODULES, 0.0)
    for span, root, seconds in zip(tracer.spans, root_of, own):
        module = span[0].split(".")[0]
        if root == "unit" and module in busy:
            busy[module] += seconds
    frac = {module: seconds / unit_total for module, seconds in busy.items()}

    metrics["cultures.self_frac"] = (frac["cultures"], "frac")
    metrics["election_io.write_native.ms"] = (ms("election_io.write_native"), "ms")
    metrics["election_io.load_election.ms"] = (ms("election_io.load_election"), "ms")
    metrics["election_io.bytes"] = (output.counts.get("election_io.bytes", 0), "bytes")
    metrics["core.k_borda.ms"] = (ms("core.k_borda"), "ms")
    metrics["core.select_top_k.us"] = (ms("core.select_top_k") * 1e3, "us")
    metrics["core.self_frac"] = (frac["core"], "frac")

    elicitation = tracer.durations("strategies.run_elicitation")
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if (1 - p / 100) * len(elicitation) >= 10), 0.0
    )
    metrics["strategies.run_elicitation.calls"] = (len(elicitation) / units, "count")
    metrics["strategies.run_elicitation.samples"] = (len(elicitation), "count")
    metrics["strategies.run_elicitation.ms_p50"] = (median_or_zero(elicitation) * 1e3, "ms")
    metrics["strategies.run_elicitation.ms_tail"] = (
        percentile(elicitation, tail_pct) * 1e3 if tail_pct else 0.0, "ms"
    )
    metrics["strategies.run_elicitation.tail_pct"] = (tail_pct, "%")
    from queryvote.strategies import ALL_STRATEGIES, strategy_label

    for kind, policy in ALL_STRATEGIES:
        label = strategy_label(kind, policy)
        metrics[f"strategies.{label}.ms_p50"] = (ms("strategies.run_elicitation", label), "ms")
    counted_runs = counted.runs if counted is not None else []
    queries = sum(q for _, _, _, q in counted_runs)
    metrics["strategies.queries"] = (queries, "count")
    metrics["strategies.queries_per_s"] = (
        queries * units / sum(elicitation) if elicitation else 0.0, "1/s"
    )
    finite = [(float(spent), float(budget)) for _, budget, spent, _ in output.runs if budget != math.inf]
    metrics["strategies.budget_used_frac"] = (
        sum(s for s, _ in finite) / sum(b for _, b in finite) if finite else 0.0, "frac"
    )
    metrics["strategies.self_frac"] = (frac["strategies"], "frac")
    metrics["scoring.partial_scores.ms_p50"] = (ms("scoring.partial_scores"), "ms")
    metrics["scoring.self_frac"] = (frac["scoring"], "frac")

    from queryvote.costs import ALL_AXIOMS, COST_FUNCTIONS

    audit = [(s[1].split("/"), s[3] - s[2]) for s in tracer.spans if s[0] == "costs.audit_axiom"]
    for function in COST_FUNCTIONS:
        seconds = sum(d for (f, _), d in audit if f == function)
        metrics[f"costs.audit.{function}.ms"] = (seconds / units * 1e3, "ms")
    for axiom in ALL_AXIOMS:
        seconds = sum(d for (_, a), d in audit if a == axiom.value)
        metrics[f"costs.audit.{axiom.value}.ms"] = (seconds / units * 1e3, "ms")
    pairs = output.counts.get("costs.pairs_checked", 0)
    audit_seconds = sum(d for _, d in audit)
    metrics["costs.pairs_checked"] = (pairs, "count")
    metrics["costs.counterexamples"] = (output.counts.get("costs.counterexamples", 0), "count")
    metrics["costs.pairs_per_s"] = (pairs * units / audit_seconds if audit else 0.0, "1/s")

    by_group: dict = {}
    for group, budget, _, q in counted_runs:
        by_group.setdefault(group, []).append((budget, q))
    deepest = sum(max(cells)[1] for cells in by_group.values())
    metrics["experiments.redundant_query_frac"] = (1 - deepest / queries if queries else 0.0, "frac")
    sweep = tracer.durations("experiments.run_budget_sweep")
    replayed_children = sum(
        s[3] - s[2]
        for s in tracer.spans
        if s[4] is not None and tracer.spans[s[4]][0] == "unit" and s[0] != "experiments.emit_csv"
    )
    metrics["experiments.overhead_frac"] = (
        (sum(sweep) - replayed_children) / sum(sweep) if sweep else 0.0, "frac"
    )
    metrics["experiments.emit_csv.ms"] = (ms("experiments.emit_csv"), "ms")
    metrics["experiments.full_resolution_cost.ms"] = (ms("experiments.full_resolution_cost"), "ms")
    substreams = tracer.durations("rng.substream")
    metrics["rng.substream.us"] = (median_or_zero(substreams) * 1e6, "us")
    metrics["rng.substream.calls"] = (len(substreams) / units, "count")
    metrics["trace.overhead_frac"] = (
        min(traced_times) / min(reference_times) - 1, "frac"
    )
    return metrics


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(workload, seed: int, seconds: float, trace: bool, load_start: float) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "digest_checked": seed == workload.default_seed and bool(workload.digest),
        "params": workload.params(),
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": {"start": load_start, "end": os.getloadavg()[0]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()[0]
    if not (SRC / "queryvote" / "__init__.py").is_file():
        print(f"error: no queryvote sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # this checkout's queryvote, never an installed one
    from spans import NULL
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, NULL, OUT)
        print(time.monotonic())
        return 0

    measured = measure(workload, args.seed, args.seconds, bool(args.trace))
    result = measured["result"]
    metrics = measured["metrics"]
    record = run_record(workload, args.seed, args.seconds, bool(args.trace), load_start)
    error_rate = result.failed / result.attempted
    record.update(
        units=len(measured["unit_seconds"]),
        unit_seconds=measured["unit_seconds"],
        part_seconds=measured["part_seconds"],
        traced_unit_seconds=measured["traced_unit_seconds"],
        setup_seconds=measured["setup_seconds"],
        sha256=sorted(set(result.digests)),
        attempted=result.attempted,
        failed=result.failed,
        error_rate=error_rate,
        digest_mismatch=result.digest_mismatch,
        replay_mismatch=result.replay_mismatch,
        correct=result.correct,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        measured["tracer"].dump(OUT / f"spans-{stem}.json")

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {record['units']} units")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ({result.failed} failed of {result.attempted} ops)")
    if record["digest_checked"]:
        state = "MISMATCH" if result.digest_mismatch else "matches"
        print(f"sha256 {' '.join(record['sha256'])} {state} the recorded digest")
    else:
        print(f"sha256 {' '.join(record['sha256'])} (recorded only for seed {workload.default_seed})")
    if result.replay_mismatch:
        print("traced replay differs from the production path")
    print(f"record {OUT / f'record-{stem}.json'}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
