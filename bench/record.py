"""Write a recorded benchmark entry: every workload at its default seed.

    python3 bench/record.py bench/records/0001-baseline.json

Runs ``bench/run.py`` untraced and traced on each workload, one after
another, and stores both run records. Then it times the ROADMAP Baseline
layers at the ROADMAP's own sizes (generation and ``k_borda`` at 100x1000,
``audit_grid(trials=10000)``) and puts the Baseline figures next to the
measured ones, as found.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Figure -> (ROADMAP Baseline value, unit).
ROADMAP_BASELINE = {
    "desk sweep cells/s": (700.0, "1/s"),
    "IC generation at 100x1000": (0.043, "s"),
    "Euclidean2D generation at 100x1000": (0.090, "s"),
    "Urn generation at 100x1000": (0.014, "s"),
    "Mallows generation at 100x1000": (1.41, "s"),
    "k_borda at 100x1000": (4.6, "ms"),
    "audit_grid(10000)": (8.7, "s"),
}

# Timed directly at the ROADMAP's sizes, the way run.py times: pinned to the
# fastest CPU before each call, fastest of a few calls.
DIRECT = """
import json, os, sys, time
sys.path.insert(0, "src")
sys.path.insert(0, "bench")
from queryvote.core import k_borda
from queryvote.costs import audit_grid
from queryvote.cultures import CultureSpec, generate
from run import pin_to_fastest_cpu

CPUS = os.sched_getaffinity(0)

def fastest(fn, repeats):
    times = []
    for _ in range(repeats):
        pin_to_fastest_cpu(CPUS)
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result

out = {}
for kind in ("IC", "Euclidean2D", "Urn", "Mallows"):
    spec = CultureSpec(kind, seed=0, params={"phi": 0.8} if kind == "Mallows" else {})
    out[f"{kind} generation at 100x1000"], election = fastest(lambda: generate(spec, 100, 1000, 10), 5)
out["k_borda at 100x1000"] = fastest(lambda: k_borda(election), 20)[0] * 1e3
out["audit_grid(10000)"] = fastest(lambda: audit_grid(trials=10000, seed=0), 2)[0]
print(json.dumps(out))
"""


def run_workload(workload, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} failed:\n{proc.stdout}{proc.stderr}")
    record_path = HERE / "out" / f"record-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="entry to write, e.g. bench/records/0001-baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    runs = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        seed = WORKLOADS[name].default_seed
        runs[name] = {trace: run_workload(name, seed, spec["run_seconds"], trace) for trace in (0, 1)}
    direct = subprocess.run([sys.executable, "-c", DIRECT], cwd=ROOT, capture_output=True,
                            text=True, timeout=600, check=True)
    measured = json.loads(direct.stdout)
    measured["desk sweep cells/s"] = runs["desk-sweep"][0]["metrics"]["ops_per_s"]["value"]
    baseline = [
        {"figure": figure, "roadmap": roadmap, "measured": measured[figure], "unit": unit,
         "measured_over_roadmap": measured[figure] / roadmap}
        for figure, (roadmap, unit) in ROADMAP_BASELINE.items()
    ]
    entry = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": spec,
        "runs": {name: {f"trace{t}": record for t, record in by_trace.items()} for name, by_trace in runs.items()},
        "roadmap_baseline": baseline,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    for row in baseline:
        print(f"{row['figure']:36s} roadmap {row['roadmap']:<8g} measured {row['measured']:<10.4g} "
              f"{row['unit']:4s} x{row['measured_over_roadmap']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
