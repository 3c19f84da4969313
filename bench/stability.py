"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/stability.py --workload desk-sweep --seeds 10

Runs ``bench/run.py`` once per seed (1, 2, ...), one after another, and
prints for each end-to-end metric its median and the distance between the
first and third quartiles as a share of the median, next to the bound in
``BENCHMARK.json``. A spread under a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, from --first-seed on")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        command = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{'metric':14s} {'median':>10s} {'spread':>8s} {'bound':>6s}  steady (< bound/3)")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:14s} {median:10.4g} {spread:8.2%} {metric['bound']:6.0%}  "
              f"{'yes' if spread < metric['bound'] / 3 else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
