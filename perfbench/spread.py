"""Run the benchmark over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload grid3d --seeds 1-10

Each run is untraced and lasts run_seconds from BENCHMARK.json.  For every
end-to-end metric it prints the median of the runs and the spread, the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
It also prints each run's value and failed/attempted share.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a seed or a range such as 1-10")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']}", flush=True)
        runs.append(result)

    print(f"{'metric':32s} {'median':>14s} {'spread':>8s} {'bound':>6s}  values")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} {med:14.6g} {spread:8.4f} {bounds[name]:>6}  "
              + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
