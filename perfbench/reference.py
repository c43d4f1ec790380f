"""Reference figure: `brute_force_query` microseconds per box on a workload's library boxes.

    python3 perfbench/reference.py --workload grid3d --seed 1

Prints the median over boxes of each box's fastest time across PASSES passes,
the same statistic as the benchmark's query_us_p50, so the two can be set
side by side.  Every answer is checked against inputs.expected_ids.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from inputs import WORKLOADS, make_inputs
from run import load_layertree

PASSES = 5


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    lt = load_layertree()
    w = WORKLOADS[args.workload]
    inp = make_inputs(w, args.seed)
    points = lt.PointSet.from_coords(inp.coords.tolist())
    boxes = [lt.QueryBox(tuple(a), tuple(b))
             for a, b in zip(inp.lo[:w.lib_boxes].tolist(), inp.hi.tolist())]
    best = np.full(len(boxes), np.inf)
    for _ in range(PASSES):
        for i, box in enumerate(boxes):
            t0 = time.perf_counter_ns()
            got = lt.brute_force_query(points, box)
            best[i] = min(best[i], time.perf_counter_ns() - t0)
            if [q.id for q in got] != inp.expected[i]:
                print(f"brute_force_query disagrees on box {i}", file=sys.stderr)
                return 1
    print(f"{args.workload} seed {args.seed}: brute_force_query "
          f"{np.median(best) / 1e3:.1f} us per box (median of per-box fastest, "
          f"{len(boxes)} boxes, {PASSES} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
