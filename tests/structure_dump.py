"""Differential dump: every structure a tree builds and every answer it gives.

    PYTHONPATH=src python tests/structure_dump.py OUT.json

builds one tree per case of CASES and writes, per case, every structure's
expanded cascade buffer or leaf row in structures() order, 30 boxes' id lists
and counts (a third of the boxes have lo > hi in one dimension), the four
QueryStats totals of the queries and of the counts, and merge_moves.  It
reads only structures(), a cascade group's buf, words, L and H, and a level's
or slab's ids (and L where it has one), so the same file runs on two versions
of the package; diffing their outputs shows every change in layout, answer
or cost counter.  One case is written per line.  tests/test_tree.py pins a
digest of structure_row over fixed trees and runs the smallest cases.
"""

import json
import sys
from dataclasses import astuple

from layertree import (BuildCounters, GeneratorConfig, PointSet, QueryBox, QueryStats,
                       SplitMix64, build, gen_points)

# finite extremes, signed zeros and the smallest subnormal, plus ordinary values
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, -1.0, 0.5, 1.0]
SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 127, 128, 129, 200, 257]
DISTS = ["uniform", "grid", "edge"]
CASES = [(d, dist, n) for d in (1, 2, 3, 4) for dist in DISTS for n in SIZES
         if d < 4 or n <= 129]
BOXES = 30


def case_points(d: int, dist: str, n: int) -> PointSet:
    seed = 1000 * d + n
    if dist == "edge":
        rng = SplitMix64(seed)
        return PointSet.from_coords(
            [[EDGE_VALUES[rng.next_below(len(EDGE_VALUES))] for _ in range(d)]
             for _ in range(n)], d)
    return gen_points(GeneratorConfig(seed=seed, n=n, dims=d, dist=dist, grid_side=3))


def case_boxes(d: int, dist: str, n: int) -> list:
    """BOXES boxes; every third one has lo > hi (or lo = hi) in dimension i mod d."""
    rng = SplitMix64(7 * n + d)
    if dist == "edge":
        draw = lambda: EDGE_VALUES[rng.next_below(len(EDGE_VALUES))]
    else:
        span = 1.0 if dist == "uniform" else 3.0
        draw = lambda: rng.next_float() * span
    boxes = []
    for i in range(BOXES):
        lo, hi = [], []
        for j in range(d):
            a, b = sorted((draw(), draw()))
            if i % 3 == 2 and j == i % d:
                a, b = b, a
            lo.append(a)
            hi.append(b)
        boxes.append(QueryBox(tuple(lo), tuple(hi)))
    return boxes


def structure_row(s, g: int) -> list:
    """Member g's expanded cascade buffer, or the leaf row of a level or slab member.

    The expanded buffer is the node rows, the lb rows, then the right bridges
    t - lb: entry i of lb row r sits at position t = i mod 2^r of its node's
    array.
    """
    if hasattr(s, "buf"):
        words = s.buf[g * s.words : (g + 1) * s.words].tolist()
        lb = s.L * (s.H + 1)
        return words + [(i & ((1 << r) - 1)) - words[lb + (r - 1) * s.L + i]
                        for r in range(1, s.H + 1) for i in range(s.L)]
    L = getattr(s, "L", len(s.ids))
    return s.ids[g * L : (g + 1) * L].tolist()


def dump_case(d: int, dist: str, n: int) -> dict:
    counters = BuildCounters()
    tree = build(case_points(d, dist, n), counters)
    q, c = QueryStats(), QueryStats()
    answers = [([p.id for p in tree.query(box, q)], tree.count(box, c))
               for box in case_boxes(d, dist, n)]
    return {
        "case": [d, dist, n],
        "structures": [[level, type(s).__name__, structure_row(s, g)]
                       for level, (s, g) in tree.structures()],
        "answers": answers,
        "query_stats": list(astuple(q)),
        "count_stats": list(astuple(c)),
        "merge_moves": counters.merge_moves,
    }


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: structure_dump.py OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(dump_case(*case)) for case in CASES) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
