"""Differential dump: every structure a tree builds and every answer it gives.

    PYTHONPATH=src python tests/structure_dump.py OUT.json
    PYTHONPATH=src python tests/structure_dump.py --compare BASE.json HEAD.json

The first form builds one tree per case of CASES and writes, per case,
every structure's expanded cascade buffer or leaf row in structures()
order, 30 boxes' hits and counts (a third of the boxes have lo > hi in one
dimension), the four QueryStats totals of the queries and of the counts,
and merge_moves.  A hit is its id and its coordinates as float.hex
strings, so a lost -0.0 or a rounding change shows too.  The structures
store point labels (ranks in the last dimension); the dump writes each
stored label below n as its point id, read from the tree's id map, and
bridges and phantoms as stored.  It reads only structures(), the tree's
ids, a cascade group's buf, words, L and H, a level's ids and L, and the
hits' id and coords.  Diffing the outputs of two
versions of the package, each dumped by its own copy of this file, shows
every change in layout, answer or cost counter.  One case is written per
line.  Which structures exist is layout too: a level slot that no query
can reach has no structure, so it is in no dump, and a change to which
slots are built shows in structures and merge_moves only.  The second form
exits 1, naming each case, when a case of BASE is missing from HEAD or its
answers, query_stats or count_stats differ; CI runs it on every pull
request against the base commit's dump.  tests/test_tree.py pins a digest
of structure_row over fixed trees and runs the smallest cases.
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


def structure_row(s, g: int, ids) -> list:
    """Member g's expanded cascade buffer, or the leaf row of a level or slab member.

    The expanded buffer is the node rows, the lb rows, then the right bridges
    t - lb: entry i of lb row r sits at position t = i mod 2^r of its node's
    array.  Node-row and leaf-row labels below n = len(ids) are written as
    the ids the tree's id map gives them; the slab's leaf row is every label
    in order.
    """
    n = len(ids)
    to_id = lambda e: ids[e] if e < n else e
    if hasattr(s, "buf"):
        words = s.buf[g * s.words : (g + 1) * s.words].tolist()
        lb = s.L * (s.H + 1)
        return list(map(to_id, words[:lb])) + words[lb:] + [
            (i & ((1 << r) - 1)) - words[lb + (r - 1) * s.L + i]
            for r in range(1, s.H + 1) for i in range(s.L)]
    if hasattr(s, "L"):
        return list(map(to_id, s.ids[g * s.L : (g + 1) * s.L]))
    return ids.tolist()


def hit(p) -> list:
    """A reported point as [id, [float.hex of each coordinate]]."""
    return [p.id, [c.hex() for c in p.coords]]


def dump_case(d: int, dist: str, n: int) -> dict:
    counters = BuildCounters()
    tree = build(case_points(d, dist, n), counters)
    q, c = QueryStats(), QueryStats()
    answers = [(list(map(hit, tree.query(box, q))), tree.count(box, c))
               for box in case_boxes(d, dist, n)]
    return {
        "case": [d, dist, n],
        "structures": [[level, type(s).__name__, structure_row(s, g, tree.ids)]
                       for level, (s, g) in tree.structures()],
        "answers": answers,
        "query_stats": list(astuple(q)),
        "count_stats": list(astuple(c)),
        "merge_moves": counters.merge_moves,
    }


SAME = ("answers", "query_stats", "count_stats")  # what no layout change may alter


def compare(base: list, head: list) -> list:
    """One line per case of base that head lacks or whose SAME fields differ."""
    by_case = {tuple(c["case"]): c for c in head}
    out = []
    for c in base:
        h = by_case.get(tuple(c["case"]))
        if h is None:
            out.append(f"{c['case']}: missing")
        else:
            out.extend(f"{c['case']}: {k} differ" for k in SAME if c[k] != h[k])
    return out


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as f, open(argv[2]) as g:
            diffs = compare(json.load(f), json.load(g))
        print("\n".join(diffs) or "answers, query_stats and count_stats are unchanged")
        return 1 if diffs else 0
    if len(argv) != 1:
        print("usage: structure_dump.py OUT.json | --compare BASE.json HEAD.json", file=sys.stderr)
        return 2
    with open(argv[0], "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(dump_case(*case)) for case in CASES) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
