"""Differential dump: every structure a tree builds and every answer it gives.

    PYTHONPATH=src python tests/structure_dump.py OUT.json
    PYTHONPATH=src python tests/structure_dump.py --compare BASE.json HEAD.json

The first form builds one tree per case of CASES and writes, per case, every
structure's expanded cascade rows or leaf keys in structures() order, the
cascades' one order, the typecodes of the tree's arrays (widths), 30 boxes'
hits and counts (a third of the boxes have lo > hi in one dimension), the
four QueryStats totals of the queries and of the counts, and merge_moves.  A
hit is its id and its coordinates as float.hex strings, so a lost -0.0 or a
rounding change shows too.  The structures store leaf keys (each leaf's rank
in its group's dimension) and, above a cascade's leaves, point labels (ranks
in the last dimension); the dump writes each stored label below n, order's
included, as its point id, read from the tree's id map, and keys, bridges
and phantoms as stored.  It reads only the tree's root, ids and dims, every
group's rows and L, a cascade group's bridges and order, a level's dim,
subs, first and per (structures, slots), and the hits' id and coords.
Diffing the outputs of two versions of the package, each dumped by its own
copy of this file, shows every change in layout, answer or cost counter.
One case is written per line.  Which structures exist is layout too: a
level node that no query can reach has no structure, so it is in no dump,
and a change to which nodes are built shows in structures, widths and
merge_moves only.  The second form exits 1, naming each case, when a case
of BASE is missing from HEAD or its answers, query_stats or count_stats
differ, and for each differing stats field says which counters fell and
which rose.  It also names, without failing, each case whose structures,
order, widths or merge_moves differ (or that one file lacks), so a layout
or width change shows in its output.  CI runs it on every pull request
against the base commit's dump.  It reads only the two files, so only the
first form imports layertree.  tests/test_tree.py pins a digest of
structure_row and order_row over fixed trees and runs the smallest cases.

It is also the tests' reference module.  It holds the scalar splitmix64
generator (splitmix64_next, SplitMix64), which the package's vectorized
stream must match draw for draw, and the tests' one walk model, walk_model:
what cascade._walk must yield and count over leaf positions, from a
member's node labels alone (model_checked checks walk calls by it), and
split_node, the leaf positions of a rank interval from a member's leaf
ranks, which tree._Level.reached must give.  It is the tests' one reader of
structure layout: the reference order and box filter over Points
(composite_key, box_contains), a point set's Points (every_point), a
cascade member's bridge_rows, node (r, pos) and words, a cascade or level
member's leaf_row (its keys as stored), leaf_ranks (those keys over all L
leaves), leaf_label, leaf_labels and the real labels of its subtree (r,
pos), a group's members, all_nodes of a tree, a member's query output as a
list (collect), a level member's slots and every structure of a tree
(structures).  They read every row of either group kind by one rule:
member g's entries start at g*L; words and leaf_ranks read the root's rows,
cut to min(n + 1, L) entries at every d, with each cut position t holding
its phantom t.  Its top level imports nothing from layertree.
"""

import json
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from dataclasses import astuple
from operator import attrgetter

# finite extremes, signed zeros and the smallest subnormal, plus ordinary values
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, -1.0, 0.5, 1.0]
SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 127, 128, 129, 200, 257]
DISTS = ["uniform", "grid", "edge"]
CASES = [(d, dist, n) for d in (1, 2, 3, 4) for dist in DISTS for n in SIZES
         if d < 4 or n <= 129]
BOXES = 30


MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple:
    """Advance a splitmix64 state by one step; returns (new_state, output), mod 2^64."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class SplitMix64:
    """The scalar splitmix64 stream, one draw per call: gen_points' reference."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state, out = splitmix64_next(self.state)
        return out

    def next_float(self) -> float:
        """Uniform in [0, 1]: output / 2^64, which rounds to 1.0 for outputs >= 2^64 - 1024."""
        return self.next_u64() / float(2**64)

    def next_below(self, bound: int) -> int:
        """Output mod bound (bound >= 1); biased but fine for test workloads."""
        return self.next_u64() % bound


def case_points(d: int, dist: str, n: int):
    from layertree import GeneratorConfig, PointSet, gen_points

    seed = 1000 * d + n
    if dist == "edge":
        rng = SplitMix64(seed)
        return PointSet.from_coords(
            [[EDGE_VALUES[rng.next_below(len(EDGE_VALUES))] for _ in range(d)]
             for _ in range(n)])
    return gen_points(GeneratorConfig(seed=seed, n=n, dims=d, dist=dist, grid_side=3))


def case_boxes(d: int, dist: str, n: int) -> list:
    """BOXES boxes; every third one has lo > hi (or lo = hi) in dimension i mod d."""
    from layertree import QueryBox

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


def composite_key(p, dim: int) -> tuple:
    """Point p's key in dimension dim: coordinate, then full tuple, then id; never shared."""
    return (p.coords[dim], p.coords, p.id)


def box_contains(box, p) -> bool:
    """True iff lo_j <= p.coords[j] <= hi_j for every dimension j of QueryBox box."""
    from layertree import DimensionMismatch

    if box.dims != len(p.coords):
        raise DimensionMismatch(f"box of dimension {box.dims}, point of dimension {len(p.coords)}")
    return all(l <= c <= h for l, c, h in zip(box.lo, p.coords, box.hi))


def every_point(ps) -> list:
    """Every Point of PointSet ps, in id order, made by the one maker the queries use."""
    return ps._points(range(len(ps)))


def all_nodes(L: int) -> list:
    """Every node (r, pos) of a tree over L leaves, root row first."""
    return [(r, p) for r in range(L.bit_length() - 1, -1, -1) for p in range(L >> r)]


def words(cs, g: int = 0):
    """Cascade member g's labels, row by row: its L of each of cs.rows, row 0 read through cs.order.

    Row 0 holds leaf keys, and a leaf's label is cs.order[key] (see Index
    space in cascade).  A row cut short, the root's, reads each position
    past its end as that position's phantom, t at t, so member g's row k
    starts at k*L.
    """
    out = array(cs.order.typecode, [cs.order[k] for k in leaf_row(cs, g)])
    out.extend(range(len(out), cs.L))
    for row in cs.rows[1:]:
        part = row[g * cs.L : (g + 1) * cs.L]
        out += part
        out.extend(range(len(part), cs.L))
    return out


def bridge_rows(cs, g: int = 0) -> list:
    """Member g's left-bridge rows 1..H, as lists: its stored entries of each of cs.bridges[1:]."""
    return [lb[g * cs.L : (g + 1) * cs.L].tolist() for lb in cs.bridges[1:]]


def members(group) -> int:
    """The member count G of a cascade or level group: its leaf row entries over L, rounded up."""
    return -(-len(group.rows[0]) // group.L)


def leaf_row(s, g: int = 0):
    """Member g's stored leaf keys, from g*L of a cascade's or a level's row 0.

    They are L, each leaf's rank in the group's own dimension, or at the
    root its positions, a range of min(n + 1, L).
    """
    return s.rows[0][g * s.L : (g + 1) * s.L]


def leaf_label(s, g: int, p: int) -> int:
    """The label of member g's leaf p.

    A cascade reads it through its order.  A level keeps no label: leaf p's
    is the one point of the structure at its node (0, p), found down to a
    cascade leaf, and a leaf with no structure is the root's phantom n,
    its own label.
    """
    if hasattr(s, "bridges"):
        return s.order[s.rows[0][g * s.L + p]]
    if p >= s.per[0]:
        return p
    return leaf_label(s.subs[0], s.first[0] + g * s.per[0] + p, 0)


def leaf_labels(s, g: int = 0) -> list:
    """Member g's leaf labels in leaf order, one per stored leaf key."""
    return [leaf_label(s, g, p) for p in range(len(leaf_row(s, g)))]


def leaf_ranks(s, g: int = 0) -> list:
    """The ranks member g's leaf row is sorted by, in leaf order: its L leaf keys.

    The root's cut positions read as their phantoms, t at t.
    """
    keys = list(leaf_row(s, g))
    return keys + list(range(len(keys), s.L))


def subtree(s, g: int, r: int, pos: int, n: int) -> list:
    """The real labels (< n) under node (r, pos) of member g, in leaf order: its leaf row chunk."""
    stop = min((pos + 1) << r, len(leaf_row(s, g)))
    return [e for e in (leaf_label(s, g, p) for p in range(pos << r, stop)) if e < n]


def split_node(ranks, a, b) -> tuple:
    """(pa, pb, r, pos): the leaf positions [pa, pb) of ranks [a, b), and the split node (r, pos).

    ranks is a member's leaf_ranks (pa = pb when none is in [a, b)).  The split node is the
    lowest node holding leaves pa and last = min(pb, L-1), or leaf last when pa >= pb.
    """
    pb = bisect_left(ranks, b)
    pa = min(bisect_left(ranks, a), pb)
    last = min(pb, len(ranks) - 1)
    r = (pa ^ last).bit_length() if pa < pb else 0  # the lowest row where the two agree
    return pa, pb, r, last >> r


walk_counters = attrgetter("nodes_visited", "binary_searches", "bridge_follows")


def walk_model(group, g, a, b, ya=None, yb=None, carry_yb=True, labels=None):
    """(yields, (nodes_visited, binary_searches, bridge_follows)) that cascade._walk must give.

    [a, b) are member g's leaf positions.  It reads the member's node labels
    alone (labels, its words, may be passed in), with no bridge read and no
    walk.  pa, pb, and S, the split node at row r, are split_node's, leaf p
    ranking p: so pa = min(a, b) and pb = b.  For leaf l = pa,
    then l = last, it yields each node two or more rows below S whose parent
    is an ancestor of l, that is not one, and whose leaves all lie in
    [pa, pb), rows descending, then l if pa <= l < pb.  A cascade (ya not
    None) yields nothing if S holds no label in [ya, yb); else l's path
    stops at its first ancestor below S holding none, yielding that row's
    node but not l.  lo and hi are bisect_left of a node's labels for ya and
    yb (hi None for a query, both for a level).  nodes_visited is H + 1 - r
    plus one per ancestor of l stepped into below S and per other yield;
    binary_searches is the positions carried, and bridge_follows that times
    the part of nodes_visited below S.
    """
    L = group.L
    pa, pb, r, pos = split_node(range(L), a, b)
    npos = 0 if ya is None else 1 + bool(carry_yb)
    if npos and labels is None:
        labels = words(group, g)

    def at(k, p):  # node (k, p): its (lo, hi) and whether it holds a label in [ya, yb)
        if not npos:
            return None, None, True
        first = k * L + (p << k)  # its labels in words
        lo, hi = (bisect_left(labels, y, first, first + (1 << k)) - first for y in (ya, yb))
        return lo, hi if carry_yb else None, lo < hi

    out, below = [], 0
    if at(r, pos)[2]:
        for leaf in dict.fromkeys((pa, min(pb, L - 1))):
            for k in range(r - 1, -1, -1):  # leaf's ancestor at row k
                sib = (leaf >> k) ^ 1
                below += 1
                if k <= r - 2 and pa <= sib << k and (sib + 1) << k <= pb:
                    below += 1
                    out.append((k, sib, *at(k, sib)[:2]))
                if not at(k, leaf >> k)[2]:
                    break
            else:
                if pa <= leaf < pb:
                    out.append((0, leaf, *at(0, leaf)[:2]))
    return out, (L.bit_length() - r + below, npos, npos * below)


def model_checked(monkeypatch) -> list:
    """Put a stand-in for cascade._walk that passes each call on to it and checks it by walk_model.

    It stands in under both names the package calls it by, cascade._walk
    and the tree module's imported _walk, so a level's walks are checked
    too.  A call's yields and counters must equal the model's.  Each call
    appends (group, split row, yields, counters) to the list returned.  A
    cascade member's words are read once, at its first call.
    """
    import layertree.cascade
    import layertree.tree

    walk, views, calls = layertree.cascade._walk, {}, []

    def checked(group, g, a, b, ya, yb, stats, carry_yb=True):
        key = id(group), g
        if ya is not None and key not in views:
            views[key] = words(group, g)
        before = walk_counters(stats)
        got = list(walk(group, g, a, b, ya, yb, stats, carry_yb))
        counters = tuple(x - y for x, y in zip(walk_counters(stats), before))
        want = walk_model(group, g, a, b, ya, yb, carry_yb, views.get(key))
        assert (got, counters) == want, (a, b, ya, yb, carry_yb)
        calls.append((group, split_node(range(group.L), a, b)[2], got, counters))
        yield from got

    monkeypatch.setattr(layertree.cascade, "_walk", checked)
    monkeypatch.setattr(layertree.tree, "_walk", checked)
    return calls


# a cascade node's labels (y ranks; phantoms >= n) in order, and its bridges
CascadeNode = namedtuple("CascadeNode", "ranks left_bridge right_bridge")


def node(cs, row: int, pos: int, g: int = 0) -> CascadeNode:
    """Node (row, pos) of member g: the chunks at pos*2^row of its node row and lb row, as stored.

    A leaf's one label is read through cs.order from its key.  So a d=2
    root's node that reaches past position n holds its entries up to n
    only (see words for the cut phantoms).
    """
    span = 1 << row
    at = g * cs.L + pos * span  # in rows[row] and in bridges[row]
    lb = cs.bridges[row][at : at + span].tolist() if row else []
    labels = cs.rows[row][at : at + span] if row else [cs.order[k] for k in cs.rows[0][at : at + 1]]
    return CascadeNode(list(labels), lb, [t - l for t, l in enumerate(lb)])


def slots(level, g: int):
    """Yield ((row, pos), (group, member)) for each node of level member g with a structure.

    Rows run from the root's down to the leaves', positions ascending; the
    nodes are the level's _reachable ones, and each structure is found by
    the level's arithmetic on the node's name (see tree._Level).
    """
    from layertree.tree import _reachable

    for r in range(level.L.bit_length() - 1, -1, -1):
        for pos in _reachable(level.L, level.per[0], r):
            yield (r, pos), (level.subs[r], level.first[r] + g * level.per[r] + pos)


def structures(tree):
    """Yield (level index, (group, member)) over every structure of a tree, root first.

    The group is a _Slab, a _Level or a CascadeStructure; the root is
    member 0 of a group of one.  The order is depth first: the
    structures of a level member's nodes follow it, last node first.
    """
    stack = [(0, (tree.root, 0))]
    while stack:
        level, node = stack.pop()
        yield level, node
        s, g = node
        if hasattr(s, "subs"):  # a level
            stack.extend((level + 1, sub) for _, sub in slots(s, g))


def collect(tree, group, g: int, a, b, stats=None) -> list:
    """The labels member g of a group of tree emits for the rank box [a, b), as a plain list.

    Its leaf positions are split_node's of its leaf_ranks in its own
    dimension: a level's dim, a cascade's the second-to-last.  A list takes
    an emitted slice of any typecode, or a range; the walk counts into stats.
    """
    from layertree import QueryStats

    j = getattr(group, "dim", len(a) - 2)
    u, v = split_node(leaf_ranks(group, g), a[j], b[j])[:2]
    out: list = []
    group.query(g, u, v, a, b, QueryStats() if stats is None else stats, out.extend)
    return out


def structure_row(s, g: int, ids) -> list:
    """Member g's expanded cascade rows, or the leaf keys of a level or slab member.

    The expansion is the leaf keys (leaf_ranks, with the root's cut
    positions), the label rows 1..H (member g's words past row 0), the lb
    rows (its bridge rows, as stored), then the right bridges t - lb: entry
    i of lb row r sits at position t = i mod 2^r of its node's array.  A
    level member's row is its leaf_row, as stored.  Labels below n =
    len(ids) are written as the ids the tree's id map gives them, and keys
    as stored; the slab's leaf row is every label in order.
    """
    if not hasattr(s, "L"):
        return ids.tolist()
    if not hasattr(s, "bridges"):
        return list(leaf_row(s, g))
    n = len(ids)
    lbs = bridge_rows(s, g)
    return leaf_ranks(s, g) + [ids[e] if e < n else e for e in words(s, g)[s.L :]] + [
        e for lb in lbs for e in lb] + [
        (i & ((1 << r) - 1)) - lb[i] for r, lb in enumerate(lbs, 1) for i in range(len(lb))]


def order_row(tree):
    """The cascades' one order, labels below n written as ids; None for a tree with no cascade."""
    cascade = next((s for _, (s, _) in structures(tree) if hasattr(s, "bridges")), None)
    n = len(tree.ids)
    return None if cascade is None else [tree.ids[e] if e < n else e for e in cascade.order]


def widths(tree) -> dict:
    """The typecodes of a tree's arrays, each group once, in structures() order.

    ids is the id map's; ranks, by dimension 1..d-2, the leaf keys' of
    that dimension's groups (each leaf's rank there; dimension 0's keys are
    the root's positions); levels each level group's leaf keys', and
    cascades each cascade group's labels' (rows 1..H, or order when L = 1)
    with its bridge rows' 1..H as one string.  A row kept as a range, the
    root's leaf keys, stores no entry and reads as the tree's index width,
    the id map's, which holds its values.
    """
    ranks, levels, cascades, seen = {}, [], [], set()
    width = lambda row: tree.ids.typecode if isinstance(row, range) else row.typecode
    for _, (s, _) in structures(tree):
        if id(s) in seen or not hasattr(s, "L"):  # each group once; the slab holds no array
            continue
        seen.add(id(s))
        dim = getattr(s, "dim", tree.dims - 2)  # a cascade's is d-2
        if dim:
            ranks[dim] = width(s.rows[0])
        if hasattr(s, "bridges"):
            labels = s.rows[1] if len(s.rows) > 1 else s.order
            cascades.append([labels.typecode, "".join(lb.typecode for lb in s.bridges[1:])])
        else:
            levels.append(width(s.rows[0]))
    return {"ids": tree.ids.typecode, "ranks": [ranks[j] for j in sorted(ranks)],
            "levels": levels, "cascades": cascades}


def hit(p) -> list:
    """A reported point as [id, [float.hex of each coordinate]]."""
    return [p.id, [c.hex() for c in p.coords]]


def dump_case(d: int, dist: str, n: int) -> dict:
    from layertree import BuildCounters, QueryStats, build

    counters = BuildCounters()
    tree = build(case_points(d, dist, n), counters)
    q, c = QueryStats(), QueryStats()
    answers = [(list(map(hit, tree.query(box, q))), tree.count(box, c))
               for box in case_boxes(d, dist, n)]
    return {
        "case": [d, dist, n],
        "structures": [[level, type(s).__name__, structure_row(s, g, tree.ids)]
                       for level, (s, g) in structures(tree)],
        "order": order_row(tree),
        "widths": widths(tree),
        "answers": answers,
        "query_stats": list(astuple(q)),
        "count_stats": list(astuple(c)),
        "merge_moves": counters.merge_moves,
    }


SAME = ("answers", "query_stats", "count_stats")  # what no layout change may alter
LAYOUT = ("structures", "order", "widths", "merge_moves")  # what a layout change alters


def compare(base: list, head: list, fields: tuple = SAME) -> list:
    """One line per case of base that head lacks, and per one of its `fields` that differs.

    A field that only one of the two has differs: a dump made before the
    field existed lacks it.
    """
    by_case = {tuple(c["case"]): c for c in head}
    out = []
    for c in base:
        h = by_case.get(tuple(c["case"]))
        if h is None:
            out.append(f"{c['case']}: missing")
        else:
            out.extend(f"{c['case']}: {k} differ" for k in fields if c.get(k) != h.get(k))
    return out


COUNTERS = ("nodes_visited", "binary_searches", "bridge_follows", "reported")  # QueryStats order


def directions(base: list, head: list) -> list:
    """Per case in both dumps and stats field that differs, a line: which counters fell, which rose."""
    by_case = {tuple(c["case"]): c for c in head}
    out = []
    for c in base:
        h = by_case.get(tuple(c["case"]), {})
        for k in ("query_stats", "count_stats"):
            old, new = c.get(k), h.get(k)
            if old and new and old != new:
                moves = list(zip(COUNTERS, old, new))
                fell = ", ".join(f"{name} {x} -> {y}" for name, x, y in moves if y < x)
                rose = ", ".join(f"{name} {x} -> {y}" for name, x, y in moves if y > x)
                out.append(f"{c['case']}: {k} fell: {fell or 'none'}; rose: {rose or 'none'}")
    return out


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as f, open(argv[2]) as g:
            base, head = json.load(f), json.load(g)
        diffs = compare(base, head)
        moved = [line for line in compare(base, head, LAYOUT) if line not in diffs]
        print("\n".join(diffs) or "answers, query_stats and count_stats are unchanged")
        for line in directions(base, head):
            print(line)
        print("\n".join(["layout changes (not a failure):"] + moved) if moved
              else f"{', '.join(LAYOUT[:-1])} and {LAYOUT[-1]} are unchanged")
        return 1 if diffs else 0
    if len(argv) != 1:
        print("usage: structure_dump.py OUT.json | --compare BASE.json HEAD.json", file=sys.stderr)
        return 2
    with open(argv[0], "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(dump_case(*case)) for case in CASES) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
