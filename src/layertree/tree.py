"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j.
Each node a query can take as canonical (_reachable) owns an associated
structure over the remaining coordinates, holding exactly the points of its
subtree; no other node has one.  The last two coordinates live in cascades;
a 1-dimensional tree is its rank order.

The structures over one dimension with the same padded size L form one merge
group, a _Level or a CascadeStructure (see Storage in cascade), and a
structure is a (group, member) pair.  A level finds a node's structure by
arithmetic on its (row, pos) name (see _Level).  Every group, and the _Slab,
answers query(g, u, v, a, b, stats, emit) and count(g, u, v, a, b, stats)
for member g: [u, v) are its leaf positions in its own dimension, and
[a, b) is the rank box, read for the dimensions below it.  The root is
member 0 of a group of one (see Walk in cascade for its positions).  A
level's canonical decomposition is cascade._walk with no y bounds, and the
level places its canonical nodes' structures (see _Level).

Everything below LayeredRangeTree.rank_box works in rank space: a box
becomes a rank interval [a_j, b_j) per dimension, and the structures hold
leaf keys and labels and emit labels (see Index space, Walk and Widths in
cascade).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

import numpy as np

from .cascade import (CascadeStructure, _walk, fill_buffers_batch_np, merge_rows, packed,
                      pow2ceil, rank_tables)
from .core import DimensionMismatch, Point, PointSet, QueryBox, TooManyPoints

INT32_MAX = 2**31 - 1
# From this many hits on, query maps and sorts ids in numpy; below it, in
# Python.  The numpy gather and sort cost about 2.0 us plus 0.013 us per hit,
# the map and sort about 0.09-0.1 us per hit: 2.2 against 1.5 us at 16 hits and
# 2.4 against 2.7 at 28, on "H" and "i" trees alike (n = 2^16 - 1 and 1e5,
# random labels, best of 7; CPython 3.11, numpy 2.4, 2-vCPU x86-64 VM).
GATHER_MIN = 26


@dataclass
class QueryStats:
    """Operation counters accumulated over one or more queries.

    Only the walk (cascade._walk) counts work, and only
    LayeredRangeTree.query and .count count results; no structure writes a
    counter.  nodes_visited counts the tree nodes on the split path and the
    two boundary paths, the nodes a rank-reading descent would examine,
    plus every canonical subtree root the walk hands off to; a cascade walk
    reads a path only down to its first node with no label in [ya, yb), so
    the nodes below count nowhere.  Below the root, the two bisects of
    _Level.reached that put a structure's x bounds in its leaf keys stand
    in for those descents node for node, so they are not counted as binary
    searches, just as rank_box's are not (two bisections per dimension, the
    whole search at d=1).  A level calls a canonical node's structure only
    when its placed bounds hold a leaf (the no-empty-call law); a structure
    it skips counts nothing, beyond the canonical node the level's walk
    counted.  binary_searches counts only the bisects of a cascade's
    split-node array, for y: one per cascade query and two per count, each
    one performed, the split leaf's and an empty x range's included, so a
    2D report makes exactly one binary search (the one-search law).  One
    cascade walk visits at most (H + 1 - r) + 4r nodes, H = log2 L of its
    group and r its split node's row: the descent to the split node, then
    on each of two paths at most r steps and r - 1 canonical siblings.
    bridge_follows counts O(1) position transfers along cascade bridges;
    reported (LayeredRangeTree.query and .count) counts reported (or
    counted) points.
    """

    nodes_visited: int = 0
    binary_searches: int = 0
    bridge_follows: int = 0
    reported: int = 0


@dataclass
class BuildCounters:
    """Construction-cost accounting: elements appended by bottom-up merges.

    merge_moves counts every entry a merge step writes, phantoms included:
    G*L per merged row of a group of G members, for the H rows of a cascade
    group and the max(0, H-2) rows of a level group that _reachable cuts
    from (H = log2 L).  The root's cut phantoms count too, since merge_rows
    merges them before it cuts each row.  In all, with H, w and C of the
    tree as in Storage totals in cascade, merge_moves <= L*(C(H - d + 2,
    d - 1) + C(w + d - 3, d - 2) - 1): a cascade group below the root merges
    exactly its label entries, and the root L per row; a level member of
    2^h leaves merges max(0, h - 2) rows, one fewer than the rows it hands
    each point to, so over a point's levels these sum to at most the
    structures d - 2 dimensions below the root that hold it, less one.
    """

    merge_moves: int = 0


def canonical_subtrees(level: "_Level", g: int, u: int, v: int,
                       stats: QueryStats) -> list[tuple[int, int]]:
    """(row, pos) of member g's disjoint subtrees whose leaves are exactly the positions [u, v).

    It is cascade._walk with no y bounds.  At most 2*log2(L) nodes (one for
    a single-leaf tree).  At the root the positions are the ranks (see Walk
    in cascade), and they must lie in 0..n, the range rank_box gives: a v
    past n would take in phantom leaves.  Below the root, the level above
    places them (_Level.reached).  The package exports it because the
    canonical-subtree law is stated on it.
    """
    return [(row, p) for row, p, _, _ in _walk(level, g, u, v, None, None, stats)]


def _reachable(L: int, m: int, r: int) -> range:
    """Positions of the row-r chunks canonical_subtrees can return, for a member with m real leaves.

    Only these nodes get a structure.  Above the leaves, canonical_subtrees
    returns right children off the a path, in the split node's left subtree,
    and left children off the b path, in its right one: two or more rows
    below the split node, and never a chunk holding a phantom (rank >= n >=
    b).  So the leftmost and the rightmost chunk of a row, on the tree's
    outer spines, are never returned; every other full chunk is, for some
    [a, b).  That leaves rows 0 .. max(0, H-2).
    """
    if r == 0:
        return range(m)
    return range(1, min(m >> r, (L >> r) - 1))


class _Slab:
    """The d=1 structure (a group of one): its labels are its ranks, so [u, v) is range(u, v)."""

    __slots__ = ()

    def query(self, g, u, v, a, b, stats, emit):
        emit(range(u, v))

    def count(self, g, u, v, a, b, stats) -> int:
        return max(0, v - u)


class _Level:
    """A level merge group: the G level trees over dimension `dim` with the same L.

    rows = [row 0] holds only the leaf keys, each leaf's rank in dim (see
    Index space and Storage in cascade); the root's is range(min(n + 1,
    L)).  subs lists the next dimension's groups by log2 L.  Node
    (r, pos), if _reachable, has the structure first[r] + g*per[r] + pos of
    subs[r], where per[r] counts one member's structures in row r, so
    per[0] is the member's real leaf count.

    The level keeps no rank table: build merged its rows above the leaves
    by dimension dim+1's, so every structure in subs has its leaf keys in
    that dimension ascending, and reached places the bounds there.
    """

    __slots__ = ("dim", "rows", "L", "subs", "first", "per")

    def __init__(self, dim: int, rows: list, L: int, subs: list):
        self.dim = dim
        self.rows = rows
        self.L = L
        self.subs = subs
        self.first, self.per = [0] * L.bit_length(), [0] * L.bit_length()  # set by build

    def reached(self, g, u, v, a, b, stats):
        """(structure, member, u, v) per canonical node of [u, v) whose placed bounds hold a leaf.

        Two bisects of the node's structure's leaf keys place the rank
        bounds a[dim+1], b[dim+1] as its leaf positions: v is the first leaf
        ranked b or more, and u the first ranked a or more before it, so
        u <= v, and u == v iff no leaf is in range; the structure is then
        skipped (QueryStats says how the bisects and a skip count).
        """
        subs, first, per, j = self.subs, self.first, self.per, self.dim + 1
        aj, bj = a[j], b[j]
        for r, p in canonical_subtrees(self, g, u, v, stats):
            sub, h = subs[r], first[r] + g * per[r] + p
            keys, base = sub.rows[0], h << r  # the structure's L is 2^r
            sv = bisect_left(keys, bj, base, base + (1 << r))
            su = bisect_left(keys, aj, base, sv)
            if su < sv:
                yield sub, h, su - base, sv - base

    def query(self, g, u, v, a, b, stats, emit):
        for sub, h, su, sv in self.reached(g, u, v, a, b, stats):
            sub.query(h, su, sv, a, b, stats, emit)

    def count(self, g, u, v, a, b, stats) -> int:
        total = 0
        for sub, h, su, sv in self.reached(g, u, v, a, b, stats):
            total += sub.count(h, su, sv, a, b, stats)
        return total


class LayeredRangeTree:
    """Static d-dimensional orthogonal range search structure.

    Built once from a PointSet; afterwards immutable, so concurrent queries
    are safe as long as each caller uses its own QueryStats accumulator.
    """

    def __init__(self, pointset: PointSet, root, ids: array, axes: list):
        self.pointset = pointset
        self.dims = pointset.dims
        self.n = len(pointset)
        self.root = root  # member 0 of a group of one
        self.ids = ids  # the id map: ids[label] is the id of the point with that label
        self._axes = axes  # per dimension, the coordinates in rank order

    # -- queries ------------------------------------------------------------

    def rank_box(self, box: QueryBox) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`box` as rank bounds (a, b): a[j] counts coordinates < lo_j, b[j] those <= hi_j."""
        if box.dims != self.dims:
            raise DimensionMismatch(f"box of dimension {box.dims} against a {self.dims}-d tree")
        return (tuple(map(bisect_left, self._axes, box.lo)),
                tuple(map(bisect_right, self._axes, box.hi)))

    def query(self, box: QueryBox, stats: Optional[QueryStats] = None) -> list[Point]:
        """All points inside the closed box, sorted by id.

        The structures emit runs of labels into one array; they are counted
        as reported, mapped to ids and sorted, and only then made Points, by
        PointSet._points, which the tree's own id map keeps valid.  From
        GATHER_MIN hits on, one numpy gather through the id map and one
        numpy sort do the mapping; below it, where numpy's fixed cost per
        call dominates, a Python map and sorted() do.  Either way the ids
        are Python ints.
        """
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        code = self.ids.typecode
        labels = array(code)
        self.root.query(0, a[0], b[0], a, b, stats, labels.extend)
        stats.reported += len(labels)
        if len(labels) >= GATHER_MIN:
            ids = np.sort(np.frombuffer(self.ids, dtype=code)[np.frombuffer(labels, dtype=code)]).tolist()
        else:
            ids = sorted(map(self.ids.__getitem__, labels))
        return self.pointset._points(ids)

    def count(self, box: QueryBox, stats: Optional[QueryStats] = None) -> int:
        """|query(box)| computed from bridge positions, without enumeration."""
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        k = self.root.count(0, a[0], b[0], a, b, stats)
        stats.reported += k
        return k


def _keyed(leaves: array, rank) -> array | range:
    """A group's leaf labels as its leaf keys (see Index space in cascade).

    Each label's rank in the rank_tables table `rank`, at the labels'
    typecode; the root, whose rank is None, keys each leaf by its position.
    """
    if rank is None:
        return range(len(leaves))
    code = leaves.typecode
    return packed(code, np.frombuffer(rank, dtype=code)[np.frombuffer(leaves, dtype=code)])


def build(points: PointSet, counters: Optional[BuildCounters] = None) -> LayeredRangeTree:
    """Build the layered range tree, one dimension at a time.

    rank_tables gives the id map, the root's leaf labels, already cut to
    min(n + 1, L) entries (see Storage in cascade), the rank tables and
    each dimension's coordinates in rank order.  The structures over
    dimension j are built as groups by padded size L, listed in tops[j] by
    log2 L.  Each group's leaf labels are concatenated into one array (see
    Storage in cascade), and the group runs one batched merge (merge_rows)
    of them; only then does _keyed turn them into the leaf keys the group
    keeps.  On a level (j < d-2) the group is a _Level and merges by rank
    table j+1, with no bridges, and stops after row max(0, H-2), the last
    row _reachable cuts chunks from.  Each row r, cut to those chunks, is
    as it stands the leaf labels of structures with L = 2^r in tops[j+1];
    they hold no phantom.  On the cascade (j = d-2) the labels are the
    keys, and the group keeps every merged row and its bridge row, each as
    long as its leaf row.  The cascades' one order is the root's leaf
    labels at d = 2, and is made from rank table d-2 after the last merge
    otherwise, so it is not alive through the merges.  counters, if given,
    gets each group's merge work (see BuildCounters).  Raises
    TooManyPoints, before anything is allocated, unless n < 2^30.
    """
    n = len(points)
    maxL = pow2ceil(n)
    # n < 2^30: labels and ranks (< maxL) and merge_rows' bridge sums (< 1.5*maxL) fit int32
    if n + maxL > INT32_MAX:
        raise TooManyPoints(f"{n} points and {maxL} padding slots exceed the int32 range")
    d = points.dims
    ids, row, ranks, axes = rank_tables(points.coord_matrix())
    code = ids.typecode  # the tree's one index width, index_code(maxL)
    if d == 1:
        return LayeredRangeTree(points, _Slab(), ids, axes)

    tops = [[None] * maxL.bit_length() for _ in range(d - 1)]
    # per L, the leaf labels of its members in member order; the root keeps
    # only phantom n (see Storage in cascade)
    groups = {maxL: [row]}
    del row
    for j in range(d - 1):
        nxt: dict = {}
        while groups:  # popped, so each group's pieces are freed once it is built
            L, pieces = groups.popitem()
            leaves = packed(code, *pieces)
            del pieces
            H = L.bit_length() - 1
            merged = H if j == d - 2 else max(0, H - 2)  # rows past H-2 hold no reachable chunk
            if counters is not None:  # G*L entries per row, L at a cut root
                counters.merge_moves += merged * max(len(leaves), L)
            if j == d - 2:
                rows, bridges = fill_buffers_batch_np(leaves, L)
                rows[0] = _keyed(leaves, ranks[j])
                # at d = 2 the root's leaf labels are order (see Index space in cascade)
                tops[j][H] = CascadeStructure(L, rows, bridges, leaves if j == 0 else None)
                continue
            G, m = (1, n) if j == 0 else (len(leaves) // L, L)  # the root, a group of one
            level = tops[j][H] = _Level(j, [leaves], L, tops[j + 1])
            for r, (row, _) in enumerate(islice(chain([(leaves, None)],
                                                      merge_rows(leaves, L, ranks[j + 1])),
                                                merged + 1)):
                chunks = _reachable(L, m, r)
                pieces = nxt.setdefault(1 << r, [])
                level.first[r] = (sum(map(len, pieces)) >> r) - chunks.start
                level.per[r] = len(chunks)
                pieces.append(np.frombuffer(row, dtype=code).reshape(G, -1)
                              [:, chunks.start << r : chunks.stop << r].copy().reshape(-1))
                del row  # so no row stays bound after the loop
            level.rows[0] = _keyed(leaves, ranks[j])
        groups = nxt
    if d > 2:  # the label at each rank of dimension d-2, phantom n last
        label = np.empty(maxL, dtype=code)
        label[np.frombuffer(ranks[d - 2], dtype=code)] = np.arange(maxL, dtype=code)
        order = packed(code, label[: min(n + 1, maxL)])
        for cs in filter(None, tops[d - 2]):
            cs.order = order
    return LayeredRangeTree(points, tops[0][maxL.bit_length() - 1], ids, axes)
