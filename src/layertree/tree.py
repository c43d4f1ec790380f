"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j.
Each node a query can take as canonical (_reachable) owns an associated
structure over the remaining coordinates, holding exactly the points of its
subtree; no other node has one.  The last two coordinates live in cascades;
a 1-dimensional tree is its rank order.

The structures over one dimension with the same padded size L form one merge
group, a _Level or a CascadeStructure, and a structure is a (group, member)
pair.  A level finds a node's structure by arithmetic on its slot (see
_Level).  Every group, and the _Slab, answers query(g, a, b, stats, emit)
and count(g, a, b, stats) for member g and the rank box [a, b); the root is
member 0 of a group of one.

A level is its leaf row, the one implicit tree shape of the package (see
cascade): L padded leaf labels sorted by rank, where the node at row r
(depth log2(L) - r) and position pos covers the leaves pos*2^r ..
(pos+1)*2^r - 1 and splits at the rightmost leaf of its left half.  Its
nodes are numbered in heap order: slot (L >> r) - 1 + pos, so slot 0 is the
root, the children of slot i are 2i+1 and 2i+2, and the leaves are
slots L-1 .. 2L-2.  A level's canonical decomposition is a cascade's walk
down the two boundary paths (cascade._walk) with no positions to carry.
Everything below LayeredRangeTree.rank_box works in rank space: the
structures hold and emit labels (ranks in the last dimension), one int32
table per other dimension ranks each label, and a box becomes a rank
interval [a_j, b_j) per dimension.  Padding leaves are phantoms ranked after
every real point, so they never fall inside one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cascade import (CascadeStructure, _find_split, _walk, fill_buffers_batch_np, merge_rows,
                      pow2ceil, rank_tables)
from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, TooManyPoints

INT32_MAX = 2**31 - 1


@dataclass
class QueryStats:
    """Operation counters accumulated over one or more queries.

    nodes_visited counts every tree slot whose key a query examines plus every
    canonical subtree root it hands off to; binary_searches counts bisects
    of a cascade's split-node array, not the per-box rank mapping
    (rank_box: two bisections per dimension, the whole search at d=1);
    bridge_follows counts O(1) position transfers along cascade bridges;
    reported counts emitted (or counted) points.
    """

    nodes_visited: int = 0
    binary_searches: int = 0
    bridge_follows: int = 0
    reported: int = 0


@dataclass
class BuildCounters:
    """Construction-cost accounting: elements appended by bottom-up merges.

    merge_moves counts a cascade merge's padded entries too (G*L*H per group
    of G, H = log2 L), but only a level merge's real ones (H*m per member:
    m = n at the root, L below it, where no member holds a phantom).
    """

    merge_moves: int = 0


def canonical_subtrees(level: "_Level", g: int, a: int, b: int,
                       stats: Optional[QueryStats] = None) -> list[int]:
    """Heap slots of member g's disjoint subtrees whose leaves are exactly the ranks in [a, b).

    Member g's leaf row of labels starts at g*L in level.ids.  The split
    descent and the boundary walk are a cascade's (cascade._find_split and
    cascade._walk), run with no positions, since a level has no bridges.
    The node at row r, position pos of that row is heap slot
    (L >> r) - 1 + pos, in 0 .. 2L-2.  At most 2*log2(L) slots (one slot for
    a single-leaf tree); phantom leaves never qualify because their ranks
    are at least n >= b.
    """
    if stats is None:
        stats = QueryStats()
    ids, rank, L = level.ids, level.rank, level.L
    base = g * L
    depth, pos = _find_split(ids, rank, base, L, a, b, stats)
    walk = _walk(ids, rank, base, L, depth, pos, a, b, None, None, stats)
    return [(L >> row) - 1 + p for row, p, _, _ in walk]


def _reachable(L: int, m: int, r: int) -> range:
    """Positions of the row-r chunks canonical_subtrees can return, for a member with m real leaves.

    Only these slots get a structure.  Above the leaves, canonical_subtrees
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
    """The d=1 structure (a group of one): its labels are its ranks, so [a, b) is range(a, b)."""

    __slots__ = ()

    def query(self, g, a, b, stats, emit):
        lo, hi = a[0], b[0]
        if hi > lo:
            emit(range(lo, hi))
            stats.reported += hi - lo

    def count(self, g, a, b, stats) -> int:
        return max(0, b[0] - a[0])


class _Level:
    """A level merge group: the G level trees over dimension `dim` with the same L.

    Member g < G = len(ids) // L has the leaf row ids[g*L : (g+1)*L]: L labels
    sorted by `rank`, its m real labels first, then phantoms (labels >= n):
    only the root holds phantoms, so m is n there and L below.  subs lists
    the next dimension's groups by log2 L.  Slot s at depth t, if _reachable,
    has the structure first[t] + g*per[t] + s of subs[log2(L) - t], where
    per[t] counts one member's structures at depth t.
    """

    __slots__ = ("dim", "ids", "L", "m", "rank", "subs", "first", "per")

    def __init__(self, dim: int, ids, L: int, m: int, rank, subs: list):
        self.dim = dim
        self.ids = ids
        self.L = L
        self.m = m
        self.rank = rank
        self.subs = subs
        self.first, self.per = [0] * L.bit_length(), [0] * L.bit_length()  # set by build

    def slots(self, g: int) -> Iterator[tuple[int, tuple[object, int]]]:
        """Yield (slot, (group, member)) for every slot of member g that has a structure."""
        H = self.L.bit_length() - 1
        for t in range(H + 1):
            top = (1 << t) - 1  # the slot at depth t, position 0
            for pos in _reachable(self.L, self.m, H - t):
                yield top + pos, (self.subs[H - t], self.first[t] + g * self.per[t] + top + pos)

    def query(self, g, a, b, stats, emit):
        subs, first, per, H = self.subs, self.first, self.per, self.L.bit_length() - 1
        for s in canonical_subtrees(self, g, a[self.dim], b[self.dim], stats):
            t = (s + 1).bit_length() - 1
            subs[H - t].query(first[t] + g * per[t] + s, a, b, stats, emit)

    def count(self, g, a, b, stats) -> int:
        subs, first, per, H = self.subs, self.first, self.per, self.L.bit_length() - 1
        total = 0
        for s in canonical_subtrees(self, g, a[self.dim], b[self.dim], stats):
            t = (s + 1).bit_length() - 1
            total += subs[H - t].count(first[t] + g * per[t] + s, a, b, stats)
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

        The structures emit runs of labels; they are mapped to ids, sorted as
        ints, and only then to points, which the point set makes on a first hit.
        """
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        labels = array("i")
        self.root.query(0, a, b, stats, labels.extend)
        return self.pointset.take(sorted(map(self.ids.__getitem__, labels)))

    def count(self, box: QueryBox, stats: Optional[QueryStats] = None) -> int:
        """|query(box)| computed from bridge positions, without enumeration."""
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        k = self.root.count(0, a, b, stats)
        stats.reported += k
        return k

    # -- structure inspection -------------------------------------------------

    def structures(self) -> Iterator[tuple[int, tuple[object, int]]]:
        """Yield (level index, (group, member)) over every tree instance, root first.

        The group is a _Slab, a _Level or a CascadeStructure; the root is
        member 0 of a group of one.  The order is depth first: the
        structures of a level member's slots follow it, last slot first.
        """
        stack = [(0, (self.root, 0))]
        while stack:
            level, node = stack.pop()
            yield level, node
            s, g = node
            if isinstance(s, _Level):
                stack.extend((level + 1, sub) for _, sub in s.slots(g))


def build(points: PointSet, counters: Optional[BuildCounters] = None) -> LayeredRangeTree:
    """Build the layered range tree, one dimension at a time.

    rank_tables sorts the rows once by (coords, id), orders each dimension
    by its coordinate, then that row rank, and labels each point by its
    last-dimension rank.  It returns the id map, the root's leaf row, an
    int32 rank per label for every other dimension and each dimension's
    coordinates in rank order; labels and ranks are the only keys.  The
    structures over dimension j are built as groups by padded size L, listed
    in tops[j] by log2 L: each group runs one batched merge (merge_rows) of
    its leaf rows by the ranks of dimension j+1.  On a level (j < d-2) the
    group is a _Level, and no bridges are made.  Its merged row r, cut to
    the chunks _reachable keeps, is as it stands the leaf rows of structures
    with L = 2^r in tops[j+1]; they hold no phantom.  On the
    cascade (j = d-2) the labels are the keys: the merged rows and bridges
    are the buffers, one array("i") per CascadeStructure.  Raises
    TooManyPoints, before anything is allocated, when the labels and
    phantom labels would not fit in int32.
    """
    n = len(points)
    if n == 0:
        raise EmptyInput("cannot build a tree over zero points")
    maxL = pow2ceil(n)
    if n + maxL > INT32_MAX:  # labels, phantom labels n..n+maxL-1 and ranks are int32
        raise TooManyPoints(f"{n} points and {maxL} padding slots exceed the int32 range")
    d = points.dims
    ids, row, ranks, axes = rank_tables(points.coord_matrix(), maxL)
    if d == 1:
        return LayeredRangeTree(points, _Slab(), ids, axes)

    tops = [[None] * maxL.bit_length() for _ in range(d - 1)]
    # per L, the leaf rows of its members in member order; phantom n+t pads the root's leaf t
    groups = {maxL: [np.concatenate((row, np.arange(2 * n, n + maxL, dtype=np.int32)))]}
    del row
    for j in range(d - 1):
        nxt: dict = {}
        while groups:  # popped, so each group's scratch is freed once it is built
            L, pieces = groups.popitem()
            rows = np.concatenate(pieces).reshape(-1, L)
            del pieces
            H = L.bit_length() - 1
            if j == d - 2:
                tops[j][H] = CascadeStructure(j, j + 1, L, fill_buffers_batch_np(rows, counters), ranks[j])
                continue
            G, m = len(rows), (n if j == 0 else L)  # only the root member holds phantoms
            merged = np.empty((G, H + 1, L), dtype=np.int32)
            merged[:, 0] = rows
            merge_rows(merged, ranks[j + 1])
            if counters is not None:
                counters.merge_moves += H * G * m
            flat = array("i", [0]) * rows.size  # a level keeps only its leaf rows, sized exactly
            np.frombuffer(flat, dtype=np.int32)[:] = rows.reshape(-1)
            level = tops[j][H] = _Level(j, flat, L, m, ranks[j], tops[j + 1])
            for r in range(H + 1):
                chunks, span, t = _reachable(L, m, r), 1 << r, H - r
                if chunks:
                    pieces = nxt.setdefault(span, [])
                    level.first[t] = (sum(map(len, pieces)) >> r) - chunks.start + 1 - (1 << t)
                    level.per[t] = len(chunks)
                    pieces.append(merged[:, r, chunks.start << r : chunks.stop << r].flatten())
        groups = nxt
    return LayeredRangeTree(points, tops[0][maxL.bit_length() - 1], ids, axes)
