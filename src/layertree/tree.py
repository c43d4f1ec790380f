"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j
whose every node owns an associated structure over the remaining coordinates,
holding exactly the non-phantom points of its subtree.  The last two
coordinates live in cascades; a 1-dimensional tree is its rank order.

The structures over one dimension with the same padded size L form one merge
group, a _Level or a CascadeStructure, and a structure is a (group, member)
pair.  A node's associated structure is the pair its level records for the
node's slot.  Every group, and the _Slab, answers query(g, a, b, stats, emit)
and count(g, a, b, stats) for member g and the rank box [a, b); the root is
member 0 of a group of one.

A level is its leaf row, the one implicit tree shape of the package (see
cascade): L padded leaf ids sorted by rank, where the node at row r (depth
log2(L) - r) and position pos covers the leaves pos*2^r .. (pos+1)*2^r - 1
and splits at the rightmost leaf of its left half.  Its associated
structures sit in heap order: slot (L >> r) - 1 + pos, so slot 0 is the root,
the children of slot i are 2i+1 and 2i+2, and the leaves are slots L-1 ..
2L-2.  Everything below LayeredRangeTree.rank_box works in rank space: one
int32 rank table per dimension gives each id its position in that
dimension's sorted order, and a box becomes a rank interval [a_j, b_j) per
dimension.  Padding leaves are phantoms ranked after every real point, so
they never fall inside one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cascade import (CascadeStructure, _find_split, fill_buffers_batch_np, merge_rows,
                      pow2ceil, rank_table)
from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, TooManyPoints

INT32_MAX = 2**31 - 1


@dataclass
class QueryStats:
    """Operation counters accumulated over one or more queries.

    nodes_visited counts every tree slot whose key a query examines plus every
    canonical subtree root it hands off to; binary_searches counts array
    lower-bound searches inside structures, not the per-box rank mapping
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
    of G, H = log2 L), but only a level merge's real ones (H times the sum of
    its members' real counts).
    """

    merge_moves: int = 0


def canonical_subtrees(level: "_Level", g: int, a: int, b: int,
                       stats: Optional[QueryStats] = None) -> list[int]:
    """Heap slots of member g's disjoint subtrees whose leaves are exactly the ranks in [a, b).

    Member g's leaf row starts at g*L in level.ids.  The node at row r,
    position pos of that row is heap slot (L >> r) - 1 + pos, in 0 .. 2L-2.
    At most 2*log2(L) slots (one slot for a single-leaf tree); phantom leaves
    never qualify because their ranks are at least n >= b.
    """
    if stats is None:
        stats = QueryStats()
    ids, rank, L = level.ids, level.rank, level.L
    base = g * L
    depth, pos = _find_split(ids, rank, base, L, a, b, stats)
    r = L.bit_length() - 1 - depth
    if r == 0:
        return [L - 1 + pos] if a <= rank[ids[base + pos]] < b else []

    out: list[int] = []
    # side 0 follows a down the left child, side 1 b down the right; where a
    # path turns to its own side, the other child, at row rr-1, lies wholly
    # inside the range: split rank >= a (side 0), split rank < b (side 1).
    # The node at row rr, position p splits at leaf (2p+1)*hf - 1 of the row.
    last = base - 1
    for side, bound in ((0, a), (1, b)):
        p = (pos << 1) + side
        visits = r
        for rr in range(r - 1, 0, -1):
            hf = 1 << (rr - 1)
            if (rank[ids[last + (2 * p + 1) * hf]] < bound) == side:
                visits += 1
                out.append((L >> (rr - 1)) - 1 + (p << 1) + 1 - side)
                p = (p << 1) + side
            else:
                p = (p << 1) + 1 - side
        stats.nodes_visited += visits
        if a <= rank[ids[base + p]] < b:
            out.append(L - 1 + p)
    return out


class _Slab:
    """The d=1 structure (a group of one): ids[v] is the id of rank v, so [a, b) is ids[a:b]."""

    __slots__ = ("ids",)

    def __init__(self, ids):
        self.ids = ids

    def query(self, g, a, b, stats, emit):
        lo, hi = a[0], b[0]
        if hi > lo:
            emit(self.ids[lo:hi])
            stats.reported += hi - lo

    def count(self, g, a, b, stats) -> int:
        return max(0, b[0] - a[0])


class _Level:
    """A level merge group: the G level trees over dimension `dim` with the same L.

    Member g < G = len(ids) // L has the leaf row ids[g*L : (g+1)*L]: L ids
    sorted by `rank`, real ids first, then phantoms (ids >= n).  Its heap slot
    s is slot k = g*(2L-1) + s of the group, whose structure is member
    member[k] of subs[group[k]] (both -1 where the subtree holds no real id).
    subs, the next dimension's groups by log2 L, is shared by the dimension.
    """

    __slots__ = ("dim", "ids", "L", "rank", "subs", "group", "member")

    def __init__(self, dim: int, ids, L: int, rank, subs: list):
        self.dim = dim
        self.ids = ids
        self.L = L
        self.rank = rank
        self.subs = subs
        self.group = array("b", [-1]) * (len(ids) // L * (2 * L - 1))
        self.member = array("i", [-1]) * len(self.group)

    def query(self, g, a, b, stats, emit):
        subs, group, member = self.subs, self.group, self.member
        first = g * (2 * self.L - 1)
        for k in canonical_subtrees(self, g, a[self.dim], b[self.dim], stats):
            k += first
            subs[group[k]].query(member[k], a, b, stats, emit)

    def count(self, g, a, b, stats) -> int:
        subs, group, member = self.subs, self.group, self.member
        first = g * (2 * self.L - 1)
        total = 0
        for k in canonical_subtrees(self, g, a[self.dim], b[self.dim], stats):
            k += first
            total += subs[group[k]].count(member[k], a, b, stats)
        return total


class LayeredRangeTree:
    """Static d-dimensional orthogonal range search structure.

    Built once from a PointSet; afterwards immutable, so concurrent queries
    are safe as long as each caller uses its own QueryStats accumulator.
    """

    def __init__(self, pointset: PointSet, root, axes: list):
        self.pointset = pointset
        self.dims = pointset.dims
        self.n = len(pointset)
        self.root = root  # member 0 of a group of one
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

        The structures emit runs of ids; they are sorted as ints, and only
        then mapped to points.
        """
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        ids = array("i")
        self.root.query(0, a, b, stats, ids.extend)
        return list(map(self.pointset.by_id.__getitem__, sorted(ids)))

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
        member 0 of a group of one.
        """
        stack = [(0, (self.root, 0))]
        while stack:
            level, node = stack.pop()
            yield level, node
            s, g = node
            if isinstance(s, _Level):
                k, w = g * (2 * s.L - 1), 2 * s.L - 1
                stack.extend((level + 1, (s.subs[h], m))
                             for h, m in zip(s.group[k : k + w], s.member[k : k + w]) if h >= 0)


def _queue(groups: dict, owner, first: int, row, m: int, span: int, n: int) -> None:
    """Queue one structure per chunk of width `span` over the first m ids of `row`.

    The structure over chunk i belongs to slot first + i of `owner`, a
    _Level group, or to no owner (the root).  Each chunk is filed in `groups`
    under its padded size L, with its real count and its leaf row: the
    chunk's ids, then phantom ids n+t for padding leaves t.
    """
    full, part = divmod(m, span)
    if full:
        _file(groups, owner, first, span, [span] * full, row[: full * span], ())
    if part:
        L = pow2ceil(part)
        _file(groups, owner, first + full, L, [part], row[full * span : m], range(n + part, n + L))


def _file(groups: dict, owner, first: int, L: int, ms_new: list, ids, pad) -> None:
    """File k = len(ms_new) structures with padded size L for slots first .. first+k-1.

    Their member indexes in group L follow the ones already there; the
    owner, unless None, records (log2 L, member index) for each slot.
    """
    ms, flat = groups.setdefault(L, (array("i"), array("i")))
    k = len(ms_new)
    if owner is not None:
        owner.group[first : first + k] = array("b", [L.bit_length() - 1]) * k
        owner.member[first : first + k] = array("i", range(len(ms), len(ms) + k))
    ms.extend(ms_new)
    flat.frombytes(ids.tobytes())
    flat.extend(pad)


def build(points: PointSet, counters: Optional[BuildCounters] = None) -> LayeredRangeTree:
    """Build the layered range tree, one dimension at a time.

    Each dimension is sorted once (rank_table) into an int32 rank per id and
    its coordinates in rank order; the ranks are the only keys.  The
    structures over dimension j are built as groups by padded size L, listed
    in tops[j] by log2 L: each group runs one batched merge (merge_rows) of
    its leaf rows by the ranks of dimension j+1.  On a level (j < d-2) the
    group is a _Level; its merged chunks, real ids first, are the leaf rows
    of the structures in tops[j+1], and no bridges are made.  On the cascade
    (j = d-2) the merged rows and bridges are the buffers, one array("i") per
    CascadeStructure.  Raises TooManyPoints, before anything is allocated,
    when the ids and phantom ids would not fit in int32.
    """
    n = len(points)
    if n == 0:
        raise EmptyInput("cannot build a tree over zero points")
    maxL = pow2ceil(n)
    if n + maxL > INT32_MAX:  # ids, phantom ids n..n+maxL-1 and ranks are int32
        raise TooManyPoints(f"{n} points and {maxL} padding slots exceed the int32 range")
    d = points.dims
    pts = points.by_id
    coords = points.coord_matrix()
    orders, ranks, axes = zip(*(rank_table(coords, j, maxL) for j in range(d)))
    if d == 1:
        slab = _Slab(array("i", orders[0].astype(np.int32).tobytes()))
        return LayeredRangeTree(points, slab, axes)

    tops = [[None] * maxL.bit_length() for _ in range(d - 1)]
    groups: dict = {}
    _queue(groups, None, 0, orders[0].astype(np.int32), n, maxL, n)
    for j in range(d - 1):
        nxt: dict = {}
        while groups:  # popped, so each group's scratch is freed once it is built
            L, (ms, flat) = groups.popitem()
            rows = np.frombuffer(flat, dtype=np.int32).reshape(-1, L)
            H = L.bit_length() - 1
            if j == d - 2:
                buf = fill_buffers_batch_np(rows, ranks[j + 1], counters)
                tops[j][H] = CascadeStructure(j, j + 1, L, buf, ranks[j], ranks[j + 1], pts)
                continue
            # a level keeps only its leaf rows, sized exactly: no bridge rows
            merged = np.empty((len(ms), H + 1, L), dtype=np.int32)
            merged[:, 0] = rows
            merge_rows(merged, ranks[j + 1])
            if counters is not None:
                counters.merge_moves += H * sum(ms)
            level = tops[j][H] = _Level(j, array("i", flat), L, ranks[j], tops[j + 1])
            for g, m in enumerate(ms):
                for r in range(H + 1):
                    _queue(nxt, level, g * (2 * L - 1) + (L >> r) - 1, merged[g, r], m, 1 << r, n)
        groups = nxt
    return LayeredRangeTree(points, tops[0][maxL.bit_length() - 1], axes)
