"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j
whose every node owns an associated structure over the remaining coordinates,
holding exactly the non-phantom points of its subtree.  The last two
coordinates live in cascades; a 1-dimensional tree degenerates to a padded
sorted array.

A cascade is not an object of its own: the cascades with the same padded
size L form one merge group, a CascadeStructure, and a cascade is a (group,
member index) pair.  So a level over levels (d >= 4, j < d-3) holds a list of
_Level objects, one per heap slot, while a level over cascades (j = d-3)
holds two int arrays over its slots, the group (by log2 L) and the member
index, and passes the member's base to CascadeStructure.query and .count.
The d=2 tree's root is a group of one, at base 0.  build() makes one
CascadeStructure per group, at most log2(pow2ceil(n)) + 1 of them.

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
from typing import Iterator, Optional, Union

import numpy as np

from .cascade import (CascadeStructure, _find_split, _lower_bound, fill_buffers_batch_np,
                      merge_rows, pow2ceil, rank_table)
from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, TooManyPoints

INT32_MAX = 2**31 - 1


@dataclass
class QueryStats:
    """Operation counters accumulated over one or more queries.

    nodes_visited counts every tree slot whose key a query examines plus every
    canonical subtree root it hands off to; binary_searches counts array
    lower-bound searches inside structures, not the per-box rank mapping
    (rank_box: two bisections per dimension on the tree's sorted coordinates);
    bridge_follows counts O(1) position transfers along cascade bridges;
    reported counts emitted (or counted) points.
    """

    nodes_visited: int = 0
    binary_searches: int = 0
    bridge_follows: int = 0
    reported: int = 0


@dataclass
class BuildCounters:
    """Construction-cost accounting: elements appended by bottom-up merges."""

    merge_moves: int = 0


def canonical_subtrees(level: "_Level", a: int, b: int,
                       stats: Optional[QueryStats] = None) -> list[int]:
    """Heap slots of the disjoint subtrees whose leaves are exactly the ranks in [a, b).

    The node at row r, position pos of the level's leaf row is heap slot
    (L >> r) - 1 + pos.  At most 2*log2(L) slots (one slot for a single-leaf
    tree); phantom leaves never qualify because their ranks are at least n >= b.
    """
    if stats is None:
        stats = QueryStats()
    ids, rank, L = level.ids, level.rank, level.L
    depth, pos = _find_split(ids, rank, 0, L, a, b, stats)
    r = L.bit_length() - 1 - depth
    if r == 0:
        return [L - 1 + pos] if a <= rank[ids[pos]] < b else []

    out: list[int] = []
    # side 0 follows a down the left child, side 1 b down the right; where a
    # path turns to its own side, the other child, at row rr-1, lies wholly
    # inside the range: split rank >= a (side 0), split rank < b (side 1)
    for side, bound in ((0, a), (1, b)):
        p = (pos << 1) + side
        visits = r
        for rr in range(r - 1, 0, -1):
            hf = 1 << (rr - 1)
            if (rank[ids[(2 * p + 1) * hf - 1]] < bound) == side:
                visits += 1
                out.append((L >> (rr - 1)) - 1 + (p << 1) + 1 - side)
                p = (p << 1) + side
            else:
                p = (p << 1) + 1 - side
        stats.nodes_visited += visits
        if a <= rank[ids[p]] < b:
            out.append(L - 1 + p)
    return out


class _Slab:
    """Degenerate 1-dimensional structure: a padded sorted leaf row."""

    __slots__ = ("dim", "m", "L", "ids", "rank", "points")

    def __init__(self, dim, ids, m, rank, points):
        self.dim = dim
        self.m = m
        self.L = pow2ceil(m)
        self.ids = array("i", list(ids) + [len(points) + t for t in range(m, self.L)])
        self.rank = rank
        self.points = points

    def query_into(self, a, b, stats, emit):
        """Emit the ids of rank in [a, b) as one slice of the leaf row."""
        hi = b[self.dim]
        ids, rank = self.ids, self.rank
        lo = _lower_bound(ids, rank, 0, self.L, a[self.dim], stats)
        for v in range(lo, self.L):
            if rank[ids[v]] >= hi:
                break
        else:
            v = self.L
        if v > lo:
            emit(ids[lo:v])
            stats.reported += v - lo

    def count_in(self, a, b, stats) -> int:
        lo = _lower_bound(self.ids, self.rank, 0, self.L, a[self.dim], stats)
        hi = _lower_bound(self.ids, self.rank, 0, self.L, b[self.dim], stats)
        return max(0, hi - lo)


class _Level:
    """One tree level over dimension `dim`: its leaf row plus per-slot associated structures.

    `ids` is the leaf row (L = len(ids) padded leaves sorted by `rank`, the
    first m real).  A level over levels (j < d-3) keeps assoc[slot], the
    _Level of heap slot `slot`'s subtree, None where that subtree holds no
    real id.  A level over cascades (j = d-3) keeps no object per slot:
    cascades[h] is the merge group of the cascades with L = 2^h (shared by
    every such level), and the slot's cascade is member member[slot] of
    group group[slot]; both are -1 where the subtree holds no real id.  A
    query or count passes member[slot] * words, the member's base, to the
    group's CascadeStructure.query / .count.
    """

    __slots__ = ("dim", "ids", "m", "L", "rank", "assoc", "cascades", "group", "member")

    def __init__(self, dim: int, ids, m: int, rank, cascades: Optional[list] = None):
        self.dim = dim
        self.ids = ids
        self.m = m
        self.L = len(ids)
        self.rank = rank
        self.cascades = cascades
        slots = 2 * self.L - 1
        if cascades is None:
            self.assoc: Optional[list] = [None] * slots
            self.group = self.member = None
        else:
            self.assoc = None
            self.group = array("b", [-1]) * slots
            self.member = array("i", [-1]) * slots

    def query_into(self, a, b, stats, emit):
        slots = canonical_subtrees(self, a[self.dim], b[self.dim], stats)
        if self.assoc is not None:
            for slot in slots:
                self.assoc[slot].query_into(a, b, stats, emit)
            return
        cascades, group, member = self.cascades, self.group, self.member
        x, y = self.dim + 1, self.dim + 2
        xa, xb, ya, yb = a[x], b[x], a[y], b[y]
        for slot in slots:
            cs = cascades[group[slot]]
            cs.query(member[slot] * cs.words, xa, xb, ya, yb, stats, emit)

    def count_in(self, a, b, stats) -> int:
        slots = canonical_subtrees(self, a[self.dim], b[self.dim], stats)
        if self.assoc is not None:
            return sum(self.assoc[slot].count_in(a, b, stats) for slot in slots)
        cascades, group, member = self.cascades, self.group, self.member
        x, y = self.dim + 1, self.dim + 2
        xa, xb, ya, yb = a[x], b[x], a[y], b[y]
        total = 0
        for slot in slots:
            cs = cascades[group[slot]]
            total += cs.count(member[slot] * cs.words, xa, xb, ya, yb, stats)
        return total


_Structure = Union[_Slab, _Level, CascadeStructure]


class LayeredRangeTree:
    """Static d-dimensional orthogonal range search structure.

    Built once from a PointSet; afterwards immutable, so concurrent queries
    are safe as long as each caller uses its own QueryStats accumulator.
    """

    def __init__(self, pointset: PointSet, root: _Structure, axes: list):
        self.pointset = pointset
        self.dims = pointset.dims
        self.n = len(pointset)
        self.root = root
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
        self.root.query_into(a, b, stats, ids.extend)
        return list(map(self.pointset.by_id.__getitem__, sorted(ids)))

    def count(self, box: QueryBox, stats: Optional[QueryStats] = None) -> int:
        """|query(box)| computed from bridge positions, without enumeration."""
        a, b = self.rank_box(box)
        if stats is None:
            stats = QueryStats()
        k = self.root.count_in(a, b, stats)
        stats.reported += k
        return k

    # -- structure inspection -------------------------------------------------

    def structures(self) -> Iterator[tuple[int, object]]:
        """Yield (level index, structure) over every tree instance, root first.

        A structure is a _Slab, a _Level, or a cascade as its
        (CascadeStructure group, member index) pair.
        """
        root = self.root
        stack = [(0, (root, 0) if isinstance(root, CascadeStructure) else root)]
        while stack:
            level, node = stack.pop()
            yield level, node
            if not isinstance(node, _Level):
                continue
            if node.assoc is not None:
                stack.extend((level + 1, sub) for sub in node.assoc if sub is not None)
            else:
                stack.extend((level + 1, (node.cascades[h], g))
                             for h, g in zip(node.group, node.member) if h >= 0)


def _queue(groups: dict, owner, first: int, row, m: int, span: int, n: int) -> None:
    """Queue one structure per chunk of width `span` over the first m ids of `row`.

    The structure over chunk i belongs to heap slot first + i of `owner`.
    Each chunk is filed in `groups` under its padded size L, with its real
    count and its leaf row: the chunk's ids, then phantom ids n+t for
    padding leaves t.
    """
    full, part = divmod(m, span)
    if full:
        _file(groups, owner, first, span, [span] * full, row[: full * span], ())
    if part:
        L = pow2ceil(part)
        _file(groups, owner, first + full, L, [part], row[full * span : m], range(n + part, n + L))


def _file(groups: dict, owner, first: int, L: int, ms_new: list, ids, pad) -> None:
    """File k = len(ms_new) structures with padded size L for heap slots first .. first+k-1.

    Their member indexes in group L follow the ones already there.  A _Level
    over cascades records (log2 L, member index) for each slot at once; any
    other owner is a list, queued as (owner, slot) to receive its structure
    once it is built.
    """
    owners, ms, flat = groups.setdefault(L, ([], array("i"), array("i")))
    k = len(ms_new)
    if isinstance(owner, _Level):
        owner.group[first : first + k] = array("b", [L.bit_length() - 1]) * k
        owner.member[first : first + k] = array("i", range(len(ms), len(ms) + k))
    else:
        owners.extend((owner, s) for s in range(first, first + k))
    ms.extend(ms_new)
    flat.frombytes(ids.tobytes())
    flat.extend(pad)


def build(points: PointSet, counters: Optional[BuildCounters] = None) -> LayeredRangeTree:
    """Build the layered range tree, one dimension at a time.

    Each dimension is sorted once (rank_table) into an int32 rank per id and
    its coordinates in rank order; the ranks are the only keys.  The
    structures over dimension j are built together, grouped by padded size
    L: each group runs one batched merge (merge_rows) of its leaf rows
    by the ranks of dimension j+1.  On a level (j < d-2) the merged chunks,
    real ids first, are the leaf rows of the next dimension's structures, and
    no bridges are made; on the cascade (j = d-2) the merged rows and bridges
    are the buffers, one array("i") and one CascadeStructure per group, and
    the levels above hold (group, member index) per slot.  Raises TooManyPoints, before
    anything is allocated, when the ids and phantom ids would not fit in int32.
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
        return LayeredRangeTree(points, _Slab(0, orders[0], n, ranks[0], pts), axes)

    root: list = [None]
    groups: dict = {}
    _queue(groups, root, 0, orders[0].astype(np.int32), n, maxL, n)
    cascades: Optional[list] = None  # the cascade groups by log2 L, once j reaches d-3
    for j in range(d - 1):
        nxt: dict = {}
        if j == d - 3:
            cascades = [None] * maxL.bit_length()
        while groups:  # popped, so each group's scratch is freed once it is built
            L, (owners, ms, flat) = groups.popitem()
            rows = np.frombuffer(flat, dtype=np.int32).reshape(-1, L)
            H = L.bit_length() - 1
            if j == d - 2:
                buf = fill_buffers_batch_np(rows, ranks[j + 1], counters)
                cs = CascadeStructure(j, j + 1, L, n, buf, ms, ranks[j], ranks[j + 1], pts)
                if cascades is None:  # d = 2: the root, a group of one
                    root[0] = cs
                else:
                    cascades[H] = cs
                continue
            # a level keeps only its sorted rows: no bridge rows
            merged = np.empty((len(ms), H + 1, L), dtype=np.int32)
            merged[:, 0] = rows
            merge_rows(merged, ranks[j + 1])
            if counters is not None:
                counters.merge_moves += H * sum(ms)
            for g, m in enumerate(ms):
                level = _Level(j, flat[g * L : (g + 1) * L], m, ranks[j], cascades)
                owner = level if cascades is not None else level.assoc
                for r in range(H + 1):
                    _queue(nxt, owner, (L >> r) - 1, merged[g, r], m, 1 << r, n)
                holder, slot = owners[g]
                holder[slot] = level
        groups = nxt
    return LayeredRangeTree(points, root[0], axes)
