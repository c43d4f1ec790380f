"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j
whose every node owns an associated structure over the remaining coordinates,
holding exactly the non-phantom points of its subtree.  The last two
coordinates live in a CascadeStructure; a 1-dimensional tree degenerates to a
padded sorted array.

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
    first m real); assoc[slot] is the structure over the remaining dimensions
    of heap slot `slot`'s subtree, None where that subtree holds no real id.
    """

    __slots__ = ("dim", "ids", "m", "L", "rank", "assoc")

    def __init__(self, dim: int, ids, m: int, rank, assoc: list):
        self.dim = dim
        self.ids = ids
        self.m = m
        self.L = len(ids)
        self.rank = rank
        self.assoc = assoc

    def query_into(self, a, b, stats, emit):
        dim = self.dim
        for slot in canonical_subtrees(self, a[dim], b[dim], stats):
            self.assoc[slot].query_into(a, b, stats, emit)

    def count_in(self, a, b, stats) -> int:
        dim = self.dim
        return sum(
            self.assoc[slot].count_in(a, b, stats)
            for slot in canonical_subtrees(self, a[dim], b[dim], stats)
        )


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
        """Yield (level index, structure) over every tree instance, root first."""
        stack = [(0, self.root)]
        while stack:
            level, node = stack.pop()
            yield level, node
            if isinstance(node, _Level):
                for sub in node.assoc:
                    if sub is not None:
                        stack.append((level + 1, sub))


def _queue(groups: dict, owner: list, first: int, row, m: int, span: int, n: int) -> None:
    """Queue one structure per chunk of width `span` over the first m ids of `row`.

    The structure over chunk i becomes owner[first + i].  Each is filed in
    `groups` under its padded size L as (owner, slot), its real count, and
    its leaf row: the chunk's ids, then phantom ids n+t for padding leaves t.
    """
    full, part = divmod(m, span)
    if full:
        owners, ms, flat = groups.setdefault(span, ([], [], array("i")))
        owners.extend((owner, s) for s in range(first, first + full))
        ms.extend([span] * full)
        flat.frombytes(row[: full * span].tobytes())
    if part:
        L = pow2ceil(part)
        owners, ms, flat = groups.setdefault(L, ([], [], array("i")))
        owners.append((owner, first + full))
        ms.append(part)
        flat.frombytes(row[full * span : m].tobytes())
        flat.extend(range(n + part, n + L))


def build(points: PointSet, counters: Optional[BuildCounters] = None) -> LayeredRangeTree:
    """Build the layered range tree, one dimension at a time.

    Each dimension is sorted once (rank_table) into an int32 rank per id and
    its coordinates in rank order; the ranks are the only keys.  The
    structures over dimension j are built together, grouped by padded size
    L: each group runs one batched merge (merge_rows) of its leaf rows
    by the ranks of dimension j+1.  On a level (j < d-2) the merged chunks,
    real ids first, are the leaf rows of the next dimension's structures, and
    no bridges are made; on the cascade (j = d-2) the merged rows and bridges
    are the buffers, one array("i") per group.  Raises TooManyPoints, before
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
    for j in range(d - 1):
        nxt: dict = {}
        while groups:  # popped, so each group's scratch is freed once it is built
            L, (owners, ms, flat) = groups.popitem()
            rows = np.frombuffer(flat, dtype=np.int32).reshape(-1, L)
            H = L.bit_length() - 1
            if j == d - 2:
                made = [CascadeStructure(j, j + 1, m, L, H, n, ranks[j], ranks[j + 1], pts)
                        for m in ms]
                fill_buffers_batch_np(made, rows, ranks[j + 1], counters)
            else:
                # a level keeps only its sorted rows: no bridge rows
                merged = np.empty((len(ms), H + 1, L), dtype=np.int32)
                merged[:, 0] = rows
                merge_rows(merged, ranks[j + 1])
                if counters is not None:
                    counters.merge_moves += H * sum(ms)
                made = []
                for g, m in enumerate(ms):
                    assoc: list = [None] * (2 * L - 1)
                    for r in range(H + 1):
                        _queue(nxt, assoc, (L >> r) - 1, merged[g, r], m, 1 << r, n)
                    made.append(_Level(j, flat[g * L : (g + 1) * L], m, ranks[j], assoc))
            for (owner, slot), struct in zip(owners, made):
                owner[slot] = struct
        groups = nxt
    return LayeredRangeTree(points, root[0], axes)
