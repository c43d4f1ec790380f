"""The multi-level range tree.

Level j (for j = 0 .. d-3) is a full implicit binary tree over coordinate j
whose every node owns an associated structure over the remaining coordinates,
holding exactly the non-phantom points of its subtree.  The last two
coordinates live in a CascadeStructure; a 1-dimensional tree degenerates to a
padded sorted array.

Trees are flat arrays addressed with index arithmetic: slot 0 is the root,
children of slot i are 2i+1 and 2i+2, the parent of slot i>0 is (i-1)//2, and
the L padded leaves occupy slots L-1 .. 2L-2.  Padding leaves are phantoms
with +inf sentinel keys, so they sort to the far right and can never satisfy a
finite query.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .cascade import (CascadeStructure, _key_table, _lower_bound, fill_buffers_batch_np,
                      merge_rows, pow2ceil)
from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, high_key, low_key


@dataclass
class QueryStats:
    """Operation counters accumulated over one or more queries.

    nodes_visited counts every tree slot whose key a query examines plus every
    canonical subtree root it hands off to; binary_searches counts array
    lower-bound searches; bridge_follows counts O(1) position transfers along
    cascade bridges; reported counts emitted (or counted) points.
    """

    nodes_visited: int = 0
    binary_searches: int = 0
    bridge_follows: int = 0
    reported: int = 0


@dataclass
class BuildCounters:
    """Construction-cost accounting: elements appended by bottom-up merges."""

    merge_moves: int = 0


class ImplicitTree:
    """Full binary tree in one flat array, keyed by one dimension's composite order.

    `ids` is the padded leaf row (length L): real point ids in sorted order
    followed by phantom ids.  Internal keys are not stored; the key of an
    internal slot is the key of the rightmost leaf of its left subtree,
    located by index arithmetic.
    """

    __slots__ = ("dim", "ids", "m", "L", "H", "ktab")

    def __init__(self, dim: int, ids: Sequence[int], m: int, ktab: Sequence[tuple]):
        self.dim = dim
        self.ids = ids
        self.m = m
        self.L = len(ids)
        self.H = self.L.bit_length() - 1
        self.ktab = ktab

    @property
    def leaf_count(self) -> int:
        return self.L

    @property
    def real_count(self) -> int:
        return self.m

    @property
    def n_slots(self) -> int:
        return 2 * self.L - 1

    def is_leaf(self, slot: int) -> bool:
        return slot >= self.L - 1

    def leaf_span(self, slot: int) -> tuple[int, int]:
        """Half-open padded-leaf index range covered by `slot`'s subtree."""
        depth = (slot + 1).bit_length() - 1
        pos = slot - ((1 << depth) - 1)
        span = self.L >> depth
        return pos * span, (pos + 1) * span

    def key(self, slot: int) -> tuple:
        """Split key of an internal slot; the leaf's own key at a leaf slot."""
        lo, hi = self.leaf_span(slot)
        if hi - lo == 1:
            return self.ktab[self.ids[lo]]
        return self.ktab[self.ids[lo + ((hi - lo) >> 1) - 1]]

    def subtree_ids(self, slot: int) -> list[int]:
        """Real entry ids under `slot`, in leaf order."""
        lo, hi = self.leaf_span(slot)
        limit = self.m
        return [e for e in self.ids[lo:hi] if e < limit]


def build_implicit_tree(points: Sequence[Point], dim: int = 0) -> ImplicitTree:
    """Standalone ImplicitTree over `points` in dimension `dim` (self-owned tables)."""
    pts = list(points)
    if not pts:
        raise EmptyInput("cannot build a tree over zero points")
    m = len(pts)
    L = pow2ceil(m)
    ktab, order, _ = _key_table(pts, dim, L)
    ids = array("i", order + [m + t for t in range(m, L)])
    return ImplicitTree(dim, ids, m, ktab)


def find_split_node(tree: ImplicitTree, lo_key: tuple, hi_key: tuple,
                    stats: Optional[QueryStats] = None) -> int:
    """Deepest slot where the lo/hi search paths diverge, or the leaf reached.

    Descent rule: go left iff the query key is <= the slot key.
    """
    if stats is None:
        stats = QueryStats()
    slot = 0
    last = tree.L - 1
    stats.nodes_visited += 1
    while slot < last:
        k = tree.key(slot)
        if hi_key <= k:
            slot = 2 * slot + 1
        elif lo_key > k:
            slot = 2 * slot + 2
        else:
            break
        stats.nodes_visited += 1
    return slot


def canonical_subtrees(tree: ImplicitTree, lo_key: tuple, hi_key: tuple,
                       stats: Optional[QueryStats] = None) -> list[int]:
    """Disjoint subtree roots whose leaves are exactly the keys in [lo_key, hi_key].

    At most 2*log2(L) slots (one slot for a single-leaf tree); phantom leaves
    never qualify because their keys exceed every finite hi_key.
    """
    if stats is None:
        stats = QueryStats()
    out: list[int] = []
    split = find_split_node(tree, lo_key, hi_key, stats)
    first_leaf = tree.L - 1
    if split >= first_leaf:
        if lo_key <= tree.key(split) <= hi_key:
            out.append(split)
        return out

    # side 0 follows lo_key down the left child, side 1 hi_key down the right;
    # where a path turns to its own side, the other child lies wholly inside
    # the range: key >= lo_key (side 0), key < hi_key (side 1)
    for side, bound in ((0, lo_key), (1, hi_key)):
        v = 2 * split + 1 + side
        while v < first_leaf:
            stats.nodes_visited += 1
            if (tree.key(v) < bound) == side:
                out.append(2 * v + 2 - side)
                stats.nodes_visited += 1
                v = 2 * v + 1 + side
            else:
                v = 2 * v + 2 - side
        stats.nodes_visited += 1
        if lo_key <= tree.key(v) <= hi_key:
            out.append(v)
    return out


class _Slab:
    """Degenerate 1-dimensional structure: a padded sorted leaf row."""

    __slots__ = ("dim", "m", "L", "ids", "ktab", "points")

    def __init__(self, dim, ids, m, ktab, points):
        self.dim = dim
        self.m = m
        self.L = pow2ceil(m)
        self.ids = array("i", list(ids) + [len(points) + t for t in range(m, self.L)])
        self.ktab = ktab
        self.points = points

    def real_entry_count(self) -> int:
        nreal = len(self.points)
        return sum(1 for e in self.ids if e < nreal)

    def query_into(self, box, stats, emit):
        hi_k = high_key(box.hi[self.dim])
        ids, ktab, pts = self.ids, self.ktab, self.points
        lo = _lower_bound(ids, ktab, 0, self.L, low_key(box.lo[self.dim]), stats)
        for u in range(lo, self.L):
            e = ids[u]
            if ktab[e] > hi_k:
                break
            emit(pts[e])
            stats.reported += 1

    def count_in(self, box, stats) -> int:
        lo = _lower_bound(self.ids, self.ktab, 0, self.L, low_key(box.lo[self.dim]), stats)
        hi = _lower_bound(self.ids, self.ktab, 0, self.L, high_key(box.hi[self.dim]), stats)
        return max(0, hi - lo)


class _Level:
    """One tree level over dimension `tree.dim` with per-slot associated structures."""

    __slots__ = ("tree", "assoc")

    def __init__(self, tree: ImplicitTree, assoc: list):
        self.tree = tree
        self.assoc = assoc

    def query_into(self, box, stats, emit):
        dim = self.tree.dim
        lo_k = low_key(box.lo[dim])
        hi_k = high_key(box.hi[dim])
        for slot in canonical_subtrees(self.tree, lo_k, hi_k, stats):
            self.assoc[slot].query_into(box, stats, emit)

    def count_in(self, box, stats) -> int:
        dim = self.tree.dim
        lo_k = low_key(box.lo[dim])
        hi_k = high_key(box.hi[dim])
        return sum(
            self.assoc[slot].count_in(box, stats)
            for slot in canonical_subtrees(self.tree, lo_k, hi_k, stats)
        )


_Structure = Union[_Slab, _Level, CascadeStructure]


class LayeredRangeTree:
    """Static d-dimensional orthogonal range search structure.

    Built once from a PointSet; afterwards immutable, so concurrent queries
    are safe as long as each caller uses its own QueryStats accumulator.
    """

    def __init__(self, pointset: PointSet, root: _Structure, key_tables: list):
        self.pointset = pointset
        self.dims = pointset.dims
        self.n = len(pointset)
        self.root = root
        self._key_tables = key_tables

    # -- queries ------------------------------------------------------------

    def query(self, box: QueryBox, stats: Optional[QueryStats] = None) -> list[Point]:
        """All points inside the closed box, sorted by id."""
        if box.dims != self.dims:
            raise DimensionMismatch(f"box of dimension {box.dims} against a {self.dims}-d tree")
        if stats is None:
            stats = QueryStats()
        out: list[Point] = []
        self.root.query_into(box, stats, out.append)
        out.sort(key=lambda p: p.id)
        return out

    def count(self, box: QueryBox, stats: Optional[QueryStats] = None) -> int:
        """|query(box)| computed from bridge positions, without enumeration."""
        if box.dims != self.dims:
            raise DimensionMismatch(f"box of dimension {box.dims} against a {self.dims}-d tree")
        if stats is None:
            stats = QueryStats()
        k = self.root.count_in(box, stats)
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

    Each dimension is sorted once into a key table and an int64 rank per id.
    The structures over dimension j are built together, grouped by padded
    size L: each group runs one batched merge (merge_rows) of its leaf rows
    by the ranks of dimension j+1.  On a level (j < d-2) the merged chunks,
    real ids first, are the leaf rows of the next dimension's structures; on
    the cascade (j = d-2) the merged rows and bridges are the buffers.
    """
    n = len(points)
    if n == 0:
        raise EmptyInput("cannot build a tree over zero points")
    d = points.dims
    pts = points.by_id
    maxL = pow2ceil(n)
    tables = [_key_table(pts, j, maxL) for j in range(d)]
    ktabs = [keys for keys, _, _ in tables]
    if d == 1:
        return LayeredRangeTree(points, _Slab(0, tables[0][1], n, ktabs[0], pts), ktabs)

    root: list = [None]
    groups: dict = {}
    _queue(groups, root, 0, np.array(tables[0][1], dtype=np.int32), n, maxL, n)
    for j in range(d - 1):
        nxt: dict = {}
        while groups:  # popped, so each group's scratch is freed once it is built
            L, (owners, ms, flat) = groups.popitem()
            rows = np.frombuffer(flat, dtype=np.int32).reshape(-1, L)
            H = L.bit_length() - 1
            if j == d - 2:
                made = [CascadeStructure(j, j + 1, m, L, H, n, None, ktabs[j], ktabs[j + 1], pts)
                        for m in ms]
                fill_buffers_batch_np(made, rows, tables[j + 1][2], counters)
            else:
                rows = merge_rows(rows, tables[j + 1][2])
                if counters is not None:
                    counters.merge_moves += H * sum(ms)
                made = []
                for g, m in enumerate(ms):
                    assoc: list = [None] * (2 * L - 1)
                    for r in range(H + 1):
                        _queue(nxt, assoc, (L >> r) - 1, rows[r, g], m, 1 << r, n)
                    tree = ImplicitTree(j, flat[g * L : (g + 1) * L], m, ktabs[j])
                    made.append(_Level(tree, assoc))
            for (owner, slot), struct in zip(owners, made):
                owner[slot] = struct
        groups = nxt
    return LayeredRangeTree(points, root[0], ktabs)
