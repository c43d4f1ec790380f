"""Fractional cascading over the last two dimensions, and the one implicit tree.

Every tree in the package is implicit in a leaf row: L = 2^H ids sorted by
one dimension's rank, real ids first, then phantom padding.  The node at
(depth, pos) covers the chunk of width L >> depth starting at pos times that
width, and it splits at the rank of the rightmost leaf of its left half.
_find_split is the one descent over such a row; a level of the multi-level
tree (tree._Level) is a leaf row too and searches it the same way.

A cascade is that tree over coordinate x (the second-to-last dimension)
whose every node also carries its subtree's points sorted by coordinate y
(the last dimension), plus a left bridge per entry: the first not-smaller
entry in the left child's array.  A 2D query then needs exactly one binary
search, at the split node; every other position follows bridges in constant
time per level.

Storage: the cascades with the same L form a merge group, and one
CascadeStructure object is the whole group, not one cascade.  It holds the
group's G buffers in one array("i") of G*(2H+1)*L words, laid out
(G, 2H+1, L), plus L, H and the two rank tables; a member's real point
count is the number of real ids in its leaf row.  A cascade is a (group,
member) pair: member g owns the words = (2H+1)*L contiguous words from
base = g*words, and queries and counts take g and the tree's rank box.
Every address below is base plus an offset in that buffer.  With L padded
leaves and height H = log2(L):

    row r in 0..H        node arrays at depth H-r, offset r*L; the array of
                         the node at (depth, pos) is the chunk of width
                         2^r starting at pos*2^r, sorted by y.  Row 0 is the
                         leaf row, sorted by x: it is the x-tree.
    lb rows r in 1..H    left bridges, offset L*(H+r)

Reading an array("i") gives a Python int, so the query loops never make a
numpy scalar; numpy writes the array only while merge_rows builds it.

The right bridge is not stored: for the entry at position t of a node's
array it is t - lb[t].  Ranks are distinct, so the t entries before it are
exactly the smaller ones, and each came from one child: lb[t] from the left,
the rest from the right.

Entries are ids into the owning list of n points; ids >= n are phantom
padding, so every chunk is full and bridges are total.  Every comparison is
between ranks: rank_table sorts each dimension once, and rank_x / rank_y give
each id its position in the x / y order.  A phantom id n+t is its own rank,
after every real point, so no real rank interval [a, b) can match it.

Every buffer comes out of one merge, merge_rows: the leaf rows of a group
are merged together bottom-up by each id's rank in the y order, one stable
argsort per row, and each entry's left bridge is the count of left-half
entries merged before it.  The multi-level tree runs the same merge to sort
its levels' subtrees by the next dimension.  Queries and counts share one
walk down the two boundary paths below the split node
(CascadeStructure._walk); a query emits the in-range run of each node it
reaches as one slice of ids.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Point


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def rank_table(coords: np.ndarray, dim: int, L: int):
    """(order, rank, axis) of column `dim` of a coordinate matrix whose rows are ids.

    order lists the ids sorted by column `dim`, then by the row in column
    order; lexsort is stable, so remaining ties keep id order, and the order
    is composite_key's.  rank (int32 array, indexed by id) gives each id's
    position in that order, followed by L phantom slots: id n+t is its own
    rank, after every real id.  axis holds column `dim` in rank order.
    """
    n = len(coords)
    order = np.lexsort((*coords.T[::-1], coords[:, dim]))
    rank = np.arange(n + L, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    return order, array("i", rank.tobytes()), array("d", coords[order, dim].tobytes())


def _lower_bound(ids, rank, base: int, size: int, r: int, stats) -> int:
    """First u in 0..size-1 with rank[ids[base+u]] >= r, else size; one binary search."""
    lo, hi = 0, size
    while lo < hi:
        mid = (lo + hi) >> 1
        if rank[ids[base + mid]] < r:
            lo = mid + 1
        else:
            hi = mid
    stats.binary_searches += 1
    return lo


def _find_split(ids, rank, base: int, L: int, a: int, b: int, stats) -> tuple[int, int]:
    """(depth, pos) where the descents for ranks [a, b) diverge, or the leaf reached.

    The tree is the leaf row ids[base:base+L], sorted by rank.  Descent rule:
    left iff b <= the node's split rank, right iff the split rank < a.
    """
    depth, pos, span = 0, 0, L
    stats.nodes_visited += 1
    while span > 1:
        half = span >> 1
        k = rank[ids[base + pos * span + half - 1]]
        if b <= k:
            pos <<= 1
        elif k < a:
            pos = (pos << 1) + 1
        else:
            break
        depth += 1
        span = half
        stats.nodes_visited += 1
    return depth, pos


def merge_rows(merged: np.ndarray, rank) -> None:
    """Bottom-up stable merge, in place, of G leaf rows of one power-of-two length L by `rank`.

    `merged` is a C-contiguous (G, R, L) int32 array whose [:, 0] holds the
    leaf rows (ids); `rank` is a rank_table rank.  For r in 1..H, [g, r] gets
    row g's chunks of width 2^r, each sorted by rank.  With R = 2H+1, [g]
    becomes a buffer: [g, H+r] gives every entry of [g, r] its left bridge,
    the number of entries of the left half of its chunk with smaller rank.
    With R = H+1 (the levels of the multi-level tree) no bridge is computed
    or written.

    Each chunk of row r-1 at width 2^r is two runs sorted by rank, so one
    stable argsort per row (timsort for int32: it finds the two runs and
    merges them in linear time) gives every chunk's merge permutation perm.
    The node row is row r-1 taken through perm.  Ranks are distinct, so the
    entries before position t are exactly the smaller ones, and the left
    bridge is the exclusive prefix count of perm < 2^(r-1).
    """
    G, R, L = merged.shape
    H = L.bit_length() - 1
    rank = np.frombuffer(rank, dtype=np.int32)
    for r in range(1, H + 1):
        span = 1 << r
        prev = merged[:, r - 1].reshape(G, L >> r, span)
        perm = np.argsort(rank[prev], axis=2, kind="stable")
        merged[:, r] = np.take_along_axis(prev, perm, axis=2).reshape(G, L)
        if R > H + 1:
            left = perm < (span >> 1)
            lb = np.cumsum(left, axis=2, dtype=np.int32)
            lb -= left
            merged[:, H + r] = lb.reshape(G, L)


def fill_buffers_batch_np(padded_rows: np.ndarray, rank_y, counters=None) -> array:
    """The array("i") of one cascade merge group: its G buffers, merged from their leaf rows.

    `padded_rows` is the (G, L) int32 array of the members' leaf rows (ids
    padded with phantoms).  merge_rows writes the G*(2H+1)*L words in place,
    through a numpy view of the array.
    """
    G, L = padded_rows.shape
    H = L.bit_length() - 1
    buf = array("i", [0]) * (G * (2 * H + 1) * L)
    merged = np.frombuffer(buf, dtype=np.int32).reshape(G, 2 * H + 1, L)
    merged[:, 0] = padded_rows
    merge_rows(merged, rank_y)
    if counters is not None:
        counters.merge_moves += G * L * H
    return buf


@dataclass
class CascadeNode:
    """Inspection view of one node's array and bridges (tests, debugging)."""

    points: list[Optional[Point]]
    ranks: list[int]
    left_bridge: list[int]
    right_bridge: list[int]
    ydim: int

    @property
    def y_values(self) -> list[float]:
        """The entries' y coordinates; inf for a phantom."""
        return [math.inf if p is None else p.coords[self.ydim] for p in self.points]


class CascadeStructure:
    """A cascade merge group: G structures over the last two dimensions with the same L.

    Each member is an x-tree plus per-node y-arrays with bridges.  All G
    share the group's array("i") buf; member g's `words` = (2H+1)*L words
    start at base g*words (see the module docstring for the layout); queries
    and counts take g.  The d=2 tree's root is a group of one, member 0.
    """

    __slots__ = ("xdim", "ydim", "L", "H", "words", "buf", "rank_x", "rank_y", "points")

    def __init__(self, xdim, ydim, L, buf, rank_x, rank_y, points):
        self.xdim = xdim
        self.ydim = ydim
        self.L = L                         # padded leaf count (power of two)
        self.H = L.bit_length() - 1        # log2(L)
        self.words = (2 * self.H + 1) * L  # one member's share of buf
        self.buf = buf                     # from fill_buffers_batch_np
        self.rank_x = rank_x
        self.rank_y = rank_y
        self.points = points

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids, xdim, ydim, rank_x, rank_y, points, counters=None):
        """A group of one over ids sorted by the x composite order.

        rank_x / rank_y are rank tables (rank_table) with at least L phantom
        slots (id n+t -> padding leaf t).  build() builds every group from
        its members' leaf rows and does not call this; it stays because the
        traced benchmark (perfbench/run.py) wraps it by name, and its result
        equals the d=2 root build() makes over the same ids.
        """
        m, n = len(ids), len(points)
        L = pow2ceil(m)
        row = np.arange(n, n + L, dtype=np.int32)
        row[:m] = ids
        buf = fill_buffers_batch_np(row[None, :], rank_y, counters)
        return cls(xdim, ydim, L, buf, rank_x, rank_y, points)

    # -- structure access ----------------------------------------------------

    def node(self, slot: int, g: int = 0) -> CascadeNode:
        """Materialize one node of member g for inspection (heap slot order)."""
        depth = (slot + 1).bit_length() - 1
        r = self.H - depth
        span = 1 << r
        buf, L = self.buf, self.L
        abase = g * self.words + r * L + (slot + 1 - (1 << depth)) * span
        eids = buf[abase : abase + span]
        pts = [self.points[e] if e < len(self.points) else None for e in eids]
        ranks = [self.rank_y[e] for e in eids]
        if r == 0:
            return CascadeNode(pts, ranks, [], [], self.ydim)
        lbase = abase + self.H * L
        lb = buf[lbase : lbase + span].tolist()
        return CascadeNode(pts, ranks, lb, [t - l for t, l in enumerate(lb)], self.ydim)

    # -- queries -------------------------------------------------------------

    def _walk(self, base, depth, pos, xa, xb, lo, hi, stats):
        """Yield (abase, span, lo, hi) for each canonical node and in-range boundary leaf.

        base is the member's, (depth, pos) its split node; lo, and hi unless
        it is None, are positions in its array.  Each is carried down the xa
        path, then the xb path, by one bridge per level, and handed over with
        the array (address abase in buf, width span) of every node the x
        range covers whole.
        """
        buf, rx, L, H = self.buf, self.rank_x, self.L, self.H
        r = H - depth
        if r == 0:
            if xa <= rx[buf[base + pos]] < xb:
                yield base + pos, 1, lo, hi
            return
        npos = 1 if hi is None else 2
        lbase = base + H * L
        for side, bound in ((0, xa), (1, xb)):
            # side 0 walks the xa path, side 1 the xb path; at every node the
            # path enters the right child iff its split rank is below the
            # bound, so at the split node (xa <= split rank < xb) side 0
            # goes left and side 1 right
            p, c, e, f, steps = pos, lo, hi, None, r
            for rr in range(r, 0, -1):
                sp = 1 << rr
                hf = sp >> 1
                go = rx[buf[base + p * sp + hf - 1]] < bound
                b = lbase + rr * L + p * sp
                # c sits at lb[c] in the left child and at c - lb[c] in the
                # right one: s is the sibling's position, the rest the path's
                s = buf[b + c] if c < sp else hf
                if not go:
                    s = c - s
                c -= s
                if e is not None:
                    f = buf[b + e] if e < sp else hf
                    if not go:
                        f = e - f
                    e -= f
                p = (p << 1) + go
                # below the split node, a path that keeps to its own side
                # leaves the sibling wholly inside the x range; each such
                # canonical child costs one visit and one bridge per position
                if go == side and rr < r:
                    steps += 1
                    yield base + (rr - 1) * L + (p ^ 1) * hf, hf, s, f
            stats.nodes_visited += steps
            stats.bridge_follows += npos * steps
            if xa <= rx[buf[base + p]] < xb:
                yield base + p, 1, c, e

    def query(self, g, a, b, stats, emit: Callable[[array], None]):
        """Report member g's points inside the rank box [a, b) in dimensions xdim, ydim.

        A query makes ONE binary search, at the split node for ya; positions
        at every canonical node and boundary leaf follow bridges.  Each
        node's run of entries of y rank below yb is emitted as one slice of
        buf, an array("i") of point ids.
        """
        x, y = self.xdim, self.ydim
        xa, xb = a[x], b[x]
        ya, yb = a[y], b[y]
        base, buf, ry = g * self.words, self.buf, self.rank_y
        depth, pos = _find_split(buf, self.rank_x, base, self.L, xa, xb, stats)
        r = self.H - depth
        q = _lower_bound(buf, ry, base + r * self.L + (pos << r), 1 << r, ya, stats)
        for abase, span, u, _ in self._walk(base, depth, pos, xa, xb, q, None, stats):
            u += abase
            end = abase + span
            for v in range(u, end):
                if ry[buf[v]] >= yb:
                    break
            else:
                v = end
            if v > u:
                emit(buf[u:v])
                stats.reported += v - u

    def count(self, g, a, b, stats) -> int:
        """Count member g's points inside the rank box [a, b), bounded as in query.

        Nothing is enumerated.  Twin positions, the first entries of y rank
        >= ya and >= yb, are found by two binary searches at the split node
        and then carried down via bridges; each canonical node contributes
        their difference.
        """
        x, y = self.xdim, self.ydim
        xa, xb = a[x], b[x]
        ya, yb = a[y], b[y]
        base, buf, ry = g * self.words, self.buf, self.rank_y
        depth, pos = _find_split(buf, self.rank_x, base, self.L, xa, xb, stats)
        r = self.H - depth
        abase, span = base + r * self.L + (pos << r), 1 << r
        lo = _lower_bound(buf, ry, abase, span, ya, stats)
        hi = _lower_bound(buf, ry, abase, span, yb, stats)
        total = 0
        for _, _, u, v in self._walk(base, depth, pos, xa, xb, lo, hi, stats):
            if v > u:
                total += v - u
        return total
