"""Fractional cascading over the last two dimensions, and the one implicit tree.

Every tree in the package is implicit in a leaf row: L = 2^H ids sorted by
one dimension's rank, real ids first, then phantom padding.  The node at
(depth, pos) covers the chunk of width L >> depth starting at pos times that
width, and it splits at the rank of the rightmost leaf of its left half.
_find_split is the one descent over such a row; a level of the multi-level
tree (tree._Level) is a leaf row too and searches it the same way.

A CascadeStructure is that tree over coordinate x (the second-to-last
dimension) whose every node also carries its subtree's points sorted by
coordinate y (the last dimension), plus a left bridge per entry: the first
not-smaller entry in the left child's array.  A 2D query then needs exactly
one binary search, at the split node; every other position follows bridges
in constant time per level.

Storage: the structures over one dimension with the same L form a merge
group of G structures, and the group keeps its buffers in one array("i") of
G*(2H+1)*L words, laid out (G, 2H+1, L).  Structure g of the group owns the
(2H+1)*L contiguous words from base = g*(2H+1)*L; every address below is
base plus an offset in that buffer.  With L padded leaves and height
H = log2(L):

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

Entries are ids into the owning point list; ids >= nreal are phantom padding,
so every chunk is full and bridges are total.  Every comparison is between
ranks: rank_table sorts each dimension once, and rank_x / rank_y give each id
its position in the x / y order.  A phantom id nreal+t is its own rank, after
every real point, so no query interval of real ranks [a, b) can match it.

Every buffer comes out of one merge, merge_rows: the leaf rows of all
structures with the same L are merged together bottom-up, one vectorized
step per row, by each id's rank in the y order, and the merge cursors are the
bridges.  The multi-level tree runs the same merge to sort its levels'
subtrees by the next dimension.  Queries and counts share one walk down the
two boundary paths below the split node (CascadeStructure._walk); a query
emits the in-range run of each node it reaches as one slice of ids.
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
    the first position in the left half of its chunk whose rank is not
    smaller.  With R = H+1 (the levels of the multi-level tree) no bridge is
    computed or written.

    Per row, the merge cursor of every element is its count of smaller
    elements in the sibling half (one searchsorted over all chunks at once,
    kept per-chunk by rank offsets); those cursors are both the scatter
    positions and the bridge values.  The scatter addresses the flat array,
    so `merged` may be a view of a group's array("i").
    """
    G, R, L = merged.shape
    H = L.bit_length() - 1
    rank = np.frombuffer(rank, dtype=np.int32)
    flat = merged.reshape(-1)
    lbs = flat[H * L :] if R > H + 1 else None  # lb row r sits H rows after node row r
    ranks = rank[merged[:, 0]]
    big = np.int64(len(rank))
    starts = np.arange(G, dtype=np.int64) * (R * L)
    for r in range(1, H + 1):
        span = 1 << r
        half = span >> 1
        nc = L >> r
        nch = G * nc
        pr = ranks.reshape(nch, 2, half)
        # int64 offsets: the int32 ranks widen before they are added
        offs = (np.arange(nch, dtype=np.int64) * big)[:, None]
        lflat = (pr[:, 0, :] + offs).ravel()
        rflat = (pr[:, 1, :] + offs).ravel()
        chunk_off = np.repeat(np.arange(nch, dtype=np.int64) * half, half)
        cr = np.searchsorted(rflat, lflat) - chunk_off
        cl = np.searchsorted(lflat, rflat) - chunk_off
        i_w = np.tile(np.arange(half, dtype=np.int64), nch)
        # flat address of each chunk's first entry in row r; the chunk starts
        # stay a temporary: held in a name, they add G*L/2 int64s to the peak
        base = np.repeat((starts[:, None] + r * L + np.arange(0, L, span, dtype=np.int64)).ravel(),
                         half)
        tl = base + i_w + cr
        tr = base + i_w + cl
        pid = merged[:, r - 1].reshape(G, nc, 2, half)
        flat[tl] = pid[:, :, 0, :].ravel()
        flat[tr] = pid[:, :, 1, :].ravel()
        if lbs is not None:
            lbs[tl] = i_w
            lbs[tr] = cl
        ranks = rank[merged[:, r]]


def fill_buffers_batch_np(instances, padded_rows: np.ndarray, rank_y: np.ndarray,
                          counters=None) -> None:
    """Merge many same-L structures at once into one group array and hand out its buffers.

    `instances` are CascadeStructures; `padded_rows` is the (G, L) int32
    array of their leaf rows (ids padded with phantoms).  merge_rows writes
    the group's G*(2H+1)*L words in place, through a numpy view of one
    array("i"); instance g gets that array as buf, with base g*(2H+1)*L.
    """
    G, L = padded_rows.shape
    H = L.bit_length() - 1
    words = (2 * H + 1) * L
    buf = array("i", [0]) * (G * words)
    merged = np.frombuffer(buf, dtype=np.int32).reshape(G, 2 * H + 1, L)
    merged[:, 0] = padded_rows
    merge_rows(merged, rank_y)
    if counters is not None:
        counters.merge_moves += G * L * H
    for g, inst in enumerate(instances):
        inst.buf = buf
        inst.base = g * words


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
    """The last-two-dimension structure: x-tree plus per-node y-arrays with bridges.

    buf is the array("i") of its merge group, shared by the group's
    structures; this one's (2H+1)*L words start at base (see the module
    docstring for the layout).
    """

    __slots__ = ("xdim", "ydim", "m", "L", "H", "nreal", "buf", "base", "rank_x", "rank_y",
                 "points")

    def __init__(self, xdim, ydim, m, L, H, nreal, rank_x, rank_y, points):
        self.xdim = xdim
        self.ydim = ydim
        self.m = m          # real points in this structure
        self.L = L          # padded leaf count (power of two)
        self.H = H          # log2(L)
        self.nreal = nreal  # ids >= nreal are phantoms
        self.buf = None     # set with base by fill_buffers_batch_np
        self.base = 0
        self.rank_x = rank_x
        self.rank_y = rank_y
        self.points = points

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids, xdim, ydim, rank_x, rank_y, points, counters=None):
        """Build from ids sorted by the x composite order: a merge batch of one.

        rank_x / rank_y are rank tables (rank_table) with at least L phantom
        slots (id nreal+t -> padding leaf t).  build() builds every structure
        in batches and does not call this; it stays because the traced
        benchmark (perfbench/run.py) wraps it by name, and its result equals
        the structure build() makes over the same ids.
        """
        m = len(ids)
        nreal = len(points)
        L = pow2ceil(m)
        row = np.arange(nreal, nreal + L, dtype=np.int32)
        row[:m] = ids
        inst = cls(xdim, ydim, m, L, L.bit_length() - 1, nreal, rank_x, rank_y, points)
        fill_buffers_batch_np([inst], row[None, :], rank_y, counters)
        return inst

    # -- structure access ----------------------------------------------------

    def node(self, slot: int) -> CascadeNode:
        """Materialize one node's entries and bridges for inspection (heap slot order)."""
        depth = (slot + 1).bit_length() - 1
        r = self.H - depth
        span = 1 << r
        buf, L = self.buf, self.L
        abase = self.base + r * L + (slot + 1 - (1 << depth)) * span
        eids = buf[abase : abase + span]
        pts = [self.points[e] if e < self.nreal else None for e in eids]
        ranks = [self.rank_y[e] for e in eids]
        if r == 0:
            return CascadeNode(pts, ranks, [], [], self.ydim)
        lbase = abase + self.H * L
        lb = buf[lbase : lbase + span].tolist()
        return CascadeNode(pts, ranks, lb, [t - l for t, l in enumerate(lb)], self.ydim)

    # -- queries -------------------------------------------------------------

    def _walk(self, depth, pos, xa, xb, lo, hi, stats):
        """Yield (abase, span, lo, hi) for each canonical node and in-range boundary leaf.

        (depth, pos) is the split node; lo, and hi unless it is None, are
        positions in its array.  Each is carried down the xa path, then the
        xb path, by one bridge per level, and handed over with the array
        (address abase in buf, width span) of every node the x range covers
        whole.
        """
        buf, rx, L, H, base = self.buf, self.rank_x, self.L, self.H, self.base
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

    def query(self, xa, xb, ya, yb, stats, emit: Callable[[array], None], probe=None):
        """Report every point of x rank in [xa, xb) and y rank in [ya, yb) with ONE binary search.

        The single search happens at the split node for ya; positions at
        every canonical node and boundary leaf follow bridges.  Each node's
        run of entries of y rank below yb is emitted as one slice of buf,
        an array("i") of point ids.  `probe(abase, span, pos)`, if given,
        observes each carried position (shadow checks in tests).
        """
        buf, ry = self.buf, self.rank_y
        depth, pos = _find_split(buf, self.rank_x, self.base, self.L, xa, xb, stats)
        r = self.H - depth
        q = _lower_bound(buf, ry, self.base + r * self.L + (pos << r), 1 << r, ya, stats)
        for abase, span, u, _ in self._walk(depth, pos, xa, xb, q, None, stats):
            if probe is not None:
                probe(abase, span, u)
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

    def query_into(self, a, b, stats, emit):
        """Level interface: query this structure's two dimensions of the rank box [a, b)."""
        self.query(a[self.xdim], b[self.xdim], a[self.ydim], b[self.ydim], stats, emit)

    def count_in(self, a, b, stats) -> int:
        """Level interface: count in this structure's two dimensions of the rank box [a, b)."""
        return self.count(a[self.xdim], b[self.xdim], a[self.ydim], b[self.ydim], stats)

    def count(self, xa, xb, ya, yb, stats) -> int:
        """Count points of x rank in [xa, xb) and y rank in [ya, yb) without enumerating them.

        Twin positions, the first entries of y rank >= ya and >= yb, are found
        by two binary searches at the split node and then carried down via
        bridges; each canonical node contributes their difference.
        """
        buf, ry = self.buf, self.rank_y
        depth, pos = _find_split(buf, self.rank_x, self.base, self.L, xa, xb, stats)
        r = self.H - depth
        abase, span = self.base + r * self.L + (pos << r), 1 << r
        lo = _lower_bound(buf, ry, abase, span, ya, stats)
        hi = _lower_bound(buf, ry, abase, span, yb, stats)
        total = 0
        for _, _, a, b in self._walk(depth, pos, xa, xb, lo, hi, stats):
            if b > a:
                total += b - a
        return total
