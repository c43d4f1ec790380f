"""Fractional cascading over the last two dimensions, and the one implicit tree.

Every tree in the package is implicit in a leaf row: L = 2^H ids sorted by
one dimension's rank, real ids first, then phantom padding.  The node at
(depth, pos) covers the chunk of width L >> depth starting at pos times that
width, and it splits at the rank of the rightmost leaf of its left half.
_find_split is the one descent over such a row; a level of the multi-level
tree (tree._Level) is a leaf row too and searches it the same way.

A CascadeStructure is that tree over coordinate x (the second-to-last
dimension) whose every node also carries its subtree's points sorted by
coordinate y (the last dimension), plus bridge indices linking each entry to
the first not-smaller entry in each child's array.  A 2D query then needs
exactly one binary search, at the split node; every other position follows
bridges in constant time per level.

Storage is a single flat int32 buffer per structure, addressed by index
arithmetic.  With L padded leaves and height H = log2(L):

    row r in 0..H        node arrays at depth H-r, offset r*L; the array of
                         the node at (depth, pos) is the chunk of width
                         2^r starting at pos*2^r, sorted by y.  Row 0 is the
                         leaf row, sorted by x: it is the x-tree.
    lb rows r in 1..H    left bridges, offset L*(H+r)
    rb rows r in 1..H    right bridges, offset L*(2H+r)

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
two boundary paths below the split node (CascadeStructure._walk).
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


def _find_split(ids, rank, L: int, a: int, b: int, stats) -> tuple[int, int]:
    """(depth, pos) where the descents for ranks [a, b) diverge, or the leaf reached.

    The tree is the leaf row ids[0:L], sorted by rank.  Descent rule: left iff
    b <= the node's split rank, right iff the split rank < a.
    """
    depth, pos, span = 0, 0, L
    stats.nodes_visited += 1
    while span > 1:
        half = span >> 1
        k = rank[ids[pos * span + half - 1]]
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


def merge_rows(leaf_rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Bottom-up stable merge of G leaf rows of one power-of-two length L by `rank`.

    `leaf_rows` is a (G, L) int32 array of ids; `rank` is a rank_table rank.
    Returns a (3H+1, G, L) int32 array laid out like a buffer: [r, g] for r
    in 0..H holds row g's chunks of width 2^r, each sorted by rank; the next
    H rows, then the last H, give every entry of rows 1..H its left / right
    bridge, the first position in that half of its chunk whose rank is not
    smaller.

    Per row, the merge cursor of every element is its count of smaller
    elements in the sibling half (one searchsorted over all chunks at once,
    kept per-chunk by rank offsets); those cursors are both the scatter
    positions and the bridge values.
    """
    G, L = leaf_rows.shape
    H = L.bit_length() - 1
    rank = np.frombuffer(rank, dtype=np.int32)
    merged = np.empty((3 * H + 1, G, L), dtype=np.int32)
    rows, lbs, rbs = merged[: H + 1], merged[H + 1 : 2 * H + 1], merged[2 * H + 1 :]
    rows[0] = leaf_rows
    ranks = rank[rows[0]]
    big = np.int64(len(rank))
    for r in range(1, H + 1):
        span = 1 << r
        half = span >> 1
        nch = (G * L) >> r
        pr = ranks.reshape(nch, 2, half)
        # int64 offsets: the int32 ranks widen before they are added
        offs = (np.arange(nch, dtype=np.int64) * big)[:, None]
        lflat = (pr[:, 0, :] + offs).ravel()
        rflat = (pr[:, 1, :] + offs).ravel()
        chunk_off = np.repeat(np.arange(nch, dtype=np.int64) * half, half)
        cr = np.searchsorted(rflat, lflat) - chunk_off
        cl = np.searchsorted(lflat, rflat) - chunk_off
        i_w = np.tile(np.arange(half, dtype=np.int64), nch)
        base = np.repeat(np.arange(nch, dtype=np.int64) * span, half)
        tl = base + i_w + cr
        tr = base + i_w + cl
        pid = rows[r - 1].reshape(nch, 2, half)
        out = rows[r].reshape(-1)
        lb = lbs[r - 1].reshape(-1)
        rb = rbs[r - 1].reshape(-1)
        out[tl] = pid[:, 0, :].ravel()
        out[tr] = pid[:, 1, :].ravel()
        lb[tl] = i_w
        rb[tl] = cr
        lb[tr] = cl
        rb[tr] = i_w
        ranks = rank[rows[r]]
    return merged


def fill_buffers_batch_np(instances, padded_rows: np.ndarray, rank_y: np.ndarray,
                          counters=None) -> None:
    """Merge many same-L structures at once and give each its packed buffer.

    `instances` are CascadeStructures with buf=None; `padded_rows` is the
    (G, L) int32 array of their leaf rows (ids padded with phantoms).
    """
    G, L = padded_rows.shape
    bufs = merge_rows(padded_rows, rank_y).transpose(1, 0, 2).reshape(G, -1)
    if counters is not None:
        counters.merge_moves += G * L * (L.bit_length() - 1)
    for g, inst in enumerate(instances):
        inst.buf = bufs[g]


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
    """The last-two-dimension structure: x-tree plus per-node y-arrays with bridges."""

    __slots__ = ("xdim", "ydim", "m", "L", "H", "nreal", "buf", "rank_x", "rank_y", "points")

    def __init__(self, xdim, ydim, m, L, H, nreal, buf, rank_x, rank_y, points):
        self.xdim = xdim
        self.ydim = ydim
        self.m = m          # real points in this structure
        self.L = L          # padded leaf count (power of two)
        self.H = H          # log2(L)
        self.nreal = nreal  # ids >= nreal are phantoms
        self.buf = buf
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
        inst = cls(xdim, ydim, m, L, L.bit_length() - 1, nreal, None, rank_x, rank_y, points)
        fill_buffers_batch_np([inst], row[None, :], rank_y, counters)
        return inst

    # -- structure access ----------------------------------------------------

    @property
    def n_slots(self) -> int:
        return 2 * self.L - 1

    def _locate(self, slot: int) -> tuple[int, int, int]:
        """(row r, pos, span) of a heap slot."""
        depth = (slot + 1).bit_length() - 1
        pos = slot - ((1 << depth) - 1)
        r = self.H - depth
        return r, pos, 1 << r

    def node(self, slot: int) -> CascadeNode:
        """Materialize one node's entries and bridges for inspection."""
        r, pos, span = self._locate(slot)
        buf, L, H = self.buf, self.L, self.H
        abase = r * L + pos * span
        eids = buf[abase : abase + span]
        pts = [self.points[e] if e < self.nreal else None for e in eids]
        ranks = [self.rank_y[e] for e in eids]
        if r == 0:
            return CascadeNode(pts, ranks, [], [], self.ydim)
        lbase = L * (H + r) + pos * span
        rbase = L * (2 * H + r) + pos * span
        return CascadeNode(pts, ranks, list(buf[lbase : lbase + span]),
                           list(buf[rbase : rbase + span]), self.ydim)

    def real_entry_count(self) -> int:
        """Real (non-phantom) entries stored across all node arrays."""
        end = self.L * (self.H + 1)
        nreal = self.nreal
        return sum(1 for e in self.buf[0:end] if e < nreal)

    def subtree_leaf_ids(self, slot: int) -> list[int]:
        """Real point ids in the subtree of `slot`, in x order."""
        r, pos, span = self._locate(slot)
        return [e for e in self.buf[pos * span : (pos + 1) * span] if e < self.nreal]

    # -- queries -------------------------------------------------------------

    def _walk(self, depth, pos, xa, xb, lo, hi, stats):
        """Yield (abase, span, lo, hi) for each canonical node and in-range boundary leaf.

        (depth, pos) is the split node; lo, and hi unless it is None, are
        positions in its array.  Each is carried down the xa path, then the
        xb path, by one bridge per level, and handed over with the array
        (offset abase, width span) of every node the x range covers whole.
        """
        buf, rx, L, H = self.buf, self.rank_x, self.L, self.H
        if depth == H:
            if xa <= rx[buf[pos]] < xb:
                yield pos, 1, lo, hi
            return
        npos = 1 if hi is None else 2
        r = H - depth
        span = 1 << r
        # side 0 walks the xa path through the left child, side 1 the xb
        # path through the right; own/other are the bridge rows into the
        # path's own side and into the other side
        for side, bound in ((0, xa), (1, xb)):
            own = (1 + side) * H * L
            other = (2 - side) * H * L
            b = own + r * L + pos * span
            c = buf[b + lo] if lo < span else span >> 1
            e = None if hi is None else (buf[b + hi] if hi < span else span >> 1)
            p = (pos << 1) + side
            # each node below the split on the path, and each canonical child,
            # costs one visit and one bridge per carried position
            steps = r
            for rr in range(r - 1, 0, -1):
                sp = 1 << rr
                hf = sp >> 1
                k = rx[buf[p * sp + hf - 1]]
                b = other + rr * L + p * sp
                # the path turns to its own side where the other child lies
                # wholly inside the x range: k >= xa (side 0), k < xb (side 1)
                if (k < bound) == side:
                    steps += 1
                    yield ((rr - 1) * L + ((p << 1) + 1 - side) * hf, hf,
                           buf[b + c] if c < sp else hf,
                           None if e is None else (buf[b + e] if e < sp else hf))
                    b = own + rr * L + p * sp
                    p = (p << 1) + side
                else:
                    p = (p << 1) + 1 - side
                c = buf[b + c] if c < sp else hf
                if e is not None:
                    e = buf[b + e] if e < sp else hf
            stats.nodes_visited += steps
            stats.bridge_follows += npos * steps
            if xa <= rx[buf[p]] < xb:
                yield p, 1, c, e

    def query(self, xa, xb, ya, yb, stats, emit: Callable[[Point], None], probe=None):
        """Report every point of x rank in [xa, xb) and y rank in [ya, yb) with ONE binary search.

        The single search happens at the split node for ya; positions at
        every canonical node and boundary leaf follow bridges.
        `probe(abase, span, pos)`, if given, observes each carried position
        (shadow checks in tests).
        """
        buf, ry, pts = self.buf, self.rank_y, self.points
        depth, pos = _find_split(buf, self.rank_x, self.L, xa, xb, stats)
        r = self.H - depth
        q = _lower_bound(buf, ry, r * self.L + (pos << r), 1 << r, ya, stats)
        for abase, span, u, _ in self._walk(depth, pos, xa, xb, q, None, stats):
            if probe is not None:
                probe(abase, span, u)
            for u in range(abase + u, abase + span):
                e = buf[u]
                if ry[e] >= yb:
                    break
                emit(pts[e])
                stats.reported += 1

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
        depth, pos = _find_split(buf, self.rank_x, self.L, xa, xb, stats)
        r = self.H - depth
        abase, span = r * self.L + (pos << r), 1 << r
        lo = _lower_bound(buf, ry, abase, span, ya, stats)
        hi = _lower_bound(buf, ry, abase, span, yb, stats)
        total = 0
        for _, _, a, b in self._walk(depth, pos, xa, xb, lo, hi, stats):
            if b > a:
                total += b - a
        return int(total)

