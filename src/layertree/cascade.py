"""Fractional cascading over the last two dimensions.

A CascadeStructure is a full binary tree over coordinate x (the second-to-last
dimension) whose every node carries its subtree's points sorted by coordinate
y (the last dimension), plus bridge indices linking each entry to the first
not-smaller entry in each child's array.  A 2D query then needs exactly one
binary search, at the split node; every other position follows bridges in
constant time per level.

Storage is a single flat int32 buffer per structure, addressed by index
arithmetic.  With L padded leaves and height H = log2(L):

    row r in 0..H        node arrays at depth H-r, offset r*L; the array of
                         the node at (depth, pos) is the chunk of width
                         2^r starting at pos*2^r, sorted by y.  Row 0 is the
                         leaf ids sorted by x (so it doubles as the x-tree's
                         leaf order).
    lb rows r in 1..H    left bridges, offset L*(H+r)
    rb rows r in 1..H    right bridges, offset L*(2H+r)

Entries are ids into the owning point list; ids >= nreal are phantom padding
with key (+inf, (+inf,), leaf_index), so every chunk is full, bridges are
total, and no finite query can ever match a phantom.

Every buffer comes out of one merge, merge_rows: the leaf rows of all
structures with the same L are merged together bottom-up, one vectorized
step per row, by each id's rank in the y order, and the merge cursors are the
bridges.  The multi-level tree runs the same merge to sort its levels'
subtrees by the next dimension.  Queries and counts share one walk down the
two boundary paths below the split node (CascadeStructure._walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import EmptyInput, Point, high_key, low_key, phantom_key


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _key_table(points: Sequence[Point], dim: int, L: int):
    """(keys, order, rank) of dimension `dim`; entry ids are positions in `points`.

    keys[e] is entry e's composite key, followed by the keys of L phantom
    slots (id len(points)+t for padding leaf t).  order lists the real ids in
    key order.  rank (int64) gives each id's position in that order; a
    phantom id is its own rank, so phantoms rank after every real entry.
    """
    n = len(points)
    keys = [(p.coords[dim], p.coords, p.id) for p in points]
    keys.extend(phantom_key(t) for t in range(L))
    order = sorted(range(n), key=keys.__getitem__)
    rank = np.arange(n + L, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    return keys, order, rank


def _lower_bound(ids, keys, base: int, size: int, key, stats) -> int:
    """First u in 0..size-1 with keys[ids[base+u]] >= key, else size; one binary search."""
    lo, hi = 0, size
    while lo < hi:
        mid = (lo + hi) >> 1
        if keys[ids[base + mid]] < key:
            lo = mid + 1
        else:
            hi = mid
    stats.binary_searches += 1
    return lo


def merge_rows(leaf_rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Bottom-up stable merge of G leaf rows of one power-of-two length L by `rank`.

    `leaf_rows` is a (G, L) int32 array of ids; `rank` is indexed by id.
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
    keys: list[tuple]
    left_bridge: list[int]
    right_bridge: list[int]

    @property
    def y_values(self) -> list[float]:
        return [k[0] for k in self.keys]


class CascadeStructure:
    """The last-two-dimension structure: x-tree plus per-node y-arrays with bridges."""

    __slots__ = ("xdim", "ydim", "m", "L", "H", "nreal", "buf", "ktab_x", "ktab_y", "points")

    def __init__(self, xdim, ydim, m, L, H, nreal, buf, ktab_x, ktab_y, points):
        self.xdim = xdim
        self.ydim = ydim
        self.m = m          # real points in this structure
        self.L = L          # padded leaf count (power of two)
        self.H = H          # log2(L)
        self.nreal = nreal  # ids >= nreal are phantoms
        self.buf = buf
        self.ktab_x = ktab_x
        self.ktab_y = ktab_y
        self.points = points

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids, xdim, ydim, ktab_x, ktab_y, rank_y, points, counters=None):
        """Build from ids sorted by the x composite order: a merge batch of one.

        ktab_* are key tables indexed by id and rank_y the int64 y ranks, all
        extended with phantom slots (id nreal+t -> padding leaf t).
        """
        m = len(ids)
        nreal = len(points)
        L = pow2ceil(m)
        row = np.arange(nreal, nreal + L, dtype=np.int32)
        row[:m] = ids
        inst = cls(xdim, ydim, m, L, L.bit_length() - 1, nreal, None, ktab_x, ktab_y, points)
        fill_buffers_batch_np([inst], row[None, :], rank_y, counters)
        return inst

    # -- structure access ----------------------------------------------------

    @property
    def n_slots(self) -> int:
        return 2 * self.L - 1

    @property
    def tree(self):
        """The x-dimension ImplicitTree view over this structure's leaves."""
        from .tree import ImplicitTree

        return ImplicitTree(self.xdim, self.buf[0 : self.L], self.m, self.ktab_x)

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
        keys = [self.ktab_y[e] for e in eids]
        if r == 0:
            return CascadeNode(pts, keys, [], [])
        lbase = L * (H + r) + pos * span
        rbase = L * (2 * H + r) + pos * span
        return CascadeNode(pts, keys, list(buf[lbase : lbase + span]),
                           list(buf[rbase : rbase + span]))

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

    def _find_split(self, xlo_k, xhi_k, stats) -> tuple[int, int]:
        """(depth, pos) where the xlo/xhi descents diverge, or the leaf reached."""
        buf, kx, L, H = self.buf, self.ktab_x, self.L, self.H
        depth, pos = 0, 0
        stats.nodes_visited += 1
        while depth < H:
            span = L >> depth
            k = kx[buf[pos * span + (span >> 1) - 1]]
            if xhi_k <= k:
                pos <<= 1
            elif xlo_k > k:
                pos = (pos << 1) + 1
            else:
                break
            depth += 1
            stats.nodes_visited += 1
        return depth, pos

    def _walk(self, depth, pos, xlo_k, xhi_k, lo, hi, stats):
        """Yield (abase, span, lo, hi) for each canonical node and in-range boundary leaf.

        (depth, pos) is the split node; lo, and hi unless it is None, are
        positions in its array.  Each is carried down the xlo path, then the
        xhi path, by one bridge per level, and handed over with the array
        (offset abase, width span) of every node the x range covers whole.
        """
        buf, kx, L, H = self.buf, self.ktab_x, self.L, self.H
        if depth == H:
            if xlo_k <= kx[buf[pos]] <= xhi_k:
                yield pos, 1, lo, hi
            return
        npos = 1 if hi is None else 2
        r = H - depth
        span = 1 << r
        # side 0 walks the xlo path through the left child, side 1 the xhi
        # path through the right; own/other are the bridge rows into the
        # path's own side and into the other side
        for side, bound in ((0, xlo_k), (1, xhi_k)):
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
                k = kx[buf[p * sp + hf - 1]]
                b = other + rr * L + p * sp
                # the path turns to its own side where the other child lies
                # wholly inside the x range: k >= xlo (side 0), k < xhi (side 1)
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
            if xlo_k <= kx[buf[p]] <= xhi_k:
                yield p, 1, c, e

    def query(self, xlo, xhi, ylo, yhi, stats, emit: Callable[[Point], None], probe=None):
        """Report every point in [xlo,xhi] x [ylo,yhi] with ONE binary search.

        The single search happens at the split node for (ylo, -inf);
        positions at every canonical node and boundary leaf follow bridges.
        `probe(abase, span, pos)`, if given, observes each carried position
        (shadow checks in tests).
        """
        buf, ky, pts = self.buf, self.ktab_y, self.points
        xlo_k, xhi_k = low_key(xlo), high_key(xhi)
        yhi_k = high_key(yhi)
        depth, pos = self._find_split(xlo_k, xhi_k, stats)
        r = self.H - depth
        q = _lower_bound(buf, ky, r * self.L + (pos << r), 1 << r, low_key(ylo), stats)
        for abase, span, u, _ in self._walk(depth, pos, xlo_k, xhi_k, q, None, stats):
            if probe is not None:
                probe(abase, span, u)
            for u in range(abase + u, abase + span):
                e = buf[u]
                if ky[e] > yhi_k:
                    break
                emit(pts[e])
                stats.reported += 1

    def query_into(self, box, stats, emit):
        """Level interface: query with this structure's two dimensions of `box`."""
        self.query(box.lo[self.xdim], box.hi[self.xdim],
                   box.lo[self.ydim], box.hi[self.ydim], stats, emit)

    def count_in(self, box, stats) -> int:
        """Level interface: count within this structure's two dimensions of `box`."""
        return self.count(box.lo[self.xdim], box.hi[self.xdim],
                          box.lo[self.ydim], box.hi[self.ydim], stats)

    def count(self, xlo, xhi, ylo, yhi, stats) -> int:
        """Count points in the box without enumerating them.

        Twin positions for (ylo, -inf) and the first entry past (yhi, +inf)
        are found by two binary searches at the split node and then carried
        down via bridges; each canonical node contributes their difference.
        """
        buf, ky = self.buf, self.ktab_y
        xlo_k, xhi_k = low_key(xlo), high_key(xhi)
        depth, pos = self._find_split(xlo_k, xhi_k, stats)
        r = self.H - depth
        abase, span = r * self.L + (pos << r), 1 << r
        lo = _lower_bound(buf, ky, abase, span, low_key(ylo), stats)
        hi = _lower_bound(buf, ky, abase, span, high_key(yhi), stats)
        total = 0
        for _, _, a, b in self._walk(depth, pos, xlo_k, xhi_k, lo, hi, stats):
            if b > a:
                total += b - a
        return int(total)


def build_cascade(points: Sequence[Point], xdim: Optional[int] = None,
                  ydim: Optional[int] = None, counters=None) -> CascadeStructure:
    """Build a standalone CascadeStructure from points sorted by the x dimension.

    By default the last two coordinate dimensions are used.  Internal entry
    ids are positions in the input list; the input Point objects are what
    queries emit.
    """
    pts = list(points)
    if not pts:
        raise EmptyInput("cannot build a cascade over zero points")
    dims = pts[0].dims
    if dims < 2:
        raise ValueError("cascade needs at least two dimensions")
    xdim = dims - 2 if xdim is None else xdim
    ydim = dims - 1 if ydim is None else ydim
    L = pow2ceil(len(pts))
    kx, order, _ = _key_table(pts, xdim, L)
    if order != list(range(len(pts))):
        raise ValueError("input points must be sorted by the x-dimension composite order")
    ky, _, ry = _key_table(pts, ydim, L)
    return CascadeStructure.build_from_ids(order, xdim, ydim, kx, ky, ry, pts, counters)
