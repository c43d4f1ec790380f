"""Fractional cascading over the last two dimensions, and the one implicit tree.

Every structure stores a point as its label, its rank in the last dimension
(y), so a stored entry is its own y key.  rank_tables makes the labels, the
id map from label to point id, and a label-indexed rank table for every
other dimension, from one shared row order, (c_0 .. c_{d-1}, id), with
default (unstable) numpy sorts that tie only equal keys.  Labels n+t are
phantom padding, each its own rank in every dimension, after every real
point, so no real rank interval [a, b) can match one.  Nothing here knows a
point or a coordinate.

Every tree in the package is implicit in a leaf row: L = 2^H labels sorted
by one dimension's rank, real labels first, then phantoms.  The node at
(depth, pos) covers the chunk of width L >> depth starting at pos times that
width, and it splits at the rank of the rightmost leaf of its left half.
_find_split is the one descent over such a row to the split node of a rank
interval, and _walk the one walk below it down the two boundary paths,
yielding the nodes the interval covers whole.  A level of the multi-level
tree (tree._Level) is a leaf row too and runs both the same way.

A cascade is that tree over coordinate x (the second-to-last dimension)
whose every node also carries its subtree's labels in ascending (y) order,
plus a left bridge per entry: the first not-smaller entry in the left
child's array.  A 2D query then needs exactly one binary search, a bisect of
the split node's array; every other position follows bridges in constant
time per level.

Storage: the cascades with the same L form a merge group, and one
CascadeStructure object is the whole group, not one cascade.  It holds the
group's G buffers in one array("i") of G*(2H+1)*L words, laid out
(G, 2H+1, L), plus L, H and the x rank table; a member's real point count
is the number of real labels in its leaf row.  A cascade is a (group,
member) pair: member g owns the words = (2H+1)*L contiguous words from
base = g*words, and queries and counts take g and the tree's rank box.
Every address below is base plus an offset in that buffer.  With L padded
leaves and height H = log2(L):

    row r in 0..H        node arrays at depth H-r, offset r*L; the array of
                         the node at (depth, pos) is the chunk of width
                         2^r starting at pos*2^r, ascending.  Row 0 is the
                         leaf row, sorted by x: it is the x-tree.
    lb rows r in 1..H    left bridges, offset L*(H+r)

Reading an array("i") gives a Python int, so the query loops never make a
numpy scalar; numpy writes the array only while merge_rows builds it.

The right bridge is not stored: for the entry at position t of a node's
array it is t - lb[t].  Labels are distinct, so the t entries before it are
exactly the smaller ones, and each came from one child: lb[t] from the left,
the rest from the right; every chunk is full, so bridges are total.

Every buffer comes out of one merge, merge_rows: the leaf rows of a group
are merged together bottom-up by the labels themselves, one stable argsort
per row, and each entry's left bridge follows in closed form from where the
merge took it.  The multi-level tree runs the same merge by a rank table to
sort its levels' subtrees by the next dimension.  Queries and counts run
_walk with y positions, carried by bridges (a level runs it without); a
query emits the in-range run of each node it reaches as one slice of labels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Each entry's dense rank: equal keys share one, and ranks follow key order.

    One default (unstable) argsort and a cumsum of the steps between sorted
    neighbours; the ranks are int64, below len(keys).  Floats compare with
    ==, so -0.0 and 0.0 share a rank.
    """
    order = np.argsort(keys)
    s = keys[order]
    step = np.empty(len(keys), dtype=np.int64)
    step[0] = 0
    np.not_equal(s[1:], s[:-1], out=step[1:])
    np.cumsum(step, out=step)
    dense = np.empty_like(step)
    dense[order] = step
    return dense


def rank_tables(coords: np.ndarray, L: int) -> tuple[array, np.ndarray, list[array], list[array]]:
    """(ids, row, ranks, axes): the labels of a coordinate matrix whose rows are ids.

    Dimension j's order is composite_key's: by column j, then by the row in
    column order, then by id.  A label is a position in the last order, and
    ids (an array("i") of n) is that order: ids[label] is the id.  row
    (int32) is dimension 0's order in labels, the root's leaf row.  For
    j < d-1, ranks[j] (an array("i") indexed by label) gives each position
    in order j, then L phantom slots: label n+t is its own rank.  axes[j]
    (an array("d")) holds column j in order j.

    Every dimension shares one row order, (c_0 .. c_{d-1}, id).  Each column
    gets a dense rank, and folding them in, key = dense(key*n + dense_j),
    keeps a dense rank of the whole row below n, so key*n + id sorts the
    rows.  That row order is dimension 0's; dimension j sorts
    dense_j*n + row rank.  Each sort either ties only equal keys or has
    distinct keys, so none has to be stable.
    """
    n, d = coords.shape
    dense = [_dense_rank(coords[:, j]) for j in range(d)]
    key = dense[0]
    for j in range(1, d):
        key = _dense_rank(key * n + dense[j])
    seq = np.arange(n, dtype=np.int64)
    row = np.argsort(key * n + seq)
    row_rank = np.empty_like(row)
    row_rank[row] = seq
    last = row if d == 1 else np.argsort(dense[-1] * n + row_rank)
    ids = array("i", [0]) * n
    np.frombuffer(ids, dtype=np.int32)[:] = last
    label = np.empty(n, dtype=np.int32)
    label[last] = seq
    ranks, axes = [], []
    for j in range(d):
        order = row if j == 0 else last if j == d - 1 else np.argsort(dense[j] * n + row_rank)
        axis = array("d", [0.0]) * n
        np.frombuffer(axis)[:] = coords[:, j][order]
        axes.append(axis)
        if j < d - 1:
            rank = array("i", [0]) * (n + L)
            r = np.frombuffer(rank, dtype=np.int32)
            r[label[order]] = seq
            r[n:] = np.arange(n, n + L, dtype=np.int32)
            ranks.append(rank)
    return ids, label[row], ranks, axes


def _find_split(ids, rank, base: int, L: int, a: int, b: int, stats) -> tuple[int, int]:
    """(depth, pos) where the descents for ranks [a, b) diverge, or the leaf reached.

    The tree is the leaf row ids[base:base+L] of labels, sorted by rank.  Descent rule:
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


def _walk(ids, rank, base: int, L: int, depth: int, pos: int, a: int, b: int, lo, hi, stats):
    """Yield (row, pos, lo, hi) for each canonical node and in-range boundary leaf.

    The tree is _find_split's, and (depth, pos) its split node for [a, b).
    The walk goes down the a path, then the b path, and yields each node
    the range covers whole as its row and its position in that row.  When lo
    is not None, the tree is a cascade member's (ids is its buf, base its
    base): lo, and hi unless it is None, are positions in the split node's
    array, carried down each path by one left bridge per level and yielded
    as positions in each node's array.  A level passes None for both and
    gets None back.
    """
    r = L.bit_length() - 1 - depth
    if r == 0:
        if a <= rank[ids[base + pos]] < b:
            yield 0, pos, lo, hi
        return
    npos = 0 if lo is None else 1 if hi is None else 2
    s = f = None  # the sibling's positions, set at every step when carried
    lbase = base + (r + depth) * L  # the lb rows: lb row rr starts at lbase + rr*L
    for side, bound in ((0, a), (1, b)):
        # side 0 walks the a path, side 1 the b path; at every node the path
        # enters the right child iff its split rank is below the bound, so at
        # the split node (a <= split rank < b) side 0 goes left and side 1 right
        p, c, e, steps = pos, lo, hi, r
        for rr in range(r, 0, -1):
            sp = 1 << rr
            hf = sp >> 1
            at = p * sp  # the node's chunk, in the leaf row and in lb row rr
            go = rank[ids[base + at + hf - 1]] < bound
            if c is not None:
                # c sits at lb[c] in the left child and at c - lb[c] in the
                # right one: s is the sibling's position, the rest the path's
                lb = lbase + rr * L + at
                s = ids[lb + c] if c < sp else hf
                if not go:
                    s = c - s
                c -= s
                if e is not None:
                    f = ids[lb + e] if e < sp else hf
                    if not go:
                        f = e - f
                    e -= f
            p = (p << 1) + go
            # below the split node, a path that keeps to its own side leaves
            # the sibling wholly inside the range; each such canonical child
            # costs one visit and one bridge per position
            if go == side and rr < r:
                steps += 1
                yield rr - 1, p ^ 1, s, f
        stats.nodes_visited += steps
        stats.bridge_follows += npos * steps
        if a <= rank[ids[base + p]] < b:
            yield 0, p, c, e


def merge_rows(merged: np.ndarray, rank=None) -> None:
    """Bottom-up stable merge, in place, of G leaf rows of one power-of-two length L by `rank`.

    `merged` is a C-contiguous (G, R, L) int32 array whose [:, 0] holds the
    leaf rows (labels); `rank` is a rank_tables rank, or None (a cascade's)
    for the labels themselves.  For r in 1..H, [g, r] gets row g's chunks
    of width 2^r, each sorted by rank.  With R = 2H+1,
    [g] becomes a buffer: [g, H+r] gives every entry of [g, r] its left
    bridge, the number of entries of the left half of its chunk with
    smaller rank.  With R = H+1 (the levels of the multi-level tree) no
    bridge is computed or written.

    Each chunk of row r-1 at width 2^r is two runs sorted by rank, so one
    stable argsort per row (timsort for int32: it finds the two runs and
    merges them in linear time) gives every chunk's merge permutation perm.
    The row and its ranks (unless they are the row) are carried as flat
    contiguous copies; the next row is one 1-D gather at perm plus each chunk's start.

    Ranks are distinct, so the entries before merged position t are exactly
    the smaller ones, and the left bridge has a closed form.  An entry from
    left-run index i = perm has the i left entries before it; one from
    right-run index j = perm - 2^(r-1) has t - j.  Both are
    min(perm, t + 2^(r-1) - perm): a left entry has t >= i, and a right
    one has t - j <= 2^(r-1) <= perm.  So no prefix count is needed.
    """
    G, R, L = merged.shape
    H = L.bit_length() - 1
    pos = np.arange(G * L, dtype=np.int32).reshape(G, L)  # t and the chunk start are its bits
    cur = np.ascontiguousarray(merged[:, 0]).reshape(-1)
    keys = cur if rank is None else np.frombuffer(rank, dtype=np.int32)[cur]
    for r in range(1, H + 1):
        span, half = 1 << r, 1 << (r - 1)
        perm = np.argsort(keys.reshape(-1, span), axis=1, kind="stable").reshape(G, L)
        if R > H + 1:
            p = perm.astype(np.int32)
            lb = merged[:, H + r]
            np.bitwise_and(pos, span - 1, out=lb)
            lb += half
            lb -= p
            np.minimum(lb, p, out=lb)
            del p
        perm += pos & -span  # each entry's source position in the flat row
        cur = cur[perm.reshape(-1)]
        keys = cur if rank is None else keys[perm.reshape(-1)]
        del perm  # before the next argsort makes its own: 8 bytes an entry
        merged[:, r] = cur.reshape(G, L)


def fill_buffers_batch_np(padded_rows: np.ndarray, counters=None) -> array:
    """The array("i") of one cascade merge group: its G buffers, merged from their leaf rows.

    `padded_rows` is the (G, L) int32 array of the members' leaf rows (labels
    padded with phantoms).  merge_rows merges them by the labels themselves
    and writes the G*(2H+1)*L words in place, through a numpy view of the array.
    """
    G, L = padded_rows.shape
    H = L.bit_length() - 1
    buf = array("i", [0]) * (G * (2 * H + 1) * L)
    merged = np.frombuffer(buf, dtype=np.int32).reshape(G, 2 * H + 1, L)
    merged[:, 0] = padded_rows
    merge_rows(merged)
    if counters is not None:
        counters.merge_moves += G * L * H
    return buf


@dataclass
class CascadeNode:
    """Inspection view of one node: its labels (y ranks; phantoms >= n) in order, and bridges."""

    ranks: list[int]
    left_bridge: list[int]
    right_bridge: list[int]


class CascadeStructure:
    """A cascade merge group: G structures over the last two dimensions with the same L.

    Each member is an x-tree plus per-node label arrays with bridges.  All G
    share the group's array("i") buf; member g's `words` = (2H+1)*L words
    start at base g*words (see the module docstring for the layout); queries
    and counts take g.  The d=2 tree's root is a group of one, member 0.
    """

    __slots__ = ("xdim", "ydim", "L", "H", "words", "buf", "rank_x")

    def __init__(self, xdim, ydim, L, buf, rank_x):
        self.xdim = xdim
        self.ydim = ydim
        self.L = L                         # padded leaf count (power of two)
        self.H = L.bit_length() - 1        # log2(L)
        self.words = (2 * self.H + 1) * L  # one member's share of buf
        self.buf = buf                     # from fill_buffers_batch_np
        self.rank_x = rank_x

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids, xdim, ydim, rank_x, n, counters=None):
        """A group of one over the labels ids, out of n points, sorted by the x composite order.

        rank_x is a rank table (rank_tables) with at least L phantom slots
        (label n+t -> padding leaf t).  build() builds every group from its
        members' leaf rows and does not call this; it stays because the
        traced benchmark (perfbench/run.py) wraps it by name, and its result
        equals the d=2 root build() makes over the same labels.
        """
        m = len(ids)
        L = pow2ceil(m)
        row = np.arange(n, n + L, dtype=np.int32)
        row[:m] = ids
        buf = fill_buffers_batch_np(row[None, :], counters)
        return cls(xdim, ydim, L, buf, rank_x)

    # -- structure access ----------------------------------------------------

    def node(self, slot: int, g: int = 0) -> CascadeNode:
        """One node of member g for inspection (heap slot order): labels and bridges."""
        depth = (slot + 1).bit_length() - 1
        r = self.H - depth
        span = 1 << r
        buf, L = self.buf, self.L
        abase = g * self.words + r * L + (slot + 1 - (1 << depth)) * span
        ranks = buf[abase : abase + span].tolist()
        if r == 0:
            return CascadeNode(ranks, [], [])
        lbase = abase + self.H * L
        lb = buf[lbase : lbase + span].tolist()
        return CascadeNode(ranks, lb, [t - l for t, l in enumerate(lb)])

    # -- queries -------------------------------------------------------------

    def query(self, g, a, b, stats, emit: Callable[[array], None]):
        """Emit member g's labels inside the rank box [a, b) in dimensions xdim, ydim.

        A query makes ONE binary search, a bisect of the split node's array
        for ya; positions at every canonical node and boundary leaf follow
        bridges.  Each node's run of labels below yb is emitted as one slice
        of buf, an array("i").
        """
        x, y = self.xdim, self.ydim
        xa, xb = a[x], b[x]
        ya, yb = a[y], b[y]
        base, buf, rx, L = g * self.words, self.buf, self.rank_x, self.L
        depth, pos = _find_split(buf, rx, base, L, xa, xb, stats)
        r = self.H - depth
        abase = base + r * L + (pos << r)
        q = bisect_left(buf, ya, abase, abase + (1 << r)) - abase
        stats.binary_searches += 1
        for row, p, u, _ in _walk(buf, rx, base, L, depth, pos, xa, xb, q, None, stats):
            abase = base + row * L + (p << row)
            u += abase
            end = abase + (1 << row)
            for v in range(u, end):
                if buf[v] >= yb:
                    break
            else:
                v = end
            if v > u:
                emit(buf[u:v])
                stats.reported += v - u

    def count(self, g, a, b, stats) -> int:
        """Count member g's points inside the rank box [a, b), bounded as in query.

        Nothing is enumerated.  Twin positions, the first labels >= ya and
        >= yb, are found by two bisects of the split node's array and then
        carried down via bridges; each canonical node contributes their
        difference.
        """
        x, y = self.xdim, self.ydim
        xa, xb = a[x], b[x]
        ya, yb = a[y], b[y]
        base, buf, rx, L = g * self.words, self.buf, self.rank_x, self.L
        depth, pos = _find_split(buf, rx, base, L, xa, xb, stats)
        r = self.H - depth
        abase = base + r * L + (pos << r)
        end = abase + (1 << r)
        lo = bisect_left(buf, ya, abase, end) - abase
        hi = bisect_left(buf, yb, abase, end) - abase
        stats.binary_searches += 2
        total = 0
        for _, _, u, v in _walk(buf, rx, base, L, depth, pos, xa, xb, lo, hi, stats):
            if v > u:
                total += v - u
        return total
