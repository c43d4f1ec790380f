"""Fractional cascading over the last two dimensions, and the one implicit tree.

Every structure stores a point as its label, its rank in the last dimension
(y), so a stored entry is its own y key.  rank_tables makes the labels, the
id map from label to point id, and a label-indexed rank table for every
other dimension, from one shared row order, (c_0 .. c_{d-1}, id), with
default (unstable) numpy sorts that tie only equal keys.  A phantom is leaf
t >= n, its own label and its own rank in every dimension, so labels, ranks
and leaf positions run over 0..L-1, L = pow2ceil(n), and a phantom sorts after
every real point, where no real rank interval [a, b) can match it.  Nothing
here knows a point or a coordinate.  Since every one of them is below L, a
tree stores all its labels, ranks, ids and leaf rows at one index width,
index_code(L): "H" (two bytes) when L <= 2^16, else "i" (four).

Every tree in the package is implicit in a leaf row: L = 2^H labels sorted
by one dimension's rank, real labels first, then phantoms.  A node is named
by its row and its position in that row: node (r, pos) covers leaves
pos*2^r .. (pos+1)*2^r - 1, and it splits at the rank of the rightmost leaf
of its left half.
_walk is the one walk over such a row: it descends (_find_split) to the
split node of a rank interval, then down the two boundary paths, yielding
the nodes the interval covers whole.  A level of the multi-level tree
(tree._Level) is a leaf row too and runs the same walk.

A cascade is that tree over coordinate x (the second-to-last dimension)
whose every node also carries its subtree's labels in ascending (y) order,
plus a left bridge per entry: the first not-smaller entry in the left
child's array.  A 2D query then needs exactly one binary search, a bisect of
the split node's array; every other position follows bridges in constant
time per level.

Storage: the cascades with the same L form a merge group, and one
CascadeStructure object is the whole group, not one cascade.  It holds the
group's labels in one array buf of G*(H+1)*L words at the tree's index
width (typecode "H" or "i", from the tree's padded size, not the group's),
laid out (G, H+1, L), and its left bridges in one array per bridge row,
plus L, H and the x rank table; a member's real point count is the number
of real labels in its leaf row.  A cascade is a (group, member) pair:
member g owns the words = (H+1)*L contiguous words of buf from base =
g*words, and the L entries from g*L of every bridge row.  Queries and
counts take g and the tree's rank box, of which they read the last two
dimensions.  With L padded leaves and height H = log2(L):

    buf row r in 0..H      node arrays, at base + r*L; the array of node
                           (r, pos) is the chunk of width 2^r starting at
                           pos*2^r, ascending.  Row 0 is the leaf row,
                           sorted by x: it is the x-tree.
    bridges[r], r in 1..H  left bridges, one per entry of row r, at g*L
                           plus the entry's position in the row.  A row-r
                           bridge is at most 2^(r-1), so bridges[r] has the
                           narrowest typecode that holds that: "B" (one
                           byte) for r <= 8, "H" (two) for r <= 16, "i"
                           (four) above.  bridges[0] is empty: a leaf has
                           no bridge.

Reading any of the arrays gives a Python int, so the query loops never make
a numpy scalar; numpy writes them only while merge_rows builds them.

The right bridge is not stored: for the entry at position t of a node's
array it is t - lb[t].  Labels are distinct, so the t entries before it are
exactly the smaller ones, and each came from one child: lb[t] from the left,
the rest from the right; every chunk is full, so bridges are total.

Every buffer and bridge row comes out of one merge, merge_rows: the leaf
rows of a group are merged together bottom-up by the labels themselves, one
stable argsort per row, and each entry's left bridge follows in closed form
from where the merge took it.  The multi-level tree runs the same merge by
a rank table to sort its levels' subtrees by the next dimension, and gets
no bridges.  A query or a count is one _walk with y bounds: the walk makes
the split node's bisects, one for a query and two for a count, and carries
the positions they find by bridges (a level walks without).  A query emits
the in-range run of each node it reaches as one slice of labels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable

import numpy as np


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def index_code(L: int) -> str:
    """The typecode of a tree's labels, ranks, ids and leaf rows, all below L = pow2ceil(n).

    "H" (two bytes, unsigned) when L <= 2^16, so that every one fits, else "i".
    """
    return "H" if L <= 1 << 16 else "i"


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


def rank_tables(coords: np.ndarray) -> tuple[array, np.ndarray, list[array], list[array]]:
    """(ids, row, ranks, axes): the labels of a coordinate matrix whose rows are ids.

    Dimension j's order is by column j, then by the coordinate tuple, then
    by id.  A label is a position in the last order, and ids (an array of
    n) is that order: ids[label] is the id.  A phantom is leaf t >= n,
    label t and rank t, t < L = pow2ceil(n).  row (int32, L long) is the
    root's leaf row: dimension 0's order in labels, then the phantoms.  For
    j < d-1, ranks[j] (an array of L, indexed by label) gives each label
    its position in order j.  ids and ranks have typecode index_code(L).
    axes[j] (an array("d")) holds column j in order j.

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
    code = index_code(pow2ceil(n))
    ids = array(code, [0]) * n
    np.frombuffer(ids, dtype=code)[:] = last
    label = np.arange(pow2ceil(n), dtype=np.int32)  # by id; entry t >= n is phantom t's
    label[last] = seq
    ranks, axes = [], []
    for j in range(d):
        order = row if j == 0 else last if j == d - 1 else np.argsort(dense[j] * n + row_rank)
        axis = array("d", [0.0]) * n
        np.frombuffer(axis)[:] = coords[:, j][order]
        axes.append(axis)
        if j < d - 1:
            rank = array(code, [0]) * len(label)
            r = np.frombuffer(rank, dtype=code)
            r[label[order]] = seq
            r[n:] = label[n:]
            ranks.append(rank)
    return ids, np.concatenate((label[row], label[n:])), ranks, axes


def _find_split(ids, rank, base: int, L: int, a: int, b: int, stats) -> tuple[int, int]:
    """(row, pos) of the node where the descents for ranks [a, b) diverge, or the leaf reached.

    The tree is the leaf row ids[base:base+L] of labels, sorted by rank.  Descent rule:
    left iff b <= the node's split rank, right iff the split rank < a.
    """
    r, pos = L.bit_length() - 1, 0
    stats.nodes_visited += 1
    while r:
        k = rank[ids[base + ((2 * pos + 1) << (r - 1)) - 1]]
        if b <= k:
            pos <<= 1
        elif k < a:
            pos = (pos << 1) + 1
        else:
            break
        r -= 1
        stats.nodes_visited += 1
    return r, pos


def _walk(ids, rank, base: int, L: int, a: int, b: int, ya, yb, stats, bridges=None, off=0):
    """Yield (row, pos, lo, hi) for each canonical node and in-range boundary leaf of [a, b).

    The tree is _find_split's leaf row.  The walk descends (_find_split) to
    the split node of [a, b), goes down the a path, then the b path, and
    yields each node the range covers whole as its row and its position in
    that row.  When ya is not
    None, the tree is a cascade member's (ids is its buf, base its base,
    bridges its group's bridge rows and off its g*L): the walk bisects the
    split node's array for ya, and for yb unless it is None, and carries the
    positions found, lo and hi, down each path by one left bridge per level,
    yielding them as positions in each node's array.  These are a cascade's
    only binary searches.  A level passes None for ya and yb, and no
    bridges, and gets None back.
    """
    r, pos = _find_split(ids, rank, base, L, a, b, stats)
    lo = hi = None
    if ya is not None:
        at = base + r * L + (pos << r)  # the split node's array
        lo = bisect_left(ids, ya, at, at + (1 << r)) - at
        if yb is not None:
            hi = bisect_left(ids, yb, at, at + (1 << r)) - at
    npos = 0 if lo is None else 1 if hi is None else 2  # positions carried, one bisect each
    stats.binary_searches += npos
    if r == 0:
        if a <= rank[ids[base + pos]] < b:
            yield 0, pos, lo, hi
        return
    s = f = None  # the sibling's positions, set at every step when carried
    for side, bound in ((0, a), (1, b)):
        # side 0 walks the a path, side 1 the b path; at every node the path
        # enters the right child iff its split rank is below the bound, so at
        # the split node (a <= split rank < b) side 0 goes left and side 1 right
        p, c, e, steps = pos, lo, hi, r
        for rr in range(r, 0, -1):
            sp = 1 << rr
            hf = sp >> 1
            at = p * sp  # the node's chunk, in the leaf row and in bridge row rr
            go = rank[ids[base + at + hf - 1]] < bound
            if c is not None:
                # c sits at lb[c] in the left child and at c - lb[c] in the
                # right one: s is the sibling's position, the rest the path's
                lb, o = bridges[rr], off + at
                s = lb[o + c] if c < sp else hf
                if not go:
                    s = c - s
                c -= s
                if e is not None:
                    f = lb[o + e] if e < sp else hf
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


def merge_rows(merged: np.ndarray, rank=None) -> list[array] | None:
    """Bottom-up stable merge, in place, of G leaf rows of one power-of-two length L by `rank`.

    `merged` is a C-contiguous (G, H+1, L) int32 or uint16 array whose
    [:, 0] holds the leaf rows (labels); for r in 1..H, [g, r] gets row g's
    chunks of width 2^r, each sorted by rank.  `rank` is a rank_tables rank
    (of either typecode), for the levels of the multi-level tree: no bridge
    is computed, and None is returned.
    Or it is None, for a cascade: the labels are their own keys, and the
    result is the bridges, H+1 arrays.  bridges[r], r in 1..H, holds G*L
    entries: at g*L + t, the left bridge of [g, r, t], the number of
    entries of the left half of its chunk with a smaller label, at most
    2^(r-1).  Its typecode is the narrowest that holds that: "B" for r <= 8,
    "H" for r <= 16, "i" above.  bridges[0] is empty.

    Each chunk of row r-1 at width 2^r is two runs sorted by rank, so one
    stable argsort per row (timsort for int32: it finds the two runs and
    merges them in linear time) gives every chunk's merge permutation perm.
    The row and its ranks (unless they are the row) are carried as flat
    contiguous int32 copies, whatever merged's width; the next row is one
    1-D gather at perm plus each chunk's start, and only its write into
    merged narrows it.  The keys stay int32 on purpose: numpy's stable
    argsort of 16-bit integers is a radix sort, which pays its passes for
    every chunk and does not use the two runs; at spans 2 to 16 over rows
    of L = 2^15 it ran 5 to 9 times slower than int32 timsort.

    Ranks are distinct, so the entries before merged position t are exactly
    the smaller ones, and the left bridge has a closed form.  An entry from
    left-run index i = perm has the i left entries before it; one from
    right-run index j = perm - 2^(r-1) has t - j.  Both are
    min(perm, t + 2^(r-1) - perm): a left entry has t >= i, and a right
    one has t - j <= 2^(r-1) <= perm.  So no prefix count is needed.  Each
    row's closed form is worked in int32 and copied into its narrow array
    at once, so one int32 bridge row is live at a time.
    """
    G, _, L = merged.shape
    H = L.bit_length() - 1
    pos = np.arange(G * L, dtype=np.int32).reshape(G, L)  # t and the chunk start are its bits
    cur = np.ascontiguousarray(merged[:, 0], dtype=np.int32).reshape(-1)
    keys = cur if rank is None else np.frombuffer(rank, dtype=rank.typecode)[cur].astype(
        np.int32, copy=False)
    bridges = [array("B")] if rank is None else None
    for r in range(1, H + 1):
        span, half = 1 << r, 1 << (r - 1)
        perm = np.argsort(keys.reshape(-1, span), axis=1, kind="stable").reshape(G, L)
        if bridges is not None:
            code = "B" if r <= 8 else "H" if r <= 16 else "i"
            p = perm.astype(np.int32)
            lb = pos & (span - 1)
            lb += half
            lb -= p
            np.minimum(lb, p, out=lb)
            del p  # before the narrow row is made
            narrow = array(code, [0]) * (G * L)
            np.frombuffer(narrow, dtype=code)[:] = lb.reshape(-1)  # in 0..2^(r-1): nothing wraps
            del lb  # before the gather below
            bridges.append(narrow)
        perm += pos & -span  # each entry's source position in the flat row
        cur = cur[perm.reshape(-1)]
        keys = cur if rank is None else keys[perm.reshape(-1)]
        del perm  # before the next argsort makes its own: 8 bytes an entry
        merged[:, r] = cur.reshape(G, L)
    return bridges


def fill_buffers_batch_np(handed: list, counters, code: str) -> tuple[array, list[array]]:
    """(buf, bridges) of one cascade merge group: its G members, merged from their leaf rows.

    `handed` is a list of one (G, L) integer array, the members' leaf rows
    (labels padded with phantoms); it is popped, so the rows are freed once
    copied into buf.  merge_rows merges them by the labels themselves, writes
    the G*(H+1)*L labels of buf, an array of typecode `code` (the tree's
    index width, "H" or "i"), in place through a numpy view, and returns the
    H narrow bridge rows (after an empty row 0).
    """
    G, L = handed[0].shape
    H = L.bit_length() - 1
    buf = array(code, [0]) * (G * (H + 1) * L)
    merged = np.frombuffer(buf, dtype=code).reshape(G, H + 1, L)
    merged[:, 0] = handed.pop()
    bridges = merge_rows(merged)
    if counters is not None:
        counters.merge_moves += G * L * H
    return buf, bridges


class CascadeStructure:
    """A cascade merge group: G structures over the last two dimensions with the same L.

    Each member is an x-tree plus per-node label arrays with bridges.  All G
    share the group's buf of labels, an array at the tree's index width
    ("H" or "i"), where member g's `words` =
    (H+1)*L words start at base g*words, and its bridge rows, where member
    g's L bridges of row r start at g*L of bridges[r] (see the module
    docstring for the layout).  A query or count of member g is one _walk
    over the last two dimensions of the tree's rank box.  The d=2 tree's
    root is a group of one, member 0.
    """

    __slots__ = ("L", "H", "words", "buf", "bridges", "rank_x")

    def __init__(self, L, buf, bridges, rank_x):
        self.L = L                      # padded leaf count (power of two)
        self.H = L.bit_length() - 1     # log2(L)
        self.words = (self.H + 1) * L   # one member's share of buf
        self.buf = buf                  # labels, from fill_buffers_batch_np
        self.bridges = bridges          # bridge rows, likewise
        self.rank_x = rank_x

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids, rank_x, counters=None):
        """A group of one over the labels ids, sorted by the x composite order.

        ids holds each label 0..m-1 once, and the leaf row pads it to
        L = pow2ceil(m): a phantom is leaf t >= m and label t, which rank_x
        (a rank_tables rank, L long) ranks t.  build() builds every group
        from its members' leaf rows and does not call this; it stays because
        the traced benchmark (perfbench/run.py) wraps it by name, and its
        result equals the d=2 root build() makes over the same labels, at
        the same index width.
        """
        row = np.arange(pow2ceil(len(ids)), dtype=np.int32)
        row[: len(ids)] = ids
        return cls(len(row), *fill_buffers_batch_np([row[None, :]], counters, index_code(len(row))),
                   rank_x)

    # -- queries -------------------------------------------------------------

    def query(self, g, a, b, stats, emit: Callable[[array], None]):
        """Emit member g's labels inside the rank box [a, b) in its last two dimensions (x, y).

        The walk makes ONE binary search, a bisect of the split node's array
        for ya; positions at every canonical node and boundary leaf follow
        bridges.  Each node's run of labels below yb is emitted as one slice
        of buf, an array of the tree's typecode ("H" or "i").
        """
        base, buf, L, yb = g * self.words, self.buf, self.L, b[-1]
        for row, p, u, _ in _walk(buf, self.rank_x, base, L, a[-2], b[-2], a[-1], None, stats,
                                  self.bridges, g * L):
            at = base + row * L + (p << row)
            u += at
            end = at + (1 << row)
            for v in range(u, end):
                if buf[v] >= yb:
                    break
            else:
                v = end
            if v > u:
                emit(buf[u:v])

    def count(self, g, a, b, stats) -> int:
        """Count member g's points inside the rank box [a, b), bounded as in query.

        Nothing is enumerated.  The walk bisects the split node's array for
        the twin positions, the first labels >= ya and >= yb, and carries
        them down via bridges; each canonical node contributes their
        difference.
        """
        total = 0
        L = self.L
        for _, _, u, v in _walk(self.buf, self.rank_x, g * self.words, L,
                                a[-2], b[-2], a[-1], b[-1], stats, self.bridges, g * L):
            if v > u:
                total += v - u
        return total
