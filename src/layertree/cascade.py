"""Fractional cascading over the last two dimensions, and the one implicit tree.

Index space.  A point is known by its label, its rank in the last
dimension (y), and by its rank in each other dimension.  Labels, ranks in
every dimension and leaf positions all run over 0..L-1, L = pow2ceil(n): a
phantom is leaf t >= n, its own label and its own rank in every dimension,
so it sorts after every real point, where no real rank interval [a, b) can
match it.  Real points come first in every chunk of every row, so in each
row of the root the positions >= n hold exactly the phantoms, phantom t at
t.  A walk carries a position no further than n, where it reads the first
phantom, a label >= n >= any y bound, which ends its run or its path, and a
level's walk reads no row at all; so every tree's root, the one group that
holds phantoms, keeps only phantom n (see Storage).  A group's leaf row
holds keys: each leaf's rank in the group's own dimension, ascending within
each member, so the level above places a member's bounds by two plain
bisects of them (see tree._Level.reached).  The root's keys are its
positions, so its leaf row is range(min(n + 1, L)).  A cascade's rows above
the leaves hold labels, each entry its own y key, and a cascade reads a
leaf's label through order: the label at each rank of dimension d-2, one
table shared by every cascade group of a tree.  At d = 2 those ranks are
the root's positions, so order is dimension 0's order in labels, phantom n
last.  rank_tables is the one function here that reads coordinates: it
turns the coordinate matrix into labels, rank tables and sorted axes, and
nothing else here knows a point or a coordinate.

Walk.  Every tree in the package is implicit in a leaf row: L = 2^H leaves
sorted by one dimension's rank, real points first, then phantoms.  Node
(r, pos) covers leaves pos*2^r .. (pos+1)*2^r - 1, and it splits after the
rightmost leaf of its left half.  _walk is the one walk over such a row, on
leaf positions, and a level of the multi-level tree (tree._Level) runs it
too.  The root's leaf row is dimension 0's order, so leaf p ranks p and a
rank interval already is a position interval: the tree hands the root its
ranks a[0], b[0].  Below the root a member's leaf row is sorted by its own
dimension's rank, its keys, and the level above it places the member's
bounds in them (see tree._Level), so every group walks positions only.

A cascade is that tree over coordinate x (the second-to-last dimension)
whose every node above the leaves also carries its subtree's labels in
ascending (y) order, plus a left bridge per entry: the first not-smaller
entry in the left child's array.  A position found in the split node's
array then follows bridges down in constant time per level.  A leaf's array
is its one label, order[key].

Storage.  The structures over one dimension with the same L form a merge
group, one object (a CascadeStructure or a tree._Level) whose G members are
(group, member) pairs.  Each holds L and rows, one array per stored row,
under one address rule: member g's L entries of a row start at g*L.  The
one exception is the root, a group of one whose every stored row holds
min(n + 1, L) entries: position n is its one phantom, and the rest are cut
(see Index space).  A level stores only its leaf keys, rows = [row 0]; a
cascade (H = log2 L) stores

    rows[0]                the leaf keys, each leaf's x rank: the x-tree.
                           The root's is a range, and order gives each
                           key's label.
    rows[r], r in 1..H     node arrays: the array of node (r, pos) is the
                           chunk of width 2^r starting at pos*2^r, its
                           labels ascending.
    bridges[r], r in 1..H  left bridges, one per entry of rows[r], at the
                           entry's own position.  bridges[0] is empty: a
                           leaf has no bridge.

Storage totals.  Let H = log2 L of the tree, w = max(1, H - 1) and C(a, b)
the binomial coefficient, 0 when a < b.  A level member of 2^h leaves hands
each of its points to one structure of 2^r leaves for each row r in
0..max(0, h - 2) (see tree._reachable), and a cascade member of 2^h leaves
stores h labels of each.  So a point lies in at most C(w + k - 1, k)
structures k dimensions below the root, one per non-increasing sequence of
k such rows, and in at most C(H - d + 2, d - 1) label entries.  A tree
stores at most (n + 1)*C(H - d + 2, d - 1) label entries, as many bridge
entries, one per label, and at most n*C(w + d - 2, d - 2) + 1 key entries,
order's min(n + 1, L) included: the paper's O(n log^(d-1) n).

Widths.  Labels, ranks, ids and leaf positions are all below L, so a tree
makes its rank tables and stores its ids, order, leaf keys and label rows
at one index width, index_code(L) of its padded size: "H" (two bytes) when
L <= 2^16, else "i" (four); the root's leaf row is a range, which has none.
A row-r bridge is at most 2^(r-1), so bridges[r] has the narrowest typecode
that holds that: "B" (one byte) for r <= 8, "H" (two) for r <= 16, "i"
(four) above.  packed makes every one of these arrays, sized exactly.
Reading any of them gives a Python int, so the query loops never make a
numpy scalar; numpy writes them only while they are built.

The right bridge is not stored: for the entry at position t of a node's
array it is t - lb[t].  Labels are distinct, so the t entries before it are
exactly the smaller ones, and each came from one child: lb[t] from the left,
the rest from the right; every chunk is full, so bridges are total.

Every row above a group's leaf rows comes out of one merge, merge_rows, of
the group's leaf labels, by the labels themselves (a cascade) or by a rank
table (a level, which gets no bridges); only then does build turn the leaf
row into keys.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterator

import numpy as np


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def index_code(L: int) -> str:
    """The typecode of a tree's labels, ranks, ids and label rows (see Widths above)."""
    return "H" if L <= 1 << 16 else "i"


def packed(code: str, *parts: np.ndarray) -> array:
    """The 1-D numpy arrays `parts`, concatenated into one array of typecode `code`.

    It is sized exactly (extending an array leaves growth slack), and numpy
    writes it through a view, casting unsafely: every caller's values fit.
    The parts are written by slice, not by np.concatenate(out=view), which
    under numpy 2.4 keeps about 50 bytes per call for good.
    """
    out = array(code, [0]) * sum(map(len, parts))
    view, at = np.frombuffer(out, dtype=code), 0
    for part in parts:
        view[at : at + len(part)] = part
        at += len(part)
    return out


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

    Composite order.  Ties between equal coordinates are broken by the full
    coordinate tuple and then by the point id, so every dimension j is
    strictly totally ordered: order j is by coordinate j, then the tuple,
    then the id.  The structures never compare these keys; a point is known
    by its rank in each order.

    ids (an array of n) is the last order, so ids[label] is the id.  row
    (int32, min(n + 1, L) long) is the root's leaf row: dimension 0's order
    in labels, then phantom n when n < L (see Storage above).  So ranks[0]
    is None when d > 1 (see Walk above).  For 0 < j < d-1, ranks[j] (an
    array of L, indexed by label) gives each label its position in order j.
    Only build reads these tables, and no structure keeps one: the levels
    over dimension j-1 merge by table j, and it turns the leaf labels of
    dimension j's groups into their keys (and, for j = d-2, into order; see
    Index space above).  Its phantom tail, t at t, is read only by
    merge_rows, for the keys of the phantoms it pads.
    axes[j] (an array("d")) holds column j in order j.  See Index space and
    Widths above for the phantoms and the typecodes.

    Each column gets a dense rank, and folding them in, key =
    dense(key*n + dense_j), keeps a dense rank of the whole tuple below n,
    so key*n + id sorts the rows by tuple then id: order 0, as the tuple
    starts with c_0.  Order j sorts dense_j*n + that row rank.  Each sort
    either ties only equal keys or has distinct keys, so none has to be
    stable.
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
    label = np.arange(pow2ceil(n), dtype=np.int32)  # by id; entry t >= n is phantom t's
    label[last] = seq
    ranks, axes = [None] if d > 1 else [], []  # the root's leaf row is dimension 0's order
    for j in range(d):
        order = row if j == 0 else last if j == d - 1 else np.argsort(dense[j] * n + row_rank)
        axes.append(packed("d", coords[:, j][order]))
        if 0 < j < d - 1:
            rank = np.empty(n, dtype=code)  # by real label; phantoms follow as themselves
            rank[label[order]] = seq
            ranks.append(packed(code, rank, label[n:]))
    return packed(code, last), np.concatenate((label[row], label[n : n + 1])), ranks, axes


def _walk(group, g: int, a: int, b: int, ya, yb, stats, carry_yb: bool = True):
    """Yield (row, pos, lo, hi) for each canonical node and in-range boundary leaf of [a, b).

    The tree is member g's leaf row (see Storage above), and [a, b) are
    leaf positions in it (see Walk above).  The split node is where leaves
    a and b part, b = L reading as leaf L-1, or b's leaf when a >= b.  The
    walk goes down the a path, then the b path: a path enters the right
    child iff the child's first leaf is at most its bound, and a boundary
    leaf p is in range iff a <= p < b.  It yields each node the range
    covers whole as its row and its position in that row.

    When ya is not None, the group is a cascade's: the walk bisects the
    split node's array for ya, and for yb if carry_yb (a query's is False),
    and carries the positions found, lo and hi, down each path by one left
    bridge per level, yielding them as positions in each node's array.  A
    node with lo >= hi (a count), or with lo past its array or at a label
    >= yb (a query: one read), and every node below it, holds no label in
    [ya, yb): the walk ends at such a split node, and a path at the first
    such child after that step's canonical sibling, so a path that ends
    after its step at row rr reads r - rr + 1 nodes, not r.  Two carried
    positions never cross: the walk leaves the split node only when
    lo < hi, and a left bridge lb[t] and the right one t - lb[t] both grow
    with t, so c <= e and s <= f at every node, and every yield has
    lo <= hi.  A level passes None for ya and yb.  A leaf's array is its one
    label, order[key] (see Index space above), which the walk reads at a
    split leaf and at the query's stop test in row 0; a leaf's lo is 0 or 1.
    """
    L = group.L
    base = g * L  # member g's entries of every row start here
    last = min(b, L - 1)
    r = (a ^ last).bit_length() if a < b else 0  # a and last agree above bit r
    pos = last >> r
    stats.nodes_visited += L.bit_length() - r
    npos = 0 if ya is None else 2 if carry_yb else 1  # positions carried, one bisect each
    stats.binary_searches += npos
    if r == 0:  # the split node is leaf pos; a >= b yields nothing, else a = last
        if a < b and (not npos or ya <= group.order[group.rows[0][base + pos]] < yb):
            yield 0, pos, 0 if npos else None, 1 if npos == 2 else None
        return
    lo = hi = None
    if npos:
        rows, bridges, order = group.rows, group.bridges, group.order
        row, at = rows[r], base + (pos << r)  # the split node's array
        end = at + (1 << r)
        if end > len(row):  # a cut row ends at its phantom n (see Storage above)
            end = len(row)
        lo = bisect_left(row, ya, at, end) - at
        if carry_yb:
            hi = bisect_left(row, yb, at, end) - at
        if lo >= hi if carry_yb else lo == 1 << r or row[at + lo] >= yb:
            return  # the split node holds no label in [ya, yb)
    s = f = None  # the sibling's positions, set at every step when carried
    empty = False  # whether the path's child holds no label in [ya, yb)
    for side, bound in ((0, a), (1, b)):
        # side 0 walks the a path, side 1 the b path; at every node the path
        # enters the right child iff the child's first leaf is at most the
        # bound, so at the split node (a < mid <= b) side 0 goes left and
        # side 1 right
        q, c, e, steps = pos << r, lo, hi, r  # q: the first leaf of the path's node
        for rr in range(r, 0, -1):
            hf = 1 << (rr - 1)
            mid = q + hf  # the first leaf of the right child
            go = mid <= bound
            if c is not None:
                # c sits at lb[c] in the left child and at c - lb[c] in the
                # right one: s is the sibling's position, the rest the path's
                at = base + q  # the node's chunk in bridge row rr
                lb = bridges[rr]
                s = lb[at + c] if c < hf + hf else hf
                if not go:
                    s = c - s
                c -= s
                if e is None:  # the child's entry at c; a leaf's label through order
                    t = at + c + (hf if go else 0)
                    empty = c == hf or (rows[rr - 1][t] if rr > 1 else order[rows[0][t]]) >= yb
                else:
                    f = lb[at + e] if e < hf + hf else hf
                    if not go:
                        f = e - f
                    e -= f
                    empty = c >= e
            if go:
                q = mid
            # below the split node, a path that keeps to its own side leaves
            # the sibling wholly inside the range; each such canonical child
            # costs one visit and one bridge per position
            if go == side and rr < r:
                steps += 1
                yield rr - 1, (q >> (rr - 1)) ^ 1, s, f
            if empty:
                steps -= rr - 1  # the path's nodes below its child go unread
                break
        stats.nodes_visited += steps
        stats.bridge_follows += npos * steps
        if not empty and a <= q < b:
            yield 0, q, c, e


def merge_rows(leaves: array, L: int, rank=None) -> Iterator[tuple[array, array | None]]:
    """Yield rows 1..H of a bottom-up stable merge of G leaf rows of length L by `rank`.

    `leaves` holds the labels of the G members' leaf rows, which build
    turns into keys only after this merge (see Index space above), or of
    one leaf row cut to keep < L entries, the root's: the merge then reads
    it padded with its cut phantoms, t at t, and cuts every row it yields
    to keep entries.  Each yield is (row, lb) for r = 1..H: row is the
    merged row r, packed at the leaves' typecode, whose member g's chunks
    of width 2^r are each sorted by rank.  A consumer may stop early: the
    rows it did not ask for are never merged.  `rank` is a rank_tables
    rank, for the levels of the multi-level tree: lb is None.  Or it is
    None, for a cascade: the labels are their own keys, and lb is the
    bridge row r (see Widths above).  At g*L + t it holds the left bridge
    of the row's entry there, the number of entries of the left half of
    its chunk with a smaller label.

    Each chunk of row r-1 at width 2^r is two runs sorted by rank, so one
    stable argsort per row (timsort for int32: it finds the two runs and
    merges them in linear time) gives every chunk's merge permutation perm.
    The row and its ranks (unless they are the row) are carried inside as
    flat int32 arrays, whatever the leaves' width; the next row is one 1-D
    gather at perm plus each chunk's start, and it is packed as it leaves.
    The keys stay int32 on purpose: numpy's stable argsort of 16-bit
    integers is a radix sort, which pays its passes for every chunk and
    does not use the two runs; at spans 2 to 16 over rows of L = 2^15 it
    ran 5 to 9 times slower than int32 timsort.

    Ranks are distinct, so the entries before merged position t are exactly
    the smaller ones, and the left bridge has a closed form.  An entry from
    left-run index i = perm has the i left entries before it; one from
    right-run index j = perm - 2^(r-1) has t - j.  Both are
    min(perm, t + 2^(r-1) - perm): a left entry has t >= i, and a right
    one has t - j <= 2^(r-1) <= perm.  So no prefix count is needed.  Each
    row's closed form is worked in int32 from the chunk-local perm and packed
    before the gather, so one int32 bridge row is live at a time.
    """
    cur = np.asarray(leaves, dtype=np.int32)  # never written: each row is a new gather
    if len(cur) < L:  # the root's cut row
        cur = np.concatenate((cur, np.arange(len(cur), L, dtype=np.int32)))
    pos = np.arange(len(cur), dtype=np.int32)  # t and the chunk start are its bits
    keys = cur if rank is None else np.frombuffer(rank, dtype=rank.typecode)[cur].astype(
        np.int32, copy=False)
    for r in range(1, L.bit_length()):
        span, half = 1 << r, 1 << (r - 1)
        perm = np.argsort(keys.reshape(-1, span), axis=1, kind="stable").reshape(-1)
        lb = None
        if rank is None:
            p = perm.astype(np.int32)
            lb = pos & (span - 1)
            lb += half
            lb -= p
            np.minimum(lb, p, out=lb)
            del p  # before the narrow row is made
            lb = packed("B" if r <= 8 else "H" if r <= 16 else "i", lb[: len(leaves)])  # nothing wraps
        perm += pos & -span  # each entry's source position in the flat row
        cur = cur[perm]
        keys = cur if rank is None else keys[perm]
        del perm  # before the next argsort makes its own: 8 bytes an entry
        yield packed(leaves.typecode, cur[: len(leaves)]), lb


def fill_buffers_batch_np(leaves: array, L: int) -> tuple[list[array], list[array]]:
    """(rows, bridges) of one cascade merge group, merged from its members' leaf labels.

    `leaves` holds the labels (see Storage above).  It is rows[0] until
    the caller, once the merge is done, puts the leaf keys there (see
    Index space above), and every row merge_rows yields follows it: all
    are as long as `leaves`, so cutting the leaf row of a group of one to
    its first keep entries cuts every row and bridge row to keep.
    """
    rows, bridges = [leaves], [array("B")]
    for row, lb in merge_rows(leaves, L):
        rows.append(row)
        bridges.append(lb)
    return rows, bridges


class CascadeStructure:
    """A cascade merge group: G structures over the last two dimensions with the same L.

    Each member is an x-tree plus per-node label arrays with bridges, laid
    out in rows and bridges as Storage above says, and order gives a leaf
    key's label (see Index space above).  A query or count of member g is
    one _walk over its leaf positions [u, v) in x and the last dimension
    of the tree's rank box.
    """

    __slots__ = ("L", "rows", "bridges", "order")

    def __init__(self, L, rows, bridges, order):
        self.L = L                      # padded leaf count (power of two)
        self.rows = rows                # leaf keys, then label rows 1..H
        self.bridges = bridges          # bridge rows, from fill_buffers_batch_np
        self.order = order              # the label at each x rank, one per tree

    # -- construction -------------------------------------------------------

    @classmethod
    def build_from_ids(cls, ids):
        """A group of one over the labels ids, sorted by the x composite order.

        ids holds each label 0..m-1 once, and order follows it with the
        one phantom m when m < L = pow2ceil(m); the leaf keys are the
        positions (see Index space and Storage above).  build() does not
        call this; it stays because the traced benchmark
        (perfbench/run.py) wraps it by name.  Its result equals the d=2
        root build() makes over the same labels in the same order.
        """
        m = len(ids)
        L = pow2ceil(m)
        leaves = packed(index_code(L), np.asarray(ids), np.arange(m, min(m + 1, L)))
        rows, bridges = fill_buffers_batch_np(leaves, L)
        rows[0] = range(len(leaves))
        return cls(L, rows, bridges, leaves)

    # -- queries -------------------------------------------------------------

    def query(self, g, u, v, a, b, stats, emit: Callable[[array], None]):
        """Emit member g's labels at leaf positions [u, v) inside the rank interval [a, b) of y.

        a and b are the tree's rank box; only their last entry, y, is read.
        The walk carries only the position of ya, and each node's run of
        labels below yb is emitted as one slice of its label row, a leaf's
        as a slice of order.
        """
        rows, order, base, yb = self.rows, self.order, g * self.L, b[-1]
        for r, p, lo, _ in _walk(self, g, u, v, a[-1], yb, stats, False):
            at = base + (p << r)
            if not r:  # a leaf: its one label, read through order
                k = rows[0][at]
                if not lo and order[k] < yb:
                    emit(order[k : k + 1])
                continue
            row = rows[r]
            lo += at
            end = at + (1 << r)
            for hi in range(lo, end):
                if row[hi] >= yb:
                    break
            else:
                hi = end
            if hi > lo:
                emit(row[lo:hi])

    def count(self, g, u, v, a, b, stats) -> int:
        """Count member g's points at leaf positions [u, v), bounded in y as in query.

        Nothing is enumerated.  The walk carries the positions of ya and yb,
        and each node it yields adds their difference (see _walk).
        """
        total = 0
        for _, _, lo, hi in _walk(self, g, u, v, a[-1], b[-1], stats):
            total += hi - lo
        return total
