import ast
import gc
import math
import random
import weakref
from array import array
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

import layertree.cascade
from layertree import (
    GeneratorConfig,
    Point,
    PointSet,
    QueryStats,
    brute_force_query,
    build,
    gen_points,
)
from layertree.cascade import (CascadeStructure, fill_buffers_batch_np, merge_rows, pow2ceil,
                               rank_tables)
from layertree.core import QueryBox

from structure_dump import (SplitMix64, all_nodes, box_contains, bridge_rows, composite_key,
                            every_point, leaf_labels, leaf_ranks, leaf_row, model_checked, node,
                            structures, subtree)


def make_cascade(coord_pairs):
    """The 2-d tree's root over the pairs (a group of one, member 0), its point set and id map."""
    tree = build(PointSet.from_coords(coord_pairs))
    return tree.root, tree.pointset, tree.ids


def y_values(cs, ps, ids, at):
    """A node's y coordinates, read from the point set's matrix; inf for a phantom."""
    ys = ps.coord_matrix()[:, -1].tolist()
    return [ys[ids[e]] if e < len(ps) else math.inf for e in at.ranks]


def real_points(ps, ids, labels):
    """The Points of the real labels among `labels`, in their order; phantoms (>= n) dropped."""
    pts = every_point(ps)
    return [pts[ids[e]] for e in labels if e < len(ps)]


def rank_args(cs, ps, xlo, xhi, ylo, yhi):
    """The box [xlo,xhi] x [ylo,yhi] as cs.query's (u, v, a, b) at the d=2 root.

    (a, b) = ((xa, ya), (xb, yb)) is the rank box, and the leaf positions
    [u, v) are the x ranks [xa, xb), as the tree hands them to its root.
    """
    m = ps.coord_matrix()
    xs = sorted(m[:, -2].tolist())
    ys = sorted(m[:, -1].tolist())
    a = bisect_left(xs, xlo), bisect_left(ys, ylo)
    b = bisect_right(xs, xhi), bisect_right(ys, yhi)
    return a[0], b[0], a, b


def hits(cs, ps, ids, xlo, xhi, ylo, yhi, stats=None):
    """The points cs.query reports for the box, by id; the query emits runs of labels."""
    labels: list = []
    cs.query(0, *rank_args(cs, ps, xlo, xhi, ylo, yhi), QueryStats() if stats is None else stats,
             labels.extend)
    pts = every_point(ps)
    return [pts[i] for i in sorted(ids[e] for e in labels)]


class TestBuild:
    def test_single_point(self):
        cs, ps, ids = make_cascade([(2, 7)])
        assert leaf_row(cs) == range(1) and cs.order.tolist() == [0] and cs.L == 1  # one real leaf
        root = node(cs, 0, 0)
        assert real_points(ps, ids, root.ranks) == every_point(ps)
        assert y_values(cs, ps, ids, root) == [7.0]
        assert root.left_bridge == [] and root.right_bridge == []

    def test_build_from_ids_equals_build(self):
        ps = gen_points(GeneratorConfig(seed=12, n=45, dims=2, dist="grid", grid_side=4))
        tree = build(ps)
        root = tree.root
        one = CascadeStructure.build_from_ids(root.order[: len(ps)])
        # the root's leaf keys are its positions, and order its x order in
        # labels; no cascade holds a rank table
        assert root.rows[0] == range(min(len(ps) + 1, root.L))
        assert not hasattr(one, "rank") and not hasattr(root, "rank")
        assert (one.L, one.L.bit_length() - 1) == (root.L, root.L.bit_length() - 1)
        assert one.rows[0] == root.rows[0] and typed(one.rows[1:]) == typed(root.rows[1:])
        assert typed(one.bridges) == typed(root.bridges)
        assert typed([one.order]) == typed([root.order])

    def test_hand_derived_parent_bridges(self):
        # children (1, 0) and (1, 1) carry y-keys [1,5] and [3,7]; the parent,
        # the root (2, 0), merges to [1,3,5,7]
        cs, ps, ids = make_cascade([(0, 1), (1, 5), (2, 3), (3, 7)])
        root = node(cs, 2, 0)
        left, right = node(cs, 1, 0), node(cs, 1, 1)
        assert y_values(cs, ps, ids, left) == [1.0, 5.0]
        assert y_values(cs, ps, ids, right) == [3.0, 7.0]
        assert y_values(cs, ps, ids, root) == [1.0, 3.0, 5.0, 7.0]
        assert root.left_bridge == [0, 1, 1, 2]
        assert root.right_bridge == [0, 0, 1, 1]
        # linear-scan oracle for the bridge rule: smallest child index with key >= parent key
        for t, key in enumerate(root.ranks):
            assert root.left_bridge[t] == next(
                (u for u, ck in enumerate(left.ranks) if ck >= key), len(left.ranks)
            )
            assert root.right_bridge[t] == next(
                (u for u, ck in enumerate(right.ranks) if ck >= key), len(right.ranks)
            )

    def test_entries_are_sorted_union_of_subtree(self):
        rng = SplitMix64(31)
        coords = [(rng.next_below(8), rng.next_below(8)) for _ in range(37)]
        cs, ps, ids = make_cascade(coords)
        pts = every_point(ps)
        for r, p in all_nodes(cs.L):
            ranks = node(cs, r, p).ranks
            expected = sorted(
                (pts[ids[e]] for e in subtree(cs, 0, r, p, len(ps))),
                key=lambda p: composite_key(p, 1),
            )
            assert real_points(ps, ids, ranks) == expected
            assert ranks == sorted(ranks)

    def test_phantoms_pad_arrays_to_full_length(self):
        cs, ps, ids = make_cascade([(0, 0), (1, 1), (2, 2)])
        assert cs.L == 4
        root = node(cs, 2, 0)
        assert len(root.ranks) == 4
        assert root.ranks[3] >= len(ps)  # a phantom
        assert y_values(cs, ps, ids, root)[3] == float("inf")
        assert root.ranks[3] >= 3


class TestIdsOnly:
    # the cascades hold labels and ranks: ids and Points are made only at the edge
    def test_node_makes_no_point(self):
        # reading every node of every cascade (structure_dump.node) makes no Point
        tree = build(gen_points(GeneratorConfig(seed=3, n=300, dims=3, dist="grid", grid_side=5)))
        members = [s for _, s in structures(tree) if isinstance(s[0], CascadeStructure)]
        gc.collect()
        before = sum(type(o) is Point for o in gc.get_objects())
        for cs, g in members:
            for r, p in all_nodes(cs.L):
                node(cs, r, p, g)
        assert sum(type(o) is Point for o in gc.get_objects()) == before

    def test_cascade_imports_nothing_from_core(self):
        with open(layertree.cascade.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        assert imported and not [m for m in imported if m and m.split(".")[-1] == "core"]


def exhaustive_bridge_check(cs, g=0):
    violations = 0
    for r, p in all_nodes(cs.L):
        if r == 0:  # internal nodes only
            continue
        at = node(cs, r, p, g)
        lkeys = node(cs, r - 1, 2 * p, g).ranks
        rkeys = node(cs, r - 1, 2 * p + 1, g).ranks
        for t, key in enumerate(at.ranks):
            if at.left_bridge[t] != bisect_left(lkeys, key):
                violations += 1
            if at.right_bridge[t] != bisect_left(rkeys, key):
                violations += 1
        if any(a > b for a, b in zip(at.left_bridge, at.left_bridge[1:])):
            violations += 1
        if any(a > b for a, b in zip(at.right_bridge, at.right_bridge[1:])):
            violations += 1
    return violations


def reference_merge(leaf, rank, H):
    """Node rows 0..H and left-bridge rows 1..H of one leaf row, from their definition.

    Row r holds each chunk of width 2^r of the leaf row sorted by rank; an
    entry's left bridge counts the chunk's left-half entries of smaller rank.
    """
    rows, lbs = [list(leaf)], []
    for r in range(1, H + 1):
        span, half = 1 << r, 1 << (r - 1)
        row, lb = [], []
        for c in range(0, len(leaf), span):
            chunk = sorted(leaf[c : c + span], key=rank.__getitem__)
            row += chunk
            left = sorted(rank[e] for e in leaf[c : c + half])
            lb += [bisect_left(left, rank[x]) for x in chunk]
        rows.append(row)
        lbs.append(lb)
    return rows, lbs


def typed(rows):
    """A group's label or bridge arrays as (typecode, values) pairs."""
    return [(row.typecode, row.tolist()) for row in rows]


def merge_all(leaves, L, rank=None):
    """merge_rows run out over flat leaf rows: rows 0..H as a (G, H+1, L) array, and bridges.

    The leaves are handed to merge_rows as an array, "i" unless they are
    one already, and every row comes back packed at its typecode.  The
    bridges are an empty row 0, then each yielded bridge row; a level (a
    rank table given) gets None for every row, and None back.
    """
    if not isinstance(leaves, array):
        leaves = array("i", np.asarray(leaves, dtype=np.int32).tobytes())
    rows, lbs = [np.asarray(leaves)], []
    for row, lb in merge_rows(leaves, L, rank):
        assert row.typecode == leaves.typecode and len(row) == len(leaves)
        rows.append(np.asarray(row))
        lbs.append(lb)
    merged = np.stack(rows).reshape(len(rows), -1, L).transpose(1, 0, 2)
    if rank is not None:
        assert lbs == [None] * (len(rows) - 1)
        return merged, None
    return merged, [array("B")] + lbs


def build_style_rows(G, L, seed):
    """(leaf rows, rank) shaped as build() makes a merge group over L leaves.

    A group of one is the root: its n = m real labels, L/2 < m <= L (m = 1
    at L = 1), in random order, then phantom t at leaf t for t in m..L-1.  A
    larger group lies below the root: each member holds L distinct real
    labels out of n, L <= n <= G*L, and no phantom.  rank is pow2ceil(n)
    long: it ranks the real labels in a random order and phantom t as t.
    """
    rnd = random.Random(seed)
    if G == 1:
        n = rnd.randint(L // 2 + 1, L)
        rows = [rnd.sample(range(n), n) + list(range(n, L))]
    else:
        n = rnd.randint(L, G * L)
        rows = [rnd.sample(range(n), L) for _ in range(G)]
    return rows, rnd.sample(range(n), n) + list(range(n, pow2ceil(n)))


class TestMergeRows:
    @pytest.mark.parametrize("G", [1, 3])
    @pytest.mark.parametrize("L", [1, 2, 8, 64])
    @pytest.mark.parametrize("bridges", [True, False])
    def test_equals_reference(self, G, L, bridges):
        # a level's merge (a rank table) makes no bridge; a cascade's merges
        # labels, its own keys, so the bridged case merges each id's rank
        rnd = random.Random(G * 1000 + L)
        H = L.bit_length() - 1
        rank = list(range(G * L))
        ids = list(range(G * L))
        rnd.shuffle(rank)
        rnd.shuffle(ids)
        leaves = np.array(ids, dtype=np.int32).reshape(G, L)
        if bridges:
            merged, got = merge_all(np.array(rank, dtype=np.int32)[leaves].reshape(-1), L)
        else:
            merged, got = merge_all(leaves.reshape(-1), L, array("i", rank))
            assert got is None
        for g in range(G):
            rows, lbs = reference_merge(leaves[g].tolist(), rank, H)
            if bridges:
                rows = [[rank[e] for e in row] for row in rows]
                assert bridge_rows(SimpleNamespace(bridges=got, L=L), g) == lbs
            assert merged[g].tolist() == rows

    @pytest.mark.parametrize("G", [1, 3])
    @pytest.mark.parametrize("L", [1, 2, 8, 64])
    @pytest.mark.parametrize("bridges", [True, False])
    def test_identity_keys(self, G, L, bridges):
        # a cascade's entries are labels, its own keys: no rank table is
        # passed, and bridges come back; the identity table merges the same
        # rows and makes none
        rnd = random.Random(G * 1000 + L + 7)
        H = L.bit_length() - 1
        labels = list(range(G * L))
        rnd.shuffle(labels)
        leaves = np.array(labels, dtype=np.int32).reshape(G, L)
        rank = None if bridges else array("i", range(G * L))
        merged, got = merge_all(leaves.reshape(-1), L, rank)
        assert (got is None) != bridges
        for g in range(G):
            rows, lbs = reference_merge(leaves[g].tolist(), range(G * L), H)
            assert merged[g].tolist() == rows
            if bridges:
                assert bridge_rows(SimpleNamespace(bridges=got, L=L), g) == lbs

    @pytest.mark.parametrize("G", [1, 2, 7])
    @pytest.mark.parametrize("L", [1, 2, 4, 32, 256, 4096])
    def test_build_style_rows(self, G, L):
        # a level merges the rows by rank; a cascade merges them as labels,
        # each entry's rank, so phantom t stays label t
        H = L.bit_length() - 1
        rows, rank = build_style_rows(G, L, seed=G * 10007 + L)
        leaf = np.array(rows, dtype=np.int32)
        labels = np.array([[rank[e] for e in row] for row in rows], dtype=np.int32)
        plain, none = merge_all(leaf.reshape(-1), L, array("i", rank))
        bridged, bridges = merge_all(labels.reshape(-1), L)
        assert none is None and bridged.dtype == plain.dtype == np.int32
        assert (bridged[:, 0] == labels).all() and (plain[:, 0] == leaf).all()
        assert len(bridges) == H + 1 and not bridges[0]
        for g in range(G):
            want_rows, want_lbs = reference_merge(rows[g], rank, H)
            assert plain[g].tolist() == want_rows
            assert bridged[g].tolist() == [[rank[e] for e in row] for row in want_rows]
            assert bridge_rows(SimpleNamespace(bridges=bridges, L=L), g) == want_lbs

    @pytest.mark.parametrize("G,L", [(1, 1), (3, 2), (3, 64), (2, 4096), (1, 65536)])
    @pytest.mark.parametrize("ranked", [True, False])
    def test_narrow_buffer(self, G, L, ranked):
        # a tree with pow2ceil(n) <= 2^16 keeps uint16 ("H") leaf rows: the
        # merge reads them as int32, and only the packing of each row
        # narrows, so its rows and bridges are the int32 merge's, with a
        # rank table (a level) and without (a cascade, whose labels are each
        # entry's rank, packed by its fill at the leaves' typecode)
        rows, rank = build_style_rows(G, L, seed=G * 31 + L)
        if not ranked:
            rows = [[rank[e] for e in row] for row in rows]
        got = {}
        for code in ("i", "H"):
            leaves = array(code, [e for row in rows for e in row])
            if ranked:
                merged, none = merge_all(leaves, L, array(code, rank))
                got[code] = merged.tolist(), none
            else:
                label_rows, bridges = fill_buffers_batch_np(leaves, L)
                assert {row.typecode for row in label_rows} == {code}
                assert [len(row) for row in label_rows] == [G * L] * L.bit_length()
                got[code] = [row.tolist() for row in label_rows], typed(bridges)
        assert (got["H"][1] is None) == ranked
        assert got["H"] == got["i"]

    @pytest.mark.parametrize("G,ranked", [(3, True), (1, False), (3, False)])
    def test_streaming_keeps_no_old_row(self, G, ranked):
        # merge_rows yields one row at a time and keeps no reference to it:
        # once the consumer drops a row, the next step frees it, for a level
        # (a rank table) and for a cascade alike.  A for loop's variable
        # would hold the row through the step, so the rows are taken by next
        L = 64
        rows, rank = build_style_rows(G, L, seed=G * 7 + ranked)
        if not ranked:
            rows = [[rank[e] for e in row] for row in rows]
        merge = merge_rows(array("i", [e for row in rows for e in row]), L,
                           array("i", rank) if ranked else None)
        dead = []
        row, lb = next(merge)
        while row is not None:
            assert (lb is None) == ranked
            held = weakref.ref(row)
            del row, lb
            row, lb = next(merge, (None, None))
            dead.append(held() is None)
        assert dead == [True] * (L.bit_length() - 1)

    @pytest.mark.parametrize("H", [9, 17])
    def test_bridge_typecode_boundaries(self, H):
        # a row-r bridge is at most 2^(r-1): rows 1-8 are bytes, 9-16 two
        # bytes, 17 on four.  The largest label sits last, so the last chunk
        # of every row has its maximum in the right half, and that entry's
        # bridge is the bound itself
        L = 1 << H
        leaves = np.append(np.random.default_rng(H).permutation(L - 1), L - 1)
        merged, bridges = merge_all(leaves, L)
        assert len(bridges) == H + 1 and not bridges[0]
        for r in range(1, H + 1):
            span, half = 1 << r, 1 << (r - 1)
            assert bridges[r].typecode == ("B" if r <= 8 else "H" if r <= 16 else "i")
            # the closed form in int32, from each chunk's merge permutation
            perm = np.argsort(merged[0, r - 1].reshape(-1, span), axis=1, kind="stable")
            t = np.arange(span)
            want = np.minimum(perm, t + half - perm).astype(np.int32).reshape(-1)
            got = np.frombuffer(bridges[r], dtype=bridges[r].typecode)
            assert (got == want).all() and got.max() == half == want.max()


class TestBridges:
    @pytest.mark.parametrize("n,grid", [(1, 3), (2, 4), (3, 4), (7, 2), (16, 5), (33, 3), (127, 9),
                                        (128, 7), (129, 9), (200, 1000), (256, 40), (257, 40)])
    def test_exhaustive_bridge_soundness(self, n, grid):
        rng = SplitMix64(n * 31 + grid)
        cs, _, _ = make_cascade([(rng.next_below(grid), rng.next_below(grid)) for _ in range(n)])
        assert exhaustive_bridge_check(cs) == 0

    def test_every_member_of_every_group(self):
        # a d=3 tree's cascades share their groups' arrays: check each member
        # at its own base, and that its entries are its subtree's points
        tree = build(gen_points(GeneratorConfig(seed=8, n=90, dims=3, dist="grid", grid_side=4)))
        n = len(tree.pointset)
        members = [s for _, s in structures(tree) if isinstance(s[0], CascadeStructure)]
        assert any(g > 0 for _, g in members)
        for cs, g in members:
            assert exhaustive_bridge_check(cs, g) == 0
            leaves = leaf_labels(cs, g)
            real = [e for e in leaves if e < n]
            top = node(cs, cs.L.bit_length() - 1, 0, g)
            stored = real_points(tree.pointset, tree.ids, top.ranks)
            assert sorted(p.id for p in stored) == sorted(tree.ids[e] for e in real)
            assert leaves[: len(real)] == real  # real labels first, then phantoms


class TestQuery2D:
    def test_basic_box(self):
        cs, ps, ids = make_cascade([(1, 1), (2, 2), (3, 3)])
        got = hits(cs, ps, ids, 1, 2, 1, 2)
        assert [(p.coords) for p in got] == [(1.0, 1.0), (2.0, 2.0)]

    def test_empty_y_range_still_one_search(self):
        cs, ps, ids = make_cascade([(1, 1), (2, 2), (3, 3)])
        stats = QueryStats()
        assert hits(cs, ps, ids, 0, 4, 10, 20, stats) == []
        assert stats.binary_searches == 1

    def test_one_search_law_random(self):
        rng = SplitMix64(77)
        cs, ps, ids = make_cascade([(rng.next_below(30), rng.next_below(30)) for _ in range(100)])
        for _ in range(500):
            xlo, xhi = rng.next_below(32) - 1, rng.next_below(32) - 1
            ylo, yhi = rng.next_below(32) - 1, rng.next_below(32) - 1
            stats = QueryStats()
            got = hits(cs, ps, ids, xlo, xhi, ylo, yhi, stats)
            assert stats.binary_searches == 1
            assert got == brute_force_query(ps, QueryBox((xlo, ylo), (xhi, yhi)))

    def test_oracle_agreement_with_duplicates(self):
        rng = SplitMix64(5)
        cs, ps, ids = make_cascade([(rng.next_below(4), rng.next_below(4)) for _ in range(64)])
        for xlo in (-0.5, 0.0, 1.0, 2.5, 3.0):
            for xhi in (-0.5, 1.0, 2.0, 3.0, 4.0):
                for ylo in (0.0, 0.5, 2.0, 3.0):
                    for yhi in (-1.0, 1.0, 2.5, 3.0):
                        got = hits(cs, ps, ids, xlo, xhi, ylo, yhi)
                        assert got == brute_force_query(ps, QueryBox((xlo, ylo), (xhi, yhi)))

    def test_positions_match_shadow_lower_bound(self, monkeypatch):
        # every cascade call, a query's (carrying ya) and a count's (ya and
        # yb), gives the yields and counters of walk_model, whose positions
        # are bisects of each node's labels; the calls are observed on their
        # way to the real walk
        calls = model_checked(monkeypatch)
        rng = SplitMix64(123)
        cs, ps, ids = make_cascade([(rng.next_below(50), rng.next_below(50)) for _ in range(200)])
        for _ in range(200):
            xlo, xhi = sorted((rng.next_below(52) - 1, rng.next_below(52) - 1))
            ylo, yhi = rng.next_below(52) - 1, rng.next_below(52) - 1
            cs.query(0, *rank_args(cs, ps, xlo, xhi, ylo, 100.0), QueryStats(), lambda p: None)
            # yhi < ylo in about half
            cs.count(0, *rank_args(cs, ps, xlo, xhi, ylo, yhi), QueryStats())
        seen = [sum(len(got) for _, _, got, counters in calls if counters[1] == k) for k in (1, 2)]
        assert min(seen) > 200  # the wrapper observed both walks

    def test_count_matches_query(self):
        rng = SplitMix64(9)
        cs, ps, ids = make_cascade([(rng.next_below(10), rng.next_below(10)) for _ in range(90)])
        for _ in range(300):
            xlo, xhi = rng.next_below(12) - 1, rng.next_below(12) - 1
            ylo, yhi = rng.next_below(12) - 1, rng.next_below(12) - 1
            stats = QueryStats()
            k = cs.count(0, *rank_args(cs, ps, xlo, xhi, ylo, yhi), stats)
            assert k == len(hits(cs, ps, ids, xlo, xhi, ylo, yhi))
            assert k == len(brute_force_query(ps, QueryBox((xlo, ylo), (xhi, yhi))))
            assert stats.binary_searches == 2

    def test_phantoms_never_emitted(self):
        cs, ps, ids = make_cascade([(i, i % 3) for i in range(13)])  # pads to L=16
        got = hits(cs, ps, ids, -100, 100, -100, 100)
        assert got == every_point(ps)
        assert all(p is not None for p in got)

    def test_boxes_via_boxed_interface(self):
        # the root takes the tree's rank box; a cascade reads its last two dimensions
        cs, ps, ids = make_cascade([(1, 4), (2, 3), (3, 2), (4, 1)])
        pts = every_point(ps)
        box = QueryBox((1.5, 0.0), (4.0, 2.5))
        u, v, a, b = rank_args(cs, ps, 1.5, 4.0, 0.0, 2.5)
        labels: list = []
        cs.query(0, u, v, a, b, QueryStats(), labels.extend)
        assert [pts[e] for e in sorted(ids[e] for e in labels)] == [
            p for p in pts if box_contains(box, p)]
        assert cs.count(0, u, v, a, b, QueryStats()) == 2

    def test_tree_view(self):
        # row 0 is the x-tree's leaf row: its keys ascend in x rank, and its
        # labels, read through order, are nondecreasing in x, real labels
        # first.  The d=2 root is dimension 0's group, so its keys are its
        # positions, leaf p's x rank is p, and order is that x order
        tree = build(PointSet.from_coords([(3, 0), (1, 0), (2, 0)]))
        cs, ps, ids = tree.root, tree.pointset, tree.ids
        pts = every_point(ps)
        leaves = leaf_labels(cs)
        assert cs.L == 4 and sum(e < len(pts) for e in leaves) == 3
        assert leaf_row(cs) == range(4) and leaf_ranks(cs) == [0, 1, 2, 3]
        assert leaves == cs.order.tolist() == rank_tables(ps.coord_matrix())[1].tolist()
        keys = [composite_key(pts[ids[e]], 0) for e in leaves[:3]]
        assert keys == sorted(keys)
        xs = [pts[ids[e]].coords[0] for e in leaves[:3]]
        assert xs == [1.0, 2.0, 3.0]
        assert leaves[3] >= len(pts)
