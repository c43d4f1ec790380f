import ast
import gc
import math
import random
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

import layertree.cascade
from layertree import (
    BuildCounters,
    EmptyInput,
    GeneratorConfig,
    Point,
    PointSet,
    QueryStats,
    SplitMix64,
    build,
    gen_points,
)
from layertree.cascade import CascadeStructure, merge_rows
from layertree.core import QueryBox, box_contains, composite_key


def make_cascade(coord_pairs):
    """The 2-d tree's root over the pairs (a group of one, member 0), its point set and id map."""
    tree = build(PointSet.from_coords(coord_pairs))
    return tree.root, tree.pointset, tree.ids


def y_values(cs, ps, ids, node):
    """A node's y coordinates, read from the point set's matrix; inf for a phantom."""
    ys = ps.coord_matrix()[:, cs.ydim].tolist()
    return [ys[ids[e]] if e < len(ps) else math.inf for e in node.ranks]


def real_points(ps, ids, labels):
    """The Points of the real labels among `labels`, in their order; phantoms (>= n) dropped."""
    return ps.take([ids[e] for e in labels if e < len(ps)])


def rank_args(cs, ps, xlo, xhi, ylo, yhi):
    """The box [xlo,xhi] x [ylo,yhi] as the rank box (a, b) = ((xa, ya), (xb, yb)) of cs.query."""
    m = ps.coord_matrix()
    xs = sorted(m[:, cs.xdim].tolist())
    ys = sorted(m[:, cs.ydim].tolist())
    return ((bisect_left(xs, xlo), bisect_left(ys, ylo)),
            (bisect_right(xs, xhi), bisect_right(ys, yhi)))


def collect(cs, ps, ids, xlo, xhi, ylo, yhi, stats=None):
    """The points cs.query reports for the box, by id; the query emits runs of labels."""
    labels = array("i")
    cs.query(0, *rank_args(cs, ps, xlo, xhi, ylo, yhi), stats or QueryStats(), labels.extend)
    return ps.take(sorted(ids[e] for e in labels))


def subtree_leaf_labels(cs, n, slot):
    """Real labels under heap slot `slot` of member 0's x-tree, in x order: its leaf row chunk."""
    depth = (slot + 1).bit_length() - 1
    span = cs.L >> depth
    lo = (slot + 1 - (1 << depth)) * span
    return [e for e in cs.buf[lo : lo + span] if e < n]


def brute(pts, xlo, xhi, ylo, yhi):
    return sorted(
        (p for p in pts if xlo <= p.coords[0] <= xhi and ylo <= p.coords[1] <= yhi),
        key=lambda p: p.id,
    )


class TestBuild:
    def test_single_point(self):
        cs, ps, ids = make_cascade([(2, 7)])
        assert cs.buf[: cs.L].tolist() == [0] and cs.L == 1  # one real leaf
        root = cs.node(0)
        assert ps.take([ids[e] for e in root.ranks]) == ps.points
        assert y_values(cs, ps, ids, root) == [7.0]
        assert root.left_bridge == [] and root.right_bridge == []

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            build(PointSet([], 2))

    def test_build_from_ids_equals_build(self):
        ps = gen_points(GeneratorConfig(seed=12, n=45, dims=2, dist="grid", grid_side=4))
        built, counters = BuildCounters(), BuildCounters()
        root = build(ps, built).root
        one = CascadeStructure.build_from_ids(root.buf[: len(ps)], 0, 1, root.rank_x,
                                              len(ps), counters)
        assert (one.L, one.H, one.words) == (root.L, root.H, root.words)
        assert one.buf.tolist() == root.buf.tolist()
        assert counters.merge_moves == built.merge_moves

    def test_hand_derived_parent_bridges(self):
        # children carry y-keys [1,5] and [3,7]; the parent merges to [1,3,5,7]
        cs, ps, ids = make_cascade([(0, 1), (1, 5), (2, 3), (3, 7)])
        root = cs.node(0)
        left, right = cs.node(1), cs.node(2)
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
        for slot in range(2 * cs.L - 1):
            node = cs.node(slot)
            stored = real_points(ps, ids, node.ranks)
            expected = sorted(
                (ps.by_id[ids[e]] for e in subtree_leaf_labels(cs, len(ps), slot)),
                key=lambda p: composite_key(p, 1),
            )
            assert stored == expected
            assert node.ranks == sorted(node.ranks)

    def test_phantoms_pad_arrays_to_full_length(self):
        cs, ps, ids = make_cascade([(0, 0), (1, 1), (2, 2)])
        assert cs.L == 4
        root = cs.node(0)
        assert len(root.ranks) == 4
        assert root.ranks[3] >= len(ps)  # a phantom
        assert y_values(cs, ps, ids, root)[3] == float("inf")
        assert root.ranks[3] >= 3


class TestIdsOnly:
    # the cascades hold labels and ranks: ids and Points are made only at the edge
    def test_node_makes_no_point(self):
        tree = build(gen_points(GeneratorConfig(seed=3, n=300, dims=3, dist="grid", grid_side=5)))
        members = [s for _, s in tree.structures() if isinstance(s[0], CascadeStructure)]
        gc.collect()
        before = sum(type(o) is Point for o in gc.get_objects())
        for cs, g in members:
            for slot in range(2 * cs.L - 1):
                cs.node(slot, g)
        assert sum(type(o) is Point for o in gc.get_objects()) == before

    def test_cascade_imports_nothing_from_core(self):
        with open(layertree.cascade.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        assert imported and not [m for m in imported if m and m.split(".")[-1] == "core"]


def exhaustive_bridge_check(cs, g=0):
    violations = 0
    for slot in range((cs.L - 1)):  # internal slots only
        node = cs.node(slot, g)
        lkeys = cs.node(2 * slot + 1, g).ranks
        rkeys = cs.node(2 * slot + 2, g).ranks
        for t, key in enumerate(node.ranks):
            if node.left_bridge[t] != bisect_left(lkeys, key):
                violations += 1
            if node.right_bridge[t] != bisect_left(rkeys, key):
                violations += 1
        if any(a > b for a, b in zip(node.left_bridge, node.left_bridge[1:])):
            violations += 1
        if any(a > b for a, b in zip(node.right_bridge, node.right_bridge[1:])):
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


def build_style_rows(G, L, seed):
    """(leaf rows, rank) shaped as build() makes a group: real ids first, then phantoms.

    Member g holds 1..L distinct real ids out of n = G*L in any order, padded
    with the phantom ids n+m .. n+L-1; rank ranks the real ids in a random
    order and gives each phantom its own id as rank.
    """
    rnd = random.Random(seed)
    n = G * L
    rank = list(range(n))
    rnd.shuffle(rank)
    rank += range(n, n + L)
    rows = []
    for _ in range(G):
        m = rnd.randint(1, L)
        rows.append(rnd.sample(range(n), m) + list(range(n + m, n + L)))
    return rows, rank


class TestMergeRows:
    @pytest.mark.parametrize("G", [1, 3])
    @pytest.mark.parametrize("L", [1, 2, 8, 64])
    @pytest.mark.parametrize("bridges", [True, False])
    def test_equals_reference(self, G, L, bridges):
        rnd = random.Random(G * 1000 + L)
        H = L.bit_length() - 1
        R = 2 * H + 1 if bridges else H + 1
        rank = list(range(G * L))
        ids = list(range(G * L))
        rnd.shuffle(rank)
        rnd.shuffle(ids)
        merged = np.zeros((G, R, L), dtype=np.int32)
        merged[:, 0] = np.array(ids, dtype=np.int32).reshape(G, L)
        merge_rows(merged, array("i", rank))
        for g in range(G):
            rows, lbs = reference_merge(ids[g * L : (g + 1) * L], rank, H)
            assert merged[g, : H + 1].tolist() == rows
            if bridges:
                assert merged[g, H + 1 :].tolist() == lbs

    @pytest.mark.parametrize("G", [1, 3])
    @pytest.mark.parametrize("L", [1, 2, 8, 64])
    @pytest.mark.parametrize("bridges", [True, False])
    def test_identity_keys(self, G, L, bridges):
        # a cascade's entries are labels, its own keys: no rank table is passed
        rnd = random.Random(G * 1000 + L + 7)
        H = L.bit_length() - 1
        R = 2 * H + 1 if bridges else H + 1
        labels = list(range(G * L))
        rnd.shuffle(labels)
        merged = np.zeros((G, R, L), dtype=np.int32)
        merged[:, 0] = np.array(labels, dtype=np.int32).reshape(G, L)
        merge_rows(merged)
        for g in range(G):
            rows, lbs = reference_merge(labels[g * L : (g + 1) * L], range(G * L), H)
            assert merged[g, : H + 1].tolist() == rows
            if bridges:
                assert merged[g, H + 1 :].tolist() == lbs

    @pytest.mark.parametrize("G", [1, 2, 7])
    @pytest.mark.parametrize("L", [1, 2, 4, 32, 256, 4096])
    def test_build_style_rows(self, G, L):
        H = L.bit_length() - 1
        rows, rank = build_style_rows(G, L, seed=G * 10007 + L)
        leaf = np.array(rows, dtype=np.int32)
        bridged = np.zeros((G, 2 * H + 1, L), dtype=np.int32)
        bridged[:, 0] = leaf
        merge_rows(bridged, array("i", rank))
        plain = np.zeros((G, H + 1, L), dtype=np.int32)  # R = H+1: room for no bridge row
        plain[:, 0] = leaf
        merge_rows(plain, array("i", rank))
        assert bridged.dtype == plain.dtype == np.int32
        assert (bridged[:, 0] == leaf).all() and (plain[:, 0] == leaf).all()
        for g in range(G):
            want_rows, want_lbs = reference_merge(rows[g], rank, H)
            assert bridged[g, : H + 1].tolist() == want_rows
            assert bridged[g, H + 1 :].tolist() == want_lbs
            assert plain[g].tolist() == want_rows


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
        members = [s for _, s in tree.structures() if isinstance(s[0], CascadeStructure)]
        assert any(g > 0 for _, g in members)
        for cs, g in members:
            base = g * cs.words
            assert exhaustive_bridge_check(cs, g) == 0
            leaves = cs.buf[base : base + cs.L].tolist()
            real = [e for e in leaves if e < n]
            stored = real_points(tree.pointset, tree.ids, cs.node(0, g).ranks)
            assert sorted(p.id for p in stored) == sorted(tree.ids[e] for e in real)
            assert leaves[: len(real)] == real  # real labels first, then phantoms


class TestQuery2D:
    def test_basic_box(self):
        cs, ps, ids = make_cascade([(1, 1), (2, 2), (3, 3)])
        got = collect(cs, ps, ids, 1, 2, 1, 2)
        assert [(p.coords) for p in got] == [(1.0, 1.0), (2.0, 2.0)]

    def test_empty_y_range_still_one_search(self):
        cs, ps, ids = make_cascade([(1, 1), (2, 2), (3, 3)])
        stats = QueryStats()
        assert collect(cs, ps, ids, 0, 4, 10, 20, stats) == []
        assert stats.binary_searches == 1

    def test_one_search_law_random(self):
        rng = SplitMix64(77)
        cs, ps, ids = make_cascade([(rng.next_below(30), rng.next_below(30)) for _ in range(100)])
        for _ in range(500):
            xlo, xhi = rng.next_below(32) - 1, rng.next_below(32) - 1
            ylo, yhi = rng.next_below(32) - 1, rng.next_below(32) - 1
            stats = QueryStats()
            got = collect(cs, ps, ids, xlo, xhi, ylo, yhi, stats)
            assert stats.binary_searches == 1
            assert got == brute(ps, xlo, xhi, ylo, yhi)
            assert stats.reported == len(got)

    def test_oracle_agreement_with_duplicates(self):
        rng = SplitMix64(5)
        cs, ps, ids = make_cascade([(rng.next_below(4), rng.next_below(4)) for _ in range(64)])
        for xlo in (-0.5, 0.0, 1.0, 2.5, 3.0):
            for xhi in (-0.5, 1.0, 2.0, 3.0, 4.0):
                for ylo in (0.0, 0.5, 2.0, 3.0):
                    for yhi in (-1.0, 1.0, 2.5, 3.0):
                        got = collect(cs, ps, ids, xlo, xhi, ylo, yhi)
                        assert got == brute(ps, xlo, xhi, ylo, yhi)

    def test_positions_match_shadow_lower_bound(self, monkeypatch):
        # every bridged position at every canonical node and boundary leaf
        # equals an independent search: the query's one for ya, the count's
        # two for ya and yb; the walk's yields are observed on their way
        probes = []
        walk = layertree.cascade._walk

        def observed(*args):
            for row, p, lo, hi in walk(*args):
                probes.append((row, p, lo, hi))
                yield row, p, lo, hi

        def node_ranks(row, p):
            abase = row * cs.L + (p << row)  # member 0's node array at (row, p)
            return cs.buf[abase : abase + (1 << row)].tolist()  # labels are y ranks

        monkeypatch.setattr(layertree.cascade, "_walk", observed)
        rng = SplitMix64(123)
        cs, ps, ids = make_cascade([(rng.next_below(50), rng.next_below(50)) for _ in range(200)])
        seen = counted = 0
        for _ in range(200):
            xlo, xhi = sorted((rng.next_below(52) - 1, rng.next_below(52) - 1))
            ylo, yhi = rng.next_below(52) - 1, rng.next_below(52) - 1
            probes.clear()
            a, b = rank_args(cs, ps, xlo, xhi, ylo, 100.0)
            ya = a[1]
            cs.query(0, a, b, QueryStats(), lambda p: None)
            for row, p, q, hi in probes:
                assert q == bisect_left(node_ranks(row, p), ya) and hi is None
            seen += len(probes)
            probes.clear()
            a, b = rank_args(cs, ps, xlo, xhi, ylo, yhi)  # yhi < ylo in about half
            cs.count(0, a, b, QueryStats())
            for row, p, lo, hi in probes:
                ranks = node_ranks(row, p)
                assert (lo, hi) == (bisect_left(ranks, a[1]), bisect_left(ranks, b[1]))
            counted += len(probes)
        assert seen > 200 and counted > 200  # the wrapper observed both walks

    def test_count_matches_query(self):
        rng = SplitMix64(9)
        cs, ps, ids = make_cascade([(rng.next_below(10), rng.next_below(10)) for _ in range(90)])
        total_counts = QueryStats()
        for _ in range(300):
            xlo, xhi = rng.next_below(12) - 1, rng.next_below(12) - 1
            ylo, yhi = rng.next_below(12) - 1, rng.next_below(12) - 1
            stats = QueryStats()
            k = cs.count(0, *rank_args(cs, ps, xlo, xhi, ylo, yhi), stats)
            assert k == len(brute(ps, xlo, xhi, ylo, yhi))
            assert stats.binary_searches == 2
            total_counts.reported += k

    def test_phantoms_never_emitted(self):
        cs, ps, ids = make_cascade([(i, i % 3) for i in range(13)])  # pads to L=16
        got = collect(cs, ps, ids, -100, 100, -100, 100)
        assert got == ps.points
        assert all(p is not None for p in got)

    def test_boxes_via_boxed_interface(self):
        # the root takes the tree's rank box; a cascade reads its last two dimensions
        cs, ps, ids = make_cascade([(1, 4), (2, 3), (3, 2), (4, 1)])
        pts = ps.by_id
        box = QueryBox((1.5, 0.0), (4.0, 2.5))
        a, b = rank_args(cs, ps, 1.5, 4.0, 0.0, 2.5)
        labels = array("i")
        cs.query(0, a, b, QueryStats(), labels.extend)
        assert [pts[e] for e in sorted(ids[e] for e in labels)] == [
            p for p in pts if box_contains(box, p)]
        assert cs.count(0, a, b, QueryStats()) == 2

    def test_tree_view(self):
        # row 0 of the buffer is the x-tree's leaf row: increasing in x rank,
        # nondecreasing in x, real labels first
        cs, ps, ids = make_cascade([(3, 0), (1, 0), (2, 0)])
        pts = ps.by_id
        leaves = cs.buf[: cs.L].tolist()
        assert cs.L == 4 and sum(e < len(pts) for e in leaves) == 3
        ranks = [cs.rank_x[e] for e in leaves]
        assert ranks == sorted(ranks)
        xs = [pts[ids[e]].coords[0] for e in leaves[:3]]
        assert xs == [1.0, 2.0, 3.0]
        assert leaves[3] >= len(pts)
