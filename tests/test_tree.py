import gc
import math
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertree import (
    BuildCounters,
    DimensionMismatch,
    EmptyInput,
    GeneratorConfig,
    Point,
    PointSet,
    QueryBox,
    QueryStats,
    SplitMix64,
    brute_force_query,
    build,
    build_implicit_tree,
    canonical_subtrees,
    find_split_node,
    gen_points,
)
from layertree.core import high_key, low_key
from layertree.cascade import CascadeStructure
from layertree.tree import _Level, _Slab


def pts_1d(*values):
    return [Point((float(v),), i) for i, v in enumerate(values)]


class TestImplicitTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16, 31])
    def test_heap_index_laws(self, n):
        t = build_implicit_tree(pts_1d(*range(n)))
        L = t.leaf_count
        assert L == 1 << max(0, (n - 1).bit_length())
        assert t.n_slots == 2 * L - 1
        for slot in range(t.n_slots):
            for child in (2 * slot + 1, 2 * slot + 2):
                if child < t.n_slots:
                    assert (child - 1) // 2 == slot
            assert t.is_leaf(slot) == (L - 1 <= slot <= 2 * L - 2)

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_leaf_scan_nondecreasing_and_internal_keys(self, n):
        rnd = random.Random(n)
        t = build_implicit_tree(pts_1d(*(rnd.randrange(4) for _ in range(n))))
        L = t.leaf_count
        leaf_keys = [t.key(L - 1 + i) for i in range(L)]
        assert leaf_keys == sorted(leaf_keys)
        for slot in range(L - 1):
            lo, hi = t.leaf_span(2 * slot + 1)
            left_max = max(t.key(L - 1 + i) for i in range(lo, hi))
            assert t.key(slot) == left_max

    def test_phantoms_sit_rightmost(self):
        t = build_implicit_tree(pts_1d(5, 1, 3))
        assert t.leaf_count == 4
        assert [t.key(3 + i)[0] for i in range(4)] == [1.0, 3.0, 5.0, math.inf]


class TestFindSplitNode:
    # leaves [1,2,3,4]: root splits {1,2} | {3,4}
    def tree(self):
        return build_implicit_tree(pts_1d(1, 2, 3, 4))

    def test_range_2_3_splits_at_root(self):
        t = self.tree()
        assert find_split_node(t, low_key(2.0), high_key(3.0)) == 0

    def test_degenerate_range_splits_at_value_boundary(self):
        # with composite bounds, [1,1] diverges at the parent of the value-1
        # leaf; the canonical cover is still exactly that leaf
        t = self.tree()
        assert find_split_node(t, low_key(1.0), high_key(1.0)) == 1
        cover = canonical_subtrees(t, low_key(1.0), high_key(1.0))
        assert cover == [3]
        assert t.key(3)[0] == 1.0

    def test_range_above_all_leaves(self):
        t = self.tree()
        slot = find_split_node(t, low_key(5.0), high_key(9.0))
        assert t.is_leaf(slot)
        assert canonical_subtrees(t, low_key(5.0), high_key(9.0)) == []


class TestCanonicalSubtrees:
    def filtered(self, t, values, lo, hi):
        return sorted(v for v in values if lo <= v <= hi)

    def cover_values(self, t, slots):
        out = []
        for s in slots:
            out.extend(t.key(t.L - 1 + i)[0] for i in range(*t.leaf_span(s))
                       if t.key(t.L - 1 + i)[0] != math.inf)
        return sorted(out)

    def test_full_range_covers_everything(self):
        t = build_implicit_tree(pts_1d(1, 2, 3, 4))
        slots = canonical_subtrees(t, low_key(1.0), high_key(4.0))
        assert self.cover_values(t, slots) == [1.0, 2.0, 3.0, 4.0]

    def test_disjoint_range_is_empty(self):
        t = build_implicit_tree(pts_1d(1, 2, 3, 4))
        assert canonical_subtrees(t, low_key(5.0), high_key(9.0)) == []

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        st.integers(-1, 8),
        st.integers(-1, 8),
    )
    @settings(max_examples=200)
    def test_cover_equals_filter_and_bound(self, values, lo, hi):
        t = build_implicit_tree(pts_1d(*values))
        slots = canonical_subtrees(t, low_key(float(lo)), high_key(float(hi)))
        # disjointness
        spans = sorted(t.leaf_span(s) for s in slots)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2
        assert self.cover_values(t, slots) == self.filtered(t, values, lo, hi)
        assert len(slots) <= max(1, 2 * (t.leaf_count.bit_length() - 1))


def random_boxes(rng, d, span, count):
    boxes = []
    for _ in range(count):
        lo, hi = [], []
        for _ in range(d):
            a, b = rng.next_float() * span, rng.next_float() * span
            lo.append(min(a, b))
            hi.append(max(a, b))
        boxes.append(QueryBox(tuple(lo), tuple(hi)))
    return boxes


class TestBuild:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build(PointSet([], 2))

    def test_d1_is_padded_sorted_array(self):
        tree = build(PointSet.from_coords([(5,), (1,), (3,)]))
        slab = tree.root
        assert isinstance(slab, _Slab)
        assert slab.L == 4
        keys = [slab.ktab[e][0] for e in slab.ids]
        assert keys == [1.0, 3.0, 5.0, math.inf]

    def test_d2_example_structure(self):
        tree = build(PointSet.from_coords([(1, 1), (2, 2), (3, 3), (4, 4)]))
        cs = tree.root
        assert isinstance(cs, CascadeStructure)
        assert cs.node(0).y_values == [1.0, 2.0, 3.0, 4.0]
        assert cs.node(1).y_values == [1.0, 2.0]
        assert cs.node(2).y_values == [3.0, 4.0]
        assert cs.node(0).left_bridge == [0, 1, 2, 2]
        assert cs.node(0).right_bridge == [0, 0, 0, 1]
        for leaf in range(3, 7):
            assert len(cs.node(leaf).keys) == 1

    def test_shuffled_input_builds_identical_structure(self):
        ps = gen_points(GeneratorConfig(seed=21, n=60, dims=3))
        shuffled = list(ps.points)
        random.Random(8).shuffle(shuffled)
        t1 = build(ps)
        t2 = build(PointSet(shuffled, 3))

        def snapshot(tree):
            return sorted(
                (lvl, type(s).__name__, list(getattr(s, "buf", getattr(s, "ids", []))))
                for lvl, s in tree.structures()
            )

        assert snapshot(t1) == snapshot(t2)

    def test_level_assoc_holds_exact_subtree_points(self):
        ps = gen_points(GeneratorConfig(seed=4, n=23, dims=3, dist="grid", grid_side=3))
        tree = build(ps)
        level = tree.root
        assert isinstance(level, _Level)
        for slot in range(level.tree.n_slots):
            sub = level.assoc[slot]
            ids = level.tree.subtree_ids(slot)
            if not ids:
                assert sub is None
            else:
                assert sub.m == len(ids)
                got = []
                sub.query_into(
                    QueryBox((-10.0,) * 3, (10.0,) * 3), QueryStats(), got.append
                )
                assert sorted(p.id for p in got) == sorted(ids)


class TestQuery:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("dist,grid", [("uniform", 16), ("grid", 3)])
    def test_oracle_agreement(self, d, dist, grid):
        ps = gen_points(GeneratorConfig(seed=100 + d, n=220, dims=d, dist=dist, grid_side=grid))
        tree = build(ps)
        span = 1.0 if dist == "uniform" else float(grid)
        rng = SplitMix64(d * 7 + grid)
        stats = QueryStats()
        for box in random_boxes(rng, d, span, 120):
            got = tree.query(box, stats)
            want = brute_force_query(ps, box)
            assert got == want
            assert tree.count(box) == len(want)

    def test_empty_interval_box(self):
        ps = gen_points(GeneratorConfig(seed=5, n=64, dims=3))
        tree = build(ps)
        box = QueryBox((0.5, 0.2, 0.9), (0.4, 0.9, 1.0))
        assert tree.query(box) == []
        assert tree.count(box) == 0

    def test_bounding_box_reports_all_sorted_by_id(self):
        ps = gen_points(GeneratorConfig(seed=6, n=130, dims=2, dist="grid", grid_side=2))
        tree = build(ps)
        got = tree.query(QueryBox((-1.0, -1.0), (3.0, 3.0)))
        assert got == ps.by_id
        assert tree.count(QueryBox((-1.0, -1.0), (3.0, 3.0))) == 130

    def test_dimension_mismatch(self):
        tree = build(gen_points(GeneratorConfig(seed=1, n=4, dims=2)))
        with pytest.raises(DimensionMismatch):
            tree.query(QueryBox((0.0,), (1.0,)))
        with pytest.raises(DimensionMismatch):
            tree.count(QueryBox((0.0,) * 3, (1.0,) * 3))

    def test_stats_reported_matches_result_size(self):
        ps = gen_points(GeneratorConfig(seed=9, n=100, dims=2))
        tree = build(ps)
        stats = QueryStats()
        box = QueryBox((0.2, 0.2), (0.8, 0.8))
        got = tree.query(box, stats)
        assert stats.reported == len(got)
        cstats = QueryStats()
        tree.count(box, cstats)
        assert cstats.reported == len(got)


class TestSpaceAccounting:
    @pytest.mark.parametrize("d,n", [(1, 37), (2, 100), (3, 64), (4, 33)])
    def test_every_instance_stores_m_times_levels(self, d, n):
        ps = gen_points(GeneratorConfig(seed=n, n=n, dims=d))
        tree = build(ps)
        for _, s in tree.structures():
            if isinstance(s, CascadeStructure):
                assert s.real_entry_count() == s.m * (s.H + 1)
            elif isinstance(s, _Slab):
                assert s.real_entry_count() == s.m
            else:
                total = sum(sub.m if not isinstance(sub, _Level) else sub.tree.m
                            for sub in s.assoc if sub is not None)
                levels = s.tree.L.bit_length()
                assert total == s.tree.m * levels


# Counter totals of fixed workloads: (merge_moves, query QueryStats, count
# QueryStats) over 40 boxes.  The counters are the cost model, so a change to
# how the tree is built or walked must leave every one of them unchanged.
PINNED_COUNTERS = {
    (2, "uniform", 64): (384, (644, 40, 561, 273), (644, 80, 1122, 273)),
    (2, "uniform", 65): (896, (694, 40, 582, 327), (694, 80, 1164, 327)),
    (2, "uniform", 128): (896, (756, 40, 676, 704), (756, 80, 1352, 704)),
    (2, "uniform", 129): (2048, (818, 40, 708, 762), (818, 80, 1416, 762)),
    (2, "grid", 64): (384, (634, 40, 526, 239), (634, 80, 1052, 239)),
    (2, "grid", 65): (896, (617, 40, 474, 241), (617, 80, 948, 241)),
    (2, "grid", 128): (896, (657, 40, 508, 497), (657, 80, 1016, 497)),
    (2, "grid", 129): (2048, (774, 40, 650, 363), (774, 80, 1300, 363)),
    (3, "uniform", 64): (1728, (1254, 186, 347, 95), (1254, 372, 694, 95)),
    (3, "uniform", 65): (2695, (1358, 203, 379, 58), (1358, 406, 758, 58)),
    (3, "uniform", 128): (4480, (1968, 254, 772, 213), (1968, 508, 1544, 213)),
    (3, "uniform", 129): (6664, (1942, 231, 805, 260), (1942, 462, 1610, 260)),
    (3, "grid", 64): (1728, (1310, 224, 299, 86), (1310, 448, 598, 86)),
    (3, "grid", 65): (2695, (1018, 136, 188, 53), (1018, 272, 376, 53)),
    (3, "grid", 128): (4480, (1578, 223, 425, 136), (1578, 446, 850, 136)),
    (3, "grid", 129): (6664, (1493, 168, 484, 286), (1493, 336, 968, 286)),
    (4, "uniform", 64): (5312, (1585, 198, 54, 46), (1585, 396, 108, 46)),
    (4, "uniform", 65): (8078, (1412, 168, 19, 29), (1412, 336, 38, 29)),
    (4, "uniform", 128): (15232, (2380, 327, 100, 44), (2380, 654, 200, 44)),
    (4, "uniform", 129): (22032, (2623, 383, 161, 51), (2623, 766, 322, 51)),
    (4, "grid", 64): (5312, (1369, 168, 24, 26), (1369, 336, 48, 26)),
    (4, "grid", 65): (8078, (1004, 85, 29, 15), (1004, 170, 58, 15)),
    (4, "grid", 128): (15232, (2078, 259, 63, 26), (2078, 518, 126, 26)),
    (4, "grid", 129): (22032, (1973, 256, 80, 28), (1973, 512, 160, 28)),
}


class TestPinnedCounters:
    @pytest.mark.parametrize("d,dist,n", sorted(PINNED_COUNTERS))
    def test_counter_totals(self, d, dist, n):
        ps = gen_points(GeneratorConfig(seed=n + 10 * d, n=n, dims=d, dist=dist, grid_side=3))
        counters = BuildCounters()
        tree = build(ps, counters)
        span = 1.0 if dist == "uniform" else 3.0
        q, c = QueryStats(), QueryStats()
        for box in random_boxes(SplitMix64(n * d), d, span, 40):
            tree.query(box, q)
            tree.count(box, c)
        got = (counters.merge_moves, astuple(q), astuple(c))
        assert got == PINNED_COUNTERS[d, dist, n]


class TestBuildScratch:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_build_leaves_no_cyclic_garbage(self, d):
        # everything build allocates for itself is freed by reference counting
        ps = gen_points(GeneratorConfig(seed=d, n=300, dims=d))
        gc.collect()
        gc.disable()
        try:
            tree = build(ps)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert tree.n == 300
        assert garbage == 0


# finite extremes, signed zeros and the smallest subnormal, plus ordinary values
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, -1.0, 0.5, 1.0]


@st.composite
def fuzz_workload(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]))
    if draw(st.booleans()):
        value = st.integers(0, 2).map(float)  # a grid of side 3: heavy duplicates
    else:
        value = st.sampled_from(EDGE_VALUES) | st.floats(-2.0, 2.0)
    coord = st.tuples(*[value] * d)
    rows = draw(st.lists(coord, min_size=n, max_size=n))
    boxes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    return d, rows, boxes


class TestFuzz:
    @given(fuzz_workload())
    @settings(max_examples=150, deadline=None)
    def test_query_and_count_match_brute_force(self, workload):
        d, rows, boxes = workload
        ps = PointSet.from_coords(rows, d)
        tree = build(ps)
        for lo, hi in boxes:  # lo > hi in some dimension is a legal empty box
            box = QueryBox(lo, hi)
            want = brute_force_query(ps, box)
            stats = QueryStats()
            assert tree.query(box, stats) == want
            if d == 2:
                assert stats.binary_searches == 1
            k = tree.count(box)
            assert type(k) is int and k == len(want)
