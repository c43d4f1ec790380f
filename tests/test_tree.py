import gc
import hashlib
import importlib
import json
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layertree
from layertree import (
    BuildCounters,
    DimensionMismatch,
    EmptyInput,
    GeneratorConfig,
    PointSet,
    QueryBox,
    QueryStats,
    SplitMix64,
    TooManyPoints,
    brute_force_query,
    build,
    canonical_subtrees,
    gen_points,
)
from layertree.cascade import CascadeStructure, _find_split, pow2ceil, rank_tables
from layertree.core import composite_key
from layertree.tree import _Level, _Slab

import structure_dump


def level_tree(values):
    """A d=3 tree over the points (v, 0, 0); point i has id i."""
    return build(PointSet.from_coords([(v, 0, 0) for v in values]))


def root_level(values):
    """(root group, 0): member 0 of level_tree(values)."""
    return level_tree(values).root, 0


def row(member) -> array:
    """The leaf row of member g of a _Level group: L labels from g*L."""
    s, g = member
    return s.ids[g * s.L : (g + 1) * s.L]


def slot_labels(member, slot, n):
    """Real labels under heap slot `slot` of a level: its chunk of the leaf row, labels >= n cut."""
    level, _ = member
    depth = (slot + 1).bit_length() - 1
    span = level.L >> depth
    lo = (slot + 1 - (1 << depth)) * span
    return [e for e in row(member)[lo : lo + span] if e < n]


def split(member, a, b):
    level, g = member
    return _find_split(level.ids, level.rank, g * level.L, level.L, a, b, QueryStats())


def words(member) -> array:
    """A cascade's own (2H+1)*L words: member g of group cs, from base g*cs.words."""
    cs, g = member
    return cs.buf[g * cs.words : (g + 1) * cs.words]


def real_count(member, n) -> int:
    """A structure's real point count m: the labels < n in its leaf row."""
    leaves = words(member)[: member[0].L] if is_cascade(member) else row(member)
    return sum(1 for e in leaves if e < n)


def real_entry_count(member, n) -> int:
    """Real (non-phantom, < n) labels stored in a cascade's node-array rows."""
    cs, _ = member
    return sum(1 for e in words(member)[: cs.L * (cs.H + 1)] if e < n)


def is_cascade(member) -> bool:
    return isinstance(member[0], CascadeStructure)


def rank_bounds(values, lo, hi):
    """The ranks [a, b) of the interval [lo, hi] over `values`, as rank_box maps a box."""
    s = sorted(values)
    return bisect_left(s, lo), bisect_right(s, hi)


class TestPublicNames:
    # the package exports what the CLI, the benchmark and the laws use; the
    # rest is imported from its own module, not from the package
    def test_all_is_exactly_the_public_api(self):
        assert sorted(layertree.__all__) == [
            "BuildCounters", "DimensionMismatch", "EmptyInput", "GeneratorConfig",
            "LayeredRangeTree", "Point", "PointSet", "QueryBox", "QueryStats", "SplitMix64",
            "TooManyPoints", "brute_force_query", "build", "canonical_subtrees", "gen_points"]
        assert all(callable(getattr(layertree, name)) for name in layertree.__all__)

    @pytest.mark.parametrize("module,name", [("cascade", "CascadeNode"),
                                             ("cascade", "CascadeStructure"),
                                             ("core", "composite_key"),
                                             ("core", "box_contains"),
                                             ("oracle", "splitmix64_next")])
    def test_dropped_names_import_from_their_modules(self, module, name):
        assert callable(getattr(importlib.import_module(f"layertree.{module}"), name))
        assert not hasattr(layertree, name)


class TestLeafRow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16, 31])
    def test_heap_index_laws(self, n):
        # the slots are in heap order: 2L-1 slots, slot s covers the leaf-row
        # chunks of its children 2s+1 and 2s+2, and leaf slot L-1+i leaf i;
        # a slot with a structure holds exactly its chunk's points
        member = root_level(range(n))
        level, _ = member
        L = level.L
        assert L == pow2ceil(n) and len(level.first) == len(level.per) == L.bit_length()
        chunks = [slot_labels(member, slot, n) for slot in range(2 * L - 1)]
        for s in range(L - 1):
            assert chunks[s] == chunks[2 * s + 1] + chunks[2 * s + 2]
        for i in range(L):
            assert chunks[L - 1 + i] == ([level.ids[i]] if i < n else [])
        built = dict(level.slots(0))
        assert set(range(L - 1, L - 1 + n)) <= set(built)  # every real leaf
        for slot, sub in built.items():
            assert sorted(words(sub)[: real_count(sub, n)]) == sorted(chunks[slot])

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_leaf_scan_nondecreasing_and_internal_keys(self, n):
        rnd = random.Random(n)
        member = root_level([rnd.randrange(4) for _ in range(n)])
        level, _ = member
        ranks = [level.rank[e] for e in row(member)]
        assert ranks == sorted(ranks)
        # a node splits at the largest rank of its left subtree, and the
        # split search for that one rank stops at the node
        for depth in range(level.L.bit_length() - 1):
            span = level.L >> depth
            for pos in range(1 << depth):
                k = max(ranks[pos * span : pos * span + span // 2])
                assert split(member, k, k + 1) == (depth, pos)

    def test_phantoms_sit_rightmost(self):
        values = [5, 1, 3]
        tree = level_tree(values)
        member = tree.root, 0
        level, _ = member
        assert level.L == 4 and real_count(member, len(values)) == 3
        assert [level.rank[e] for e in level.ids[:3]] == [0, 1, 2]
        assert [values[tree.ids[e]] for e in slot_labels(member, 0, len(values))] == [1, 3, 5]
        assert level.rank[level.ids[3]] >= len(values)  # the phantom ranks after every point


class TestFindSplitNode:
    # leaves [1,2,3,4]: the root splits {1,2} | {3,4}
    VALUES = [1, 2, 3, 4]

    def test_range_2_3_splits_at_root(self):
        member = root_level(self.VALUES)
        assert split(member, *rank_bounds(self.VALUES, 2.0, 3.0)) == (0, 0)

    def test_degenerate_range_splits_at_value_boundary(self):
        # [1,1] is the ranks [0, 1): it diverges at the parent of the value-1
        # leaf; the canonical cover is still exactly that leaf
        tree = level_tree(self.VALUES)
        member = tree.root, 0
        assert split(member, *rank_bounds(self.VALUES, 1.0, 1.0)) == (1, 0)
        cover = canonical_subtrees(*member, *rank_bounds(self.VALUES, 1.0, 1.0))
        assert cover == [3]
        assert [tree.ids[e] for e in slot_labels(member, 3, len(self.VALUES))] == [0]

    def test_range_above_all_leaves(self):
        member = root_level(self.VALUES)
        depth, _ = split(member, *rank_bounds(self.VALUES, 5.0, 9.0))
        assert depth == member[0].L.bit_length() - 1  # a leaf
        assert canonical_subtrees(*member, *rank_bounds(self.VALUES, 5.0, 9.0)) == []


def check_cover(member, ids, column, lo, hi):
    """The canonical cover of [lo, hi] in level.dim (column: that coordinate by id).

    Its slots hold disjoint id sets whose union is the level's real ids in
    [lo, hi], and there are at most 2*log2(L) of them.  ids is the tree's
    id map, from the labels the slots hold.
    """
    level, g = member
    n = len(column)
    slots = canonical_subtrees(level, g, *rank_bounds(column, lo, hi))
    cover = [ids[e] for s in slots for e in slot_labels(member, s, n)]
    assert len(set(slots)) == len(slots) and len(set(cover)) == len(cover)
    assert sorted(cover) == sorted(ids[e] for e in slot_labels(member, 0, n)
                                   if lo <= column[ids[e]] <= hi)
    assert len(slots) <= max(1, 2 * (level.L.bit_length() - 1))


class TestCanonicalSubtrees:
    def test_full_range_covers_everything(self):
        member = root_level([1, 2, 3, 4])
        slots = canonical_subtrees(*member, *rank_bounds([1, 2, 3, 4], 1.0, 4.0))
        assert sorted(e for s in slots for e in slot_labels(member, s, 4)) == [0, 1, 2, 3]

    def test_disjoint_range_is_empty(self):
        member = root_level([1, 2, 3, 4])
        assert canonical_subtrees(*member, *rank_bounds([1, 2, 3, 4], 5.0, 9.0)) == []

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        st.integers(-1, 8),
        st.integers(-1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_cover_equals_filter_and_bound(self, values, lo, hi):
        tree = level_tree(values)
        check_cover((tree.root, 0), tree.ids, values, lo, hi)

    @given(
        st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=40),
        st.integers(-1, 4),
        st.integers(-1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_cover_below_the_root(self, rows, lo, hi):
        # below the root a level holds a subset of the points, so its real
        # labels run past its own point count m
        tree = build(PointSet.from_coords(rows))
        lower = [s for depth, s in tree.structures() if depth > 0 and isinstance(s[0], _Level)]
        assert lower
        for member in lower:
            check_cover(member, tree.ids, [r[member[0].dim] for r in rows], lo, hi)


class TestReachableSlots:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("dist", ["uniform", "grid"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33])
    def test_structures_are_exactly_the_canonical_slots(self, d, dist, n):
        # over every rank interval 0 <= a <= b <= n, the slots canonical_subtrees
        # returns for a level member are exactly the ones with a structure, and
        # each holds exactly its chunk's points; the slots of all members map
        # one to one onto the members of the next dimension's groups
        tree = build(gen_points(GeneratorConfig(seed=n + d, n=n, dims=d, dist=dist, grid_side=3)))
        everything = ((0,) * d, (n,) * d)
        levels = [s for _, s in tree.structures() if isinstance(s[0], _Level)]
        assert levels
        held = {}
        for member in levels:
            level, g = member
            reached = set()
            for a in range(n + 1):
                for b in range(a, n + 1):
                    reached.update(canonical_subtrees(level, g, a, b))
            built = dict(level.slots(g))
            assert set(built) == reached
            for slot, (group, h) in built.items():
                got = array("i")
                group.query(h, *everything, QueryStats(), got.extend)
                assert sorted(got) == sorted(slot_labels(member, slot, n))
                held.setdefault(id(group), (group, []))[1].append(h)
        for group, members in held.values():
            size = (len(group.buf) // group.words if isinstance(group, CascadeStructure)
                    else len(group.ids) // group.L)
            assert sorted(members) == list(range(size))


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

    @pytest.mark.parametrize("n", [2**30, 2**30 + 1, 2**31])
    def test_ids_beyond_int32_are_refused_before_allocating(self, n):
        # n + pow2ceil(n) ids and ranks must fit in int32; the stub has only a
        # length, so build must refuse it before it reads or allocates anything
        class Huge:
            def __len__(self):
                return n

        with pytest.raises(TooManyPoints):
            build(Huge())

    def test_d1_is_the_rank_order(self):
        # the d=1 tree's labels are its ranks, so it keeps nothing: the id map
        # is the coordinate's order, unpadded, and a query is the label range
        # between rank_box's bisections: no search inside the structure
        ps = PointSet.from_coords([(5,), (1,), (3,), (1,), (8,)])
        tree = build(ps)
        slab = tree.root
        assert isinstance(slab, _Slab) and slab.__slots__ == ()
        assert isinstance(tree.ids, array) and tree.ids.typecode == "i"
        assert tree.ids.tolist() == [1, 3, 2, 0, 4]
        for lo, hi in ((0, 9), (1, 3), (2, 4), (9, 10), (4, 2), (1, 1)):
            box = QueryBox((lo,), (hi,))
            k = len(brute_force_query(ps, box))
            q, c = QueryStats(), QueryStats()
            assert len(tree.query(box, q)) == k and tree.count(box, c) == k
            assert astuple(q) == astuple(c) == (0, 0, 0, k)

    def test_d2_example_structure(self):
        tree = build(PointSet.from_coords([(1, 1), (2, 2), (3, 3), (4, 4)]))
        cs = tree.root
        assert isinstance(cs, CascadeStructure)
        ys = tree.pointset.coord_matrix()[:, cs.ydim].tolist()  # all 4 labels are real
        assert [ys[tree.ids[e]] for e in cs.node(0).ranks] == [1.0, 2.0, 3.0, 4.0]
        assert [ys[tree.ids[e]] for e in cs.node(1).ranks] == [1.0, 2.0]
        assert [ys[tree.ids[e]] for e in cs.node(2).ranks] == [3.0, 4.0]
        assert cs.node(0).left_bridge == [0, 1, 2, 2]
        assert cs.node(0).right_bridge == [0, 0, 0, 1]
        for leaf in range(3, 7):
            assert len(cs.node(leaf).ranks) == 1

    def test_shuffled_input_builds_identical_structure(self):
        ps = gen_points(GeneratorConfig(seed=21, n=60, dims=3))
        shuffled = list(ps.points)
        random.Random(8).shuffle(shuffled)
        t1 = build(ps)
        t2 = build(PointSet(shuffled, 3))

        def snapshot(tree):
            return sorted(
                (lvl, type(s[0]).__name__, list(words(s) if is_cascade(s) else row(s)))
                for lvl, s in tree.structures()
            )

        assert snapshot(t1) == snapshot(t2)

    def test_level_assoc_holds_exact_subtree_points(self):
        # every level of a d=3 and a d=4 tree; below the root, real labels
        # run past a level's own point count m
        for cfg in (GeneratorConfig(seed=4, n=23, dims=3, dist="grid", grid_side=3),
                    GeneratorConfig(seed=3, n=40, dims=4)):
            tree = build(gen_points(cfg))
            everything = ((0,) * cfg.dims, (cfg.n,) * cfg.dims)
            levels = [s for _, s in tree.structures() if isinstance(s[0], _Level)]
            assert len(levels) > (cfg.dims == 4)
            for member in levels:
                for slot, sub in member[0].slots(member[1]):
                    labels = slot_labels(member, slot, cfg.n)
                    assert labels and real_count(sub, cfg.n) == len(labels)
                    got = array("i")  # the structures emit runs of labels
                    group, g = sub
                    group.query(g, *everything, QueryStats(), got.extend)
                    assert sorted(got) == sorted(labels)


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
        groups = {}
        for _, s in tree.structures():
            if is_cascade(s):
                cs, g = s
                assert real_entry_count(s, n) == real_count(s, n) * (cs.H + 1)
                # H+1 node-array rows and H left-bridge rows, no right bridges,
                # at [base, base + (2H+1)L) of the group's array
                assert cs.words == (2 * cs.H + 1) * cs.L
                groups.setdefault(id(cs), (cs, []))[1].append((g * cs.words, cs.words))
            elif isinstance(s[0], _Slab):
                assert sorted(tree.ids) == list(range(n))  # each point once, no padding
            else:
                # the m*levels law, summed over the slots that have a structure:
                # each holds its chunk's m points, and m*levels bounds the sum
                built = list(s[0].slots(s[1]))
                total = sum(real_count(sub, n) for _, sub in built)
                assert total == sum(len(slot_labels(s, slot, n)) for slot, _ in built)
                assert total <= real_count(s, n) * s[0].L.bit_length()
        # the members of one group tile its array("i") with no slack
        for cs, runs in groups.values():
            assert isinstance(cs.buf, array) and cs.buf.typecode == "i"
            assert len(runs) == len(cs.buf) // cs.words  # every member is reached
            runs.sort()
            assert [b for b, _ in runs] == [0] + [b + w for b, w in runs[:-1]]
            assert sum(w for _, w in runs) == len(cs.buf)


    def test_one_object_per_cascade_group(self):
        # a cascade is a (group, index) pair: build makes one CascadeStructure
        # per merge group, at most one per padded size L, not one per cascade
        ps = gen_points(GeneratorConfig(seed=5, n=3000, dims=3, dist="grid", grid_side=14))
        gc.collect()
        before = sum(isinstance(o, CascadeStructure) for o in gc.get_objects())
        tree = build(ps)
        gc.collect()
        live = sum(isinstance(o, CascadeStructure) for o in gc.get_objects()) - before
        members = [s for _, s in tree.structures() if is_cascade(s)]
        groups = {id(cs) for cs, _ in members}
        assert live == len(groups) <= pow2ceil(3000).bit_length()
        assert len(members) > 3000

    def test_one_object_per_level_group(self):
        # a level tree is a (group, member) pair too: at d=4, dimension 0 is
        # the root, a group of one, and dimension 1 has at most one _Level
        # group per padded size L, not one object per level tree
        n = 2000
        ps = gen_points(GeneratorConfig(seed=6, n=n, dims=4))
        gc.collect()
        before = sum(isinstance(o, _Level) for o in gc.get_objects())
        tree = build(ps)
        gc.collect()
        live = sum(isinstance(o, _Level) for o in gc.get_objects()) - before
        levels = [(depth, s) for depth, s in tree.structures() if isinstance(s[0], _Level)]
        by_dim = [{id(s) for depth, (s, _) in levels if depth == j} for j in (0, 1)]
        assert live == len(by_dim[0]) + len(by_dim[1])
        assert len(by_dim[0]) == 1 and len(by_dim[1]) <= pow2ceil(n).bit_length()
        assert len(levels) > n

    def test_level_rows_have_no_slack(self):
        # each level group's leaf rows are sized exactly: no array growth slack
        ps = gen_points(GeneratorConfig(seed=6, n=2000, dims=4))
        tree = build(ps)
        groups = {id(s): s for _, (s, _) in tree.structures() if isinstance(s, _Level)}
        assert len(groups) > 1
        empty = sys.getsizeof(array("i"))
        for level in groups.values():
            assert sys.getsizeof(level.ids) == empty + level.ids.itemsize * len(level.ids)

    def test_slab_ids_have_no_slack(self):
        # the id map, the last dimension's order (at d = 1 the rank order the
        # slab kept), is sized exactly at every dimension
        n = 1000
        for d in (1, 2, 3, 4):
            tree = build(gen_points(GeneratorConfig(seed=6, n=n, dims=d)))
            assert isinstance(tree.root, _Slab) == (d == 1)
            assert len(tree.ids) == n
            assert sys.getsizeof(tree.ids) == sys.getsizeof(array("i")) + 4 * n

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_last_dimension_table(self, d):
        # every rank table a structure holds is one of dimensions 0 .. d-2,
        # and a cascade's node arrays ascend in their labels, which bisect_left
        # on the buffer relies on
        ps = gen_points(GeneratorConfig(seed=7, n=70, dims=d, dist="grid", grid_side=3))
        tree = build(ps)
        _, _, ranks, _ = rank_tables(ps.coord_matrix(), pow2ceil(len(ps)))
        assert len(ranks) == d - 1
        held = {}
        for _, (s, g) in tree.structures():
            if isinstance(s, _Slab):
                assert s.__slots__ == ()
            elif isinstance(s, _Level):
                held[id(s.rank)] = (s.dim, s.rank)
            else:
                assert not hasattr(s, "rank_y") and (s.xdim, s.ydim) == (d - 2, d - 1)
                held[id(s.rank_x)] = (s.xdim, s.rank_x)
                for slot in range(2 * s.L - 1):
                    labels = s.node(slot, g).ranks
                    assert all(u < v for u, v in zip(labels, labels[1:]))
        assert sorted(dim for dim, _ in held.values()) == list(range(d - 1))
        for dim, table in held.values():
            assert table == ranks[dim]


class TestStructureDump:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_smallest_cases(self, d):
        # the differential dump (tests/structure_dump.py) on its smallest
        # cases: it runs, it is JSON, and its answers are the oracle's
        for dist in structure_dump.DISTS:
            got = json.loads(json.dumps(structure_dump.dump_case(d, dist, 1)))
            ps = structure_dump.case_points(d, dist, 1)
            boxes = structure_dump.case_boxes(d, dist, 1)
            assert len(boxes) == structure_dump.BOXES
            assert got["answers"] == [[list(map(structure_dump.hit, brute_force_query(ps, box))),
                                       len(brute_force_query(ps, box))] for box in boxes]
            assert [kind for _, kind, _ in got["structures"]][0] == (
                "_Slab" if d == 1 else "CascadeStructure" if d == 2 else "_Level")
            assert got["query_stats"][3] == got["count_stats"][3] == sum(
                k for _, k in got["answers"])

    def test_compare_flags_only_answers_and_stats(self):
        # the CI check against the base commit: a layout change (structures,
        # merge_moves) passes; a changed answer or counter, or a lost case, fails
        base = json.loads(json.dumps([structure_dump.dump_case(3, "grid", n) for n in (1, 2)]))
        head = json.loads(json.dumps(base))
        head[0]["structures"], head[0]["merge_moves"] = [], -1
        assert structure_dump.compare(base, head) == []
        head[0]["count_stats"][0] += 1
        head[1]["answers"] = []
        assert structure_dump.compare(base, head) == [
            "[3, 'grid', 1]: count_stats differ", "[3, 'grid', 2]: answers differ"]
        assert structure_dump.compare(base, head[:1]) == [
            "[3, 'grid', 1]: count_stats differ", "[3, 'grid', 2]: missing"]


def buffer_digest(tree) -> str:
    """sha256 of every structure's expanded buffer (leaf row of a level) as ints, in structures() order."""
    h = hashlib.sha256()
    for _, s in tree.structures():
        h.update(repr(structure_dump.structure_row(*s, tree.ids)).encode())
    return h.hexdigest()


# Counter totals of fixed workloads: (merge_moves, query QueryStats, count
# QueryStats) over 40 boxes, and the buffer_digest of the built tree.  The
# QueryStats are the cost model: a change to how the tree is built or walked
# must leave them unchanged.  merge_moves and the digest pin the layout, so
# they change only with it: at d >= 3 they follow which level slots have a
# structure, and merge_moves is H*m summed over the level members plus
# G*L*H per cascade group.
PINNED_COUNTERS = {
    (2, "uniform", 64): (384, (644, 40, 561, 273), (644, 80, 1122, 273),
        "b1992f4673764f981e59c4c8b459b1028066a622ce52b03c90e20bcfa3dd0579"),
    (2, "uniform", 65): (896, (694, 40, 582, 327), (694, 80, 1164, 327),
        "be9548c3b40bbfefde4d2c6036c9c23cd610fc65cc221b49281b517e28f681f2"),
    (2, "uniform", 128): (896, (756, 40, 676, 704), (756, 80, 1352, 704),
        "806c4cc33b7ffa60772cffde3cfa3cd34099f0c129f3a81c97ac8b592497fd70"),
    (2, "uniform", 129): (2048, (818, 40, 708, 762), (818, 80, 1416, 762),
        "ead4b3e856e2a95ec8a196797ef78eb56ecf6edf31523f5d5cab082cc90ec641"),
    (2, "grid", 64): (384, (634, 40, 526, 239), (634, 80, 1052, 239),
        "907a6cf962f7890ae1eee11fdc2885a72f66069f4e74a9cefe68f91b31fc06c5"),
    (2, "grid", 65): (896, (617, 40, 474, 241), (617, 80, 948, 241),
        "8d36788897140ece443b7579ba661fadebb975337364d998bd55e4069454dcaf"),
    (2, "grid", 128): (896, (657, 40, 508, 497), (657, 80, 1016, 497),
        "47a9ab5d34ffc16ae5dd6eb304bb065bdde76488efde03becb8347c02ef11a80"),
    (2, "grid", 129): (2048, (774, 40, 650, 363), (774, 80, 1300, 363),
        "8cbc8ccbd9f17e99ccbb9edc9ca865eb9066aa2da24df2d32806de3d7f385c67"),
    (3, "uniform", 64): (828, (1254, 186, 347, 95), (1254, 372, 694, 95),
        "1a8541ba43a44731760b6bd8843598986412eea5dec45ad08903efd446124d75"),
    (3, "uniform", 65): (1157, (1358, 203, 379, 58), (1358, 406, 758, 58),
        "8fe82f902f790d187359a63bee62865ad6780696b74a26acede056dc689f6c8d"),
    (3, "uniform", 128): (2300, (1968, 254, 772, 213), (1968, 508, 1544, 213),
        "f0fa2dd3d259c87153d0e05706ff139e859942fcdb3e895d8e2f66aff8bb52b3"),
    (3, "uniform", 129): (3078, (1942, 231, 805, 260), (1942, 462, 1610, 260),
        "a1c78efdb1207e827232db7871cab93ae5d7c3492c541d616ba36502d7270a30"),
    (3, "grid", 64): (828, (1310, 224, 299, 86), (1310, 448, 598, 86),
        "9fdabb386cbf97b01538a91480a6697a0e85c1babffb77bed0e2a93b64bdbee1"),
    (3, "grid", 65): (1157, (1018, 136, 188, 53), (1018, 272, 376, 53),
        "f73718f3d80e9f1534ac174ba99c2ed80b8e63ce9d8448a377dd5471f45cb66a"),
    (3, "grid", 128): (2300, (1578, 223, 425, 136), (1578, 446, 850, 136),
        "8a79d3bf1f3e842f8005f814709b6232332a0a8a51cc3fd14308e9af28f17430"),
    (3, "grid", 129): (3078, (1493, 168, 484, 286), (1493, 336, 968, 286),
        "c75dac8ce42d52218caa5e6122518d168193fc0b77ddf96b1a0e17a80ead3b19"),
    (4, "uniform", 64): (908, (1585, 198, 54, 46), (1585, 396, 108, 46),
        "a6c57bd0955c203fbd3968089f80a4bb5c5857edf54cd6041442e097f2137ad9"),
    (4, "uniform", 65): (1393, (1412, 168, 19, 29), (1412, 336, 38, 29),
        "5a9a6da5b8df4b7b012a9ecd26c623bc5d1739fb5a8fdc81a5df5af11a817a03"),
    (4, "uniform", 128): (2772, (2380, 327, 100, 44), (2380, 654, 200, 44),
        "999e7fd3ae2bbf78a2c26d4533e825a5ccaf835a4580e596b64cc20f2189bbfd"),
    (4, "uniform", 129): (4150, (2623, 383, 161, 51), (2623, 766, 322, 51),
        "4b7d9a7abf49cb4f1530f893d04c638004bcca7500a3d0bb5469774415e102c3"),
    (4, "grid", 64): (908, (1369, 168, 24, 26), (1369, 336, 48, 26),
        "62d59e13e7fabc0b6fa77d8ffc1f8f0280ae1ac8f797c6f8ed31dcf50ffa80ca"),
    (4, "grid", 65): (1393, (1004, 85, 29, 15), (1004, 170, 58, 15),
        "2af5cc760e8e905950357a3eaf65ffac925f3b1d976bea87918a614e5af89f1e"),
    (4, "grid", 128): (2772, (2078, 259, 63, 26), (2078, 518, 126, 26),
        "d9884bead111c70e13652fe55648c3bc053f21e89e20d6f220958d7053d5c78f"),
    (4, "grid", 129): (4150, (1973, 256, 80, 28), (1973, 512, 160, 28),
        "6f14496c703847344db075736473bc9b2d02f8e0232ea1511f2ce57774254ced"),
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
        got = (counters.merge_moves, astuple(q), astuple(c), buffer_digest(tree))
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


@st.composite
def fuzz_workload(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]))
    if draw(st.booleans()):
        value = st.integers(0, 2).map(float)  # a grid of side 3: heavy duplicates
    else:
        value = st.sampled_from(structure_dump.EDGE_VALUES) | st.floats(-2.0, 2.0)
    coord = st.tuples(*[value] * d)
    rows = draw(st.lists(coord, min_size=n, max_size=n))
    boxes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    return d, rows, boxes


class TestRankTable:
    @given(fuzz_workload(), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_order_is_composite_order(self, workload, rnd):
        d, rows, _ = workload
        shuffled = list(PointSet.from_coords(rows, d).points)
        rnd.shuffle(shuffled)  # given in any order, the matrix rows are still ids
        ps = PointSet(shuffled, d)
        pts, n = ps.by_id, len(rows)
        ids, row, ranks, axes = rank_tables(ps.coord_matrix(), pow2ceil(n))
        want = [sorted(range(n), key=lambda i: composite_key(pts[i], j)) for j in range(d)]
        assert ids.tolist() == want[-1]  # a label is the last dimension's rank
        assert row.tolist() == [want[-1].index(i) for i in want[0]]
        assert len(ranks) == d - 1
        for j in range(d - 1):
            assert list(ranks[j]) == [want[j].index(ids[v]) for v in range(n)] + list(
                range(n, n + pow2ceil(n)))
        for j in range(d):
            assert list(axes[j]) == [pts[i].coords[j] for i in want[j]]


def edge_rows(kind, d, n):
    """n rows of d coordinates for the deterministic rank-table cases.

    "zeros": -0.0 and 0.0 only, both in every column once n >= 2;
    "identical": one row n times, -0.0 included; "extremes": the smallest
    subnormals and largest finite floats of both signs, with the zeros.
    """
    if kind == "identical":
        return [[-0.0, 1.7e308, 5e-324, 0.0][:d]] * n
    pool = {"zeros": [0.0, -0.0],
            "extremes": [5e-324, -5e-324, 1.7e308, -1.7e308, 0.0, -0.0]}[kind]
    rng = SplitMix64(1009 * d + n)
    rows = [[pool[rng.next_below(len(pool))] for _ in range(d)] for _ in range(n)]
    if n >= 2:
        rows[0], rows[1] = [-0.0] * d, [0.0] * d
    return rows


class TestRankTableEdges:
    @pytest.mark.parametrize("kind", ["zeros", "identical", "extremes"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 65])
    def test_tables_follow_composite_key(self, kind, d, n):
        ps = PointSet.from_coords(edge_rows(kind, d, n), d)
        pts, L = ps.by_id, pow2ceil(n)
        ids, row, ranks, axes = rank_tables(ps.coord_matrix(), L)
        assert len(ranks) == d - 1 and len(axes) == d
        want = [sorted(range(n), key=lambda i: composite_key(pts[i], j)) for j in range(d)]
        where = [{i: v for v, i in enumerate(w)} for w in want]
        assert ids.typecode == "i" and ids.tolist() == want[-1]
        assert row.dtype == np.int32 and row.tolist() == [where[-1][i] for i in want[0]]
        for j, rank in enumerate(ranks):
            assert rank.typecode == "i"
            assert list(rank) == [where[j][ids[v]] for v in range(n)] + list(range(n, n + L))
        for j, axis in enumerate(axes):
            # float.hex tells -0.0 from 0.0: each slot holds its own point's coordinate
            assert [x.hex() for x in axis] == [pts[i].coords[j].hex() for i in want[j]]


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
