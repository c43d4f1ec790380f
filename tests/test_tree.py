import ast
import gc
import hashlib
import importlib
import inspect
import json
import math
import random
import subprocess
import sys
import types
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import astuple, fields
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layertree
from layertree import (
    BuildCounters,
    DimensionMismatch,
    GeneratorConfig,
    Point,
    PointSet,
    QueryBox,
    QueryStats,
    TooManyPoints,
    brute_force_query,
    build,
    canonical_subtrees,
    gen_points,
)
from layertree.cascade import CascadeStructure, _walk, merge_rows, pow2ceil, rank_tables
from layertree.tree import GATHER_MIN, _Level, _reachable, _Slab

import structure_dump
from structure_dump import (SplitMix64, all_nodes, bridge_rows, collect, composite_key,
                            every_point, leaf_labels, leaf_ranks, leaf_row, members,
                            model_checked, node, order_row, slots, split_node, structures,
                            subtree, walk_counters, walk_model, words)


def level_tree(values):
    """A d=3 tree over the points (v, 0, 0); point i has id i."""
    return build(PointSet.from_coords([(v, 0, 0) for v in values]))


def root_level(values):
    """(root group, 0): member 0 of level_tree(values)."""
    return level_tree(values).root, 0


def walked(member, u, v) -> tuple:
    """A level member's _walk of leaf positions [u, v): yields and walk_counters, as walk_model's."""
    stats = QueryStats()
    got = list(_walk(*member, u, v, None, None, stats)), walk_counters(stats)
    assert got == walk_model(*member, u, v), (u, v)
    return got


def positions(tree, member, a, b) -> tuple:
    """A member's leaf positions of the ranks [a, b) in its own dimension: split_node's.

    At the root they are the ranks themselves (for b <= L), which the tree
    hands it; below it the level above places them (check_place checks
    _Level.reached against split_node).
    """
    pa, pb = split_node(leaf_ranks(*member), a, b)[:2]
    if member[0] is tree.root:
        assert (pa, pb) == (min(a, b), b)
        return a, b
    return pa, pb


def check_place(tree, n) -> int:
    """_Level.reached against split_node for every member below the root and every 0 <= a, b <= n.

    Each such member is the structure of a node (r, pos) of a level
    member, and reached is called over that node's own leaf range, with
    the leaf before it when r > 0, [pos*2^r - 1, (pos+1)*2^r): the range
    then splits above the node's parent, whose path to the bound outside
    the node enters it and takes the node as canonical.  For rank bounds
    [a, b) in the level's next dimension, reached yields each canonical
    node's structure with split_node's leaf positions of its leaf ranks
    when they hold a leaf, and skips it otherwise; a node that an earlier
    range took as canonical was checked there.  The range's decomposition
    does not depend on [a, b), so reached gets canonical_subtrees' list,
    made once per range.  Returns how many members were checked.
    """
    checked = 0
    for _, (level, g) in structures(tree):
        if not isinstance(level, _Level):
            continue
        j = level.dim + 1
        built = dict(slots(level, g))
        todo = set(built)
        while todo:
            r, pos = min(todo)
            u, v = (pos << r) - (r > 0), (pos + 1) << r
            nodes = canonical_subtrees(level, g, u, v, QueryStats())
            assert (r, pos) in nodes
            # split_node's pb for each bound b, per canonical node's structure:
            # its pa for a is min(pb(a), pb(b))
            tables = [(*built[node], [split_node(leaf_ranks(*built[node]), 0, x)[1]
                                      for x in range(n + 1)]) for node in nodes]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(layertree.tree, "canonical_subtrees", lambda *_: nodes)
                for a in range(n + 1):
                    for b in range(n + 1):
                        got = list(level.reached(g, u, v, (a,) * (j + 1), (b,) * (j + 1), None))
                        want = [(s, h, min(pb[a], pb[b]), pb[b]) for s, h, pb in tables]
                        assert got == [w for w in want if w[2] < w[3]], (a, b)
            checked += len(todo & set(nodes))
            todo -= set(nodes)
    return checked


def real_count(member, n) -> int:
    """A structure's real point count m: its leaf keys < n (below the root, all of them)."""
    return sum(1 for e in leaf_row(*member) if e < n)


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
            "LayeredRangeTree", "Point", "PointSet", "QueryBox", "QueryStats",
            "TooManyPoints", "brute_force_query", "build", "canonical_subtrees", "gen_points"]
        assert all(callable(getattr(layertree, name)) for name in layertree.__all__)

    def test_from_coords_is_the_one_way_in(self):
        # a PointSet takes no Points: it is made from coordinates only, and a
        # Point is a plain result record with no per-instance dict
        with pytest.raises(TypeError):
            PointSet([], 2)
        ps = PointSet.from_coords([(1.0, 2.0)])
        (p,) = brute_force_query(ps, QueryBox((0.0, 0.0), (1.0, 2.0)))
        assert type(p).__slots__ == ("coords", "id") and not hasattr(p, "__dict__")

    def test_a_point_is_only_a_query_result(self):
        # a point set turns ids into Points for the two answers only, and a
        # Point is its coordinates and id, nothing more
        assert not [name for name in ("point", "take", "points", "__iter__")
                    if hasattr(PointSet, name)]
        assert [f.name for f in fields(Point)] == ["coords", "id"]
        assert not hasattr(Point, "dims")
        # the one maker: the package's one Point(...) call is in PointSet._points
        def point_calls(node) -> int:
            return sum(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Point"
                       for call in ast.walk(node))

        trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"layertree.{name}")))
                 for name in ("cascade", "cli", "core", "io", "oracle", "tree")}
        (maker,) = [f for f in ast.walk(trees["core"])
                    if isinstance(f, ast.FunctionDef) and f.name == "_points"]
        assert sum(map(point_calls, trees.values())) == point_calls(maker) == 1

    def test_no_knob_that_no_caller_needs(self):
        # a point set's dimension is its rows' width, every caller of
        # canonical_subtrees passes its stats, and one loop of _Level finds
        # the structures a box reaches: tree.py decomposes once, in
        # reached, which places each node by two bisects of its own
        assert list(inspect.signature(PointSet.from_coords).parameters) == ["coords"]
        stats = inspect.signature(canonical_subtrees).parameters["stats"]
        assert stats.default is inspect.Parameter.empty
        source = ast.parse(inspect.getsource(layertree.tree))
        called = [call.func.id for call in ast.walk(source)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]
        assert called.count("canonical_subtrees") == 1
        (reached,) = [f for f in ast.walk(source)
                      if isinstance(f, ast.FunctionDef) and f.name == "reached"]
        in_reached = [getattr(c.func, "id", None) for c in ast.walk(reached)
                      if isinstance(c, ast.Call)]
        assert in_reached.count("canonical_subtrees") == 1
        assert in_reached.count("bisect_left") == called.count("bisect_left") == 2

    @pytest.mark.parametrize("module,name", [("cascade", "CascadeStructure")])
    def test_dropped_names_import_from_their_modules(self, module, name):
        assert callable(getattr(importlib.import_module(f"layertree.{module}"), name))
        assert not hasattr(layertree, name)

    @pytest.mark.parametrize("name", ["CascadeNode", "composite_key", "box_contains", "node",
                                      "SplitMix64", "splitmix64_next", "structures", "slots",
                                      "walk_model"])
    def test_test_only_names_left_the_package(self, name):
        # only tests read them (tests/structure_dump.py): no package module or class has them
        modules = [layertree] + [importlib.import_module(f"layertree.{m}") for m in
                                 ("cascade", "cli", "core", "io", "oracle", "tree")]
        owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
        assert not [o for o in owners if hasattr(o, name)]
        assert callable(getattr(structure_dump, name))


class TestLeafRow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16, 31])
    def test_heap_index_laws(self, n):
        # 2L-1 nodes (r, p): chunk(r, p) = chunk(r-1, 2p) + chunk(r-1, 2p+1),
        # and chunk(0, i) is leaf i; a node with a structure holds exactly its
        # chunk's points, and slots() lists them rows H..0, positions ascending
        member = root_level(range(n))
        level, _ = member
        L = level.L
        assert L == pow2ceil(n) and len(level.first) == len(level.per) == L.bit_length()
        nodes = all_nodes(L)
        assert len(nodes) == 2 * L - 1
        chunks = {(r, p): subtree(*member, r, p, n) for r, p in nodes}
        for r, p in nodes:
            if r > 0:
                assert chunks[r, p] == chunks[r - 1, 2 * p] + chunks[r - 1, 2 * p + 1]
        # the root's leaf keys are its positions; its points (i, 0, 0) sort
        # by id in every dimension, so leaf i holds label i
        assert level.rows[0] == range(min(n + 1, L))
        for i in range(L):
            assert chunks[0, i] == ([i] if i < n else [])
        built = dict(slots(level, 0))
        assert list(built) == [at for at in nodes if at in built]
        assert {(0, i) for i in range(n)} <= set(built)  # every real leaf
        for at, sub in built.items():
            assert sorted(words(*sub)[: real_count(sub, n)]) == sorted(chunks[at])

    @staticmethod
    def check_leaf_scan(tree, member):
        level, _ = member
        ranks = leaf_ranks(*member)
        assert ranks == sorted(ranks)
        # a node splits after the rightmost leaf of its left subtree, which
        # holds the largest rank there; the one rank is that leaf alone, whose
        # split node is the node, and the walk, as the model, covers it by the
        # leaf after H - r + 1 visits down to the node and r down each path
        H = level.L.bit_length() - 1
        for r in range(1, H + 1):
            for pos in range(level.L >> r):
                mid = (2 * pos + 1) << (r - 1)
                k = max(ranks[pos << r : mid])
                assert split_node(ranks, k, k + 1) == (mid - 1, mid, r, pos)
                want = [(0, mid - 1, None, None)], (H + 1 + r, 0, 0)
                assert walked(member, *positions(tree, member, k, k + 1)) == want

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_leaf_scan_nondecreasing_and_internal_keys(self, n):
        # the root's leaf keys are its positions, dimension 0's ranks; each
        # structure below it keys its leaves by their dimension-1 ranks,
        # rank table 1, in which the root level places its bounds
        rnd = random.Random(n)
        tree = level_tree([rnd.randrange(4) for _ in range(n)])
        ranks = rank_tables(tree.pointset.coord_matrix())[2]
        assert tree.root.rows[0] == range(min(n + 1, tree.root.L))
        for _, sub in slots(tree.root, 0):
            assert list(leaf_row(*sub)) == [ranks[1][e] for e in leaf_labels(*sub)]
        self.check_leaf_scan(tree, (tree.root, 0))

    @staticmethod
    def below_the_root(n):
        """A d = 4 tree whose dimension 1 holds heavy duplicates."""
        rnd = random.Random(n)
        return build(PointSet.from_coords([(i, rnd.randrange(4), 0, 0) for i in range(n)]))

    @pytest.mark.parametrize("n", [8, 13, 40])
    def test_leaf_scan_below_the_root(self, n):
        # the largest level member over dimension 1 (d = 4) keys its leaves
        # by their dimension-1 ranks, which the root level's two bisects read
        tree = self.below_the_root(n)
        member = max((s for depth, s in structures(tree) if depth == 1), key=lambda s: s[0].L)
        ranks = rank_tables(tree.pointset.coord_matrix())[2]
        assert list(leaf_row(*member)) == [ranks[1][e] for e in leaf_labels(*member)]
        assert member[0].L > 1
        self.check_leaf_scan(tree, member)

    def test_phantoms_sit_rightmost(self):
        values = [5, 1, 3]
        tree = level_tree(values)
        member = tree.root, 0
        level, _ = member
        assert level.L == 4 and real_count(member, len(values)) == 3
        # the root's leaf keys are its positions: leaf p ranks p, the real
        # points in dimension 0's order first, then the phantom
        assert leaf_row(*member) == range(4) and leaf_ranks(*member) == [0, 1, 2, 3]
        assert [values[tree.ids[e]] for e in subtree(*member, 2, 0, len(values))] == [1, 3, 5]
        assert leaf_labels(*member)[3] == len(values)  # the phantom is leaf 3, label 3


class TestFindSplitNode:
    # leaves [1,2,3,4]: the root, node (2, 0), splits {1,2} | {3,4}; each
    # test states the model's split node (split_node), and the walk gives
    # the model's yields and counters
    VALUES = [1, 2, 3, 4]

    def test_range_2_3_splits_at_root(self):
        tree = level_tree(self.VALUES)
        member = tree.root, 0
        a, b = rank_bounds(self.VALUES, 2.0, 3.0)
        assert split_node(leaf_ranks(*member), a, b) == (1, 3, 2, 0)
        walked(member, a, b)

    def test_degenerate_range_splits_at_value_boundary(self):
        # [1,1] is the ranks [0, 1): it diverges at the parent of the value-1
        # leaf; the canonical cover is still exactly that leaf
        tree = level_tree(self.VALUES)
        member = tree.root, 0
        a, b = rank_bounds(self.VALUES, 1.0, 1.0)
        assert split_node(leaf_ranks(*member), a, b) == (0, 1, 1, 0)
        assert walked(member, a, b)[0] == [(0, 0, None, None)]
        assert [tree.ids[e] for e in subtree(*member, 0, 0, len(self.VALUES))] == [0]

    def test_range_above_all_leaves(self):
        tree = level_tree(self.VALUES)
        member = tree.root, 0
        a, b = rank_bounds(self.VALUES, 5.0, 9.0)
        assert split_node(leaf_ranks(*member), a, b)[2] == 0  # a leaf
        assert walked(member, a, b)[0] == []

    @pytest.mark.parametrize("H", range(8))
    def test_root_closed_form_equals_rank_descent(self, H):
        # no rank table sorts the root, so its bounds already are positions;
        # for every 0 <= a, b <= L, a >= b and b = L included, the walk of the
        # d = 2 root's x-tree gives the yields and counters of walk_model,
        # whose leaf ranks are dimension 0's composite ranks (leaf p ranks p).
        # n = L makes b = L a bound a box can map to, and n = L/2 + 1 puts
        # phantoms inside [a, b) for b > n
        L = 1 << H
        for n in sorted({L, L // 2 + 1}):
            ps = gen_points(GeneratorConfig(seed=n, n=n, dims=2, dist="grid", grid_side=5))
            tree = build(ps)
            root, pts = tree.root, every_point(ps)
            assert root.L == L and root.rows[0] == range(min(n + 1, L))
            order = sorted(range(n), key=lambda i: composite_key(pts[i], 0))
            assert [tree.ids[e] for e in leaf_labels(root)[:n]] == order
            for a in range(L + 1):
                for b in range(L + 1):
                    walked((root, 0), *positions(tree, (root, 0), a, b))


GRID_TREES = [(3, 1), (3, 2), (3, 5), (3, 8), (3, 33), (3, 64), (3, 100),
              (4, 1), (4, 2), (4, 5), (4, 8), (4, 33), (4, 64)]


def grid_tree(d, n):
    return build(gen_points(GeneratorConfig(seed=n + d, n=n, dims=d, dist="grid", grid_side=3)))


class TestWalkOnPositions:
    @pytest.mark.parametrize("d,n", GRID_TREES)
    def test_walk_equals_rank_reading_walk(self, d, n):
        # every walk runs on leaf positions, and below the root two
        # bisects of the leaf keys place its bounds: for every level member
        # of a grid tree, root and below, and every 0 <= a, b <= n, the walk
        # of the placed positions gives the yields and counters of walk_model
        tree = grid_tree(d, n)
        levels = [s for _, s in structures(tree) if isinstance(s[0], _Level)]
        assert levels[0][0] is tree.root
        assert any(level is not tree.root for level, _ in levels) == (d == 4)
        for member in levels:
            for a in range(n + 1):
                for b in range(n + 1):
                    walked(member, *positions(tree, member, a, b))

    @pytest.mark.parametrize("make,n", [
        *(pytest.param(partial(grid_tree, d), n, id=f"{d}-{n}") for d, n in GRID_TREES),
        *(pytest.param(TestLeafRow.below_the_root, n, id=f"duplicates-{n}") for n in (8, 13, 40))])
    def test_place_equals_split_node(self, make, n):
        # every member below the root, level or cascade, is placed by
        # _Level.reached as split_node places it from the member's leaf ranks, for
        # every 0 <= a, b <= n: u == v exactly when no leaf ranks in [a, b);
        # on the grid trees and on d = 4 trees with duplicates in dimension 1
        tree = make(n)
        assert check_place(tree, n) == sum(1 for _, s in structures(tree)) - 1


def y_stop_rows(kind, d, n):
    """n rows of d coordinates: "grid" draws 0, 1, 2 (heavy duplicates), "signed" -1, -0.0, 0.0, 1."""
    pool = [0.0, 1.0, 2.0] if kind == "grid" else [-1.0, -0.0, 0.0, 1.0]
    rng = SplitMix64(97 * d + n)
    rows = [[pool[rng.next_below(len(pool))] for _ in range(d)] for _ in range(n)]
    if kind == "signed":
        rows[0], rows[1] = [-0.0] * d, [0.0] * d
    return rows


def y_stop_boxes(d, count):
    """Random boxes over the rows' range and past it, some with lo > hi, then y ranges missing every row."""
    bounds = [-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    rng = SplitMix64(31 * d)
    boxes = [QueryBox(*zip(*[(bounds[rng.next_below(10)], bounds[rng.next_below(10)])
                             for _ in range(d)])) for _ in range(count)]
    for y in ((0.25, 0.75), (3.0, 4.0), (-3.0, -2.0), (1.0, 0.0), (2.0, -1.0)):
        boxes.append(QueryBox((-1.0,) * (d - 1) + y[:1], (2.0,) * (d - 1) + y[1:]))
    return boxes


def modelled_boxes(monkeypatch, kind, d, n) -> tuple:
    """(tree, calls): y_stop_boxes queried and counted on y_stop_rows, each walk call checked.

    The answers are the oracle's, and a query stops where a count does.
    """
    ps = PointSet.from_coords(y_stop_rows(kind, d, n))
    tree, calls = build(ps), model_checked(monkeypatch)
    for box in y_stop_boxes(d, 60):
        want, q, c = brute_force_query(ps, box), QueryStats(), QueryStats()
        assert tree.query(box, q) == want and tree.count(box, c) == len(want)
        assert q.nodes_visited == c.nodes_visited and c.bridge_follows == 2 * q.bridge_follows
    return tree, calls


class TestStopRule:
    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["grid", "signed"])
    def test_walk_against_unpruned_walk(self, monkeypatch, kind, d, n):
        # every walk call, a level's or a cascade's, gives the yields and
        # counters of walk_model, whose cascade paths stop at the first node
        # holding no label in [ya, yb); of the cascade calls whose split
        # node is above the leaves, some stop there and others go below it
        _, calls = modelled_boxes(monkeypatch, kind, d, n)
        assert any(isinstance(group, _Level) for group, *_ in calls) == (d > 2)
        at_split = {counters[2] == 0 for group, r, _, counters in calls
                    if r and isinstance(group, CascadeStructure)}
        # at d = 4 and n <= 9 every cascade is a single leaf, with no path to end
        assert at_split == (set() if d == 4 and n <= 9 else {True, False})

    @pytest.mark.parametrize("d,n", [(2, 600), (3, 1100)])
    def test_wide_bridge_rows(self, monkeypatch, d, n):
        # a cascade of L >= 512 stores bridge rows 9 and up two bytes wide;
        # calls that leave a split node at row 9 or more read them, and still
        # give the model's yields and counters
        tree, calls = modelled_boxes(monkeypatch, "grid", d, n)
        wide = [s for _, (s, _) in structures(tree)
                if isinstance(s, CascadeStructure) and s.L >= 512]
        assert wide and all(s.bridges[9].typecode == "H" for s in wide)
        assert any(r >= 9 and counters[2] for _, r, _, counters in calls)


class TestShortRootRows:
    @pytest.mark.parametrize("d,n", [
        *(pytest.param(2, n, id=str(n)) for n in (5, 9, 17, 33, 65, 129)),
        *(pytest.param(3, n, id=f"3-{n}") for n in (5, 9, 17, 33, 65, 129))])
    def test_boxes_that_end_at_the_phantom(self, monkeypatch, d, n):
        # n = 2^k + 1 leaves the most phantoms cut: every stored row of the
        # root, the d=2 root cascade's or the d=3 root level's leaf row,
        # keeps n + 1 entries of L = 2^(k+1).  Every box's dimension-0
        # ranks end at b = n, and its ranks [ya, yb) in each further
        # dimension have each bound at 0, n - 1 or n: the split node of
        # [0, n) is the root, which straddles position n; the b path ends
        # by entering leaf n, the right child that starts at n; and a
        # cascade run with yb = n ends on a label n or more (at the d=2
        # root, the phantom at n).  Every walk, the level's included, gives
        # walk_model's yields and counters, and each answer the oracle's
        rng = SplitMix64(n)
        columns = [list(range(n))]
        for _ in range(d - 1):
            ys = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.next_below(i + 1)
                ys[i], ys[j] = ys[j], ys[i]
            columns.append(ys)
        ps = PointSet.from_coords(list(zip(*columns)))
        tree, calls = build(ps), model_checked(monkeypatch)  # the level's walks too
        L = tree.root.L
        rows = L.bit_length() if d == 2 else 1  # a level stores its leaf row only
        assert [len(row) for row in tree.root.rows] == [n + 1] * rows
        bounds = (0, n - 1, n)
        for xa in (0, 1, n // 2, n - 2, n - 1, n):
            for pairs in product(product(bounds, bounds), repeat=d - 1):
                # dimension-0 ranks [xa, n), then ranks [ya, yb) per dimension
                ya, yb = (tuple(pair[i] for pair in pairs) for i in (0, 1))
                box = QueryBox((xa, *ya), (n, *(y - 0.5 for y in yb)))
                assert tree.rank_box(box) == ((xa, *ya), (n, *yb))
                want = brute_force_query(ps, box)
                assert tree.query(box) == want and tree.count(box) == len(want)
        # the root split; at d = 3 only the root level's walk has a tree of L
        # leaves, so its calls were checked too
        assert any(r == L.bit_length() - 1 and got for _, r, got, _ in calls)
        # x ranks [n - 1, n) split at the row-1 node whose right child is leaf n
        assert split_node(range(L), n - 1, n)[2:] == (1, (n - 1) >> 1)


def check_cover(tree, member, column, lo, hi):
    """The canonical cover of [lo, hi] in level.dim (column: that coordinate by id).

    The interval's ranks are placed as the member's leaf positions
    (positions).  The cover's nodes (r, pos) hold disjoint id sets whose
    union is the level's real ids in [lo, hi], and there are at most
    2*log2(L) of them.  The ids come from the labels the nodes hold,
    through the tree's id map.
    """
    level, g = member
    n, H, ids = len(column), level.L.bit_length() - 1, tree.ids
    uv = positions(tree, member, *rank_bounds(column, lo, hi))
    nodes = canonical_subtrees(level, g, *uv, QueryStats())
    cover = [ids[e] for r, p in nodes for e in subtree(*member, r, p, n)]
    assert len(set(nodes)) == len(nodes) and len(set(cover)) == len(cover)
    assert sorted(cover) == sorted(ids[e] for e in subtree(*member, H, 0, n)
                                   if lo <= column[ids[e]] <= hi)
    assert len(nodes) <= max(1, 2 * H)


class TestCanonicalSubtrees:
    def test_full_range_covers_everything(self):
        member = root_level([1, 2, 3, 4])
        nodes = canonical_subtrees(*member, *rank_bounds([1, 2, 3, 4], 1.0, 4.0), QueryStats())
        assert sorted(e for r, p in nodes for e in subtree(*member, r, p, 4)) == [0, 1, 2, 3]

    def test_disjoint_range_is_empty(self):
        member = root_level([1, 2, 3, 4])
        assert canonical_subtrees(*member, *rank_bounds([1, 2, 3, 4], 5.0, 9.0), QueryStats()) == []

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        st.integers(-1, 8),
        st.integers(-1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_cover_equals_filter_and_bound(self, values, lo, hi):
        tree = level_tree(values)
        check_cover(tree, (tree.root, 0), values, lo, hi)

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
        lower = [s for depth, s in structures(tree) if depth > 0 and isinstance(s[0], _Level)]
        assert lower
        for member in lower:
            check_cover(tree, member, [r[member[0].dim] for r in rows], lo, hi)


class TestReachableSlots:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("dist", ["uniform", "grid"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33])
    def test_structures_are_exactly_the_canonical_slots(self, d, dist, n):
        # over every interval 0 <= u <= v <= m of a level member's leaf
        # positions, m = per[0] its real leaves (every rank interval places
        # as one of them), the nodes (r, pos) that canonical_subtrees returns
        # are exactly the ones with a structure, and each holds exactly its
        # chunk's points; the nodes of all members map one to one onto the
        # members of the next dimension's groups
        tree = build(gen_points(GeneratorConfig(seed=n + d, n=n, dims=d, dist=dist, grid_side=3)))
        everything = ((0,) * d, (n,) * d)
        levels = [s for _, s in structures(tree) if isinstance(s[0], _Level)]
        assert levels
        held = {}
        for member in levels:
            level, g = member
            reached = set()
            for u in range(level.per[0] + 1):
                for v in range(u, level.per[0] + 1):
                    reached.update(canonical_subtrees(level, g, u, v, QueryStats()))
            built = dict(slots(level, g))
            assert set(built) == reached
            for (r, p), (group, h) in built.items():
                got = collect(tree, group, h, *everything)
                assert sorted(got) == sorted(subtree(*member, r, p, n))
                held.setdefault(id(group), (group, []))[1].append(h)
        for group, held_members in held.values():
            assert sorted(held_members) == list(range(members(group)))


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
    @pytest.mark.parametrize("n", [2**30, 2**30 + 1, 2**31])
    def test_ids_beyond_int32_are_refused_before_allocating(self, n):
        # build takes n < 2^30 only, so ids, labels, ranks and a merge's
        # bridges fit in int32; the stub has only a length, so build must
        # refuse it before it reads or allocates anything
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
        assert isinstance(tree.ids, array) and tree.ids.typecode == "H"
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
        ys = tree.pointset.coord_matrix()[:, -1].tolist()  # all 4 labels are real
        # L = 4: the root is node (2, 0), its children (1, 0) and (1, 1)
        assert [ys[tree.ids[e]] for e in node(cs, 2, 0).ranks] == [1.0, 2.0, 3.0, 4.0]
        assert [ys[tree.ids[e]] for e in node(cs, 1, 0).ranks] == [1.0, 2.0]
        assert [ys[tree.ids[e]] for e in node(cs, 1, 1).ranks] == [3.0, 4.0]
        assert node(cs, 2, 0).left_bridge == [0, 1, 2, 2]
        assert node(cs, 2, 0).right_bridge == [0, 0, 0, 1]
        for leaf in range(4):
            assert len(node(cs, 0, leaf).ranks) == 1

    def test_shuffled_input_builds_identical_structure(self):
        # the row-permutation law: permuting the rows renumbers the points
        # and changes nothing stored, since the structures hold ranks: leaf
        # keys and labels (last-dimension ranks); so
        # build(from_coords(m[perm])) has build(from_coords(m))'s leaf keys,
        # label rows and bridge rows, in structures() order, the same order,
        # and each label the same coordinates
        def snapshot(tree):
            return [(lvl, type(s).__name__, list(leaf_row(s, g)),
                     (words(s, g).tolist(), bridge_rows(s, g), s.order.tolist())
                     if is_cascade((s, g)) else None)
                    for lvl, (s, g) in structures(tree)]

        def label_coords(tree):
            return tree.pointset.coord_matrix()[list(tree.ids)].tolist()

        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            for dist in ("uniform", "grid"):
                for n in (1, 5, 64, 65, 129, 300):
                    cfg = GeneratorConfig(seed=21 + n, n=n, dims=d, dist=dist, grid_side=3)
                    m = gen_points(cfg).coord_matrix()
                    perm = rng.permutation(n)
                    t1 = build(PointSet.from_coords(m))
                    t2 = build(PointSet.from_coords(m[perm]))
                    assert snapshot(t1) == snapshot(t2), (d, dist, n)
                    assert label_coords(t1) == label_coords(t2), (d, dist, n)
                    if dist == "uniform":  # distinct rows: the id maps differ by perm alone
                        assert [perm[i] for i in t2.ids] == list(t1.ids)

    def test_level_assoc_holds_exact_subtree_points(self):
        # every level of a d=3 and a d=4 tree; below the root, real labels
        # run past a level's own point count m
        for cfg in (GeneratorConfig(seed=4, n=23, dims=3, dist="grid", grid_side=3),
                    GeneratorConfig(seed=3, n=40, dims=4)):
            tree = build(gen_points(cfg))
            everything = ((0,) * cfg.dims, (cfg.n,) * cfg.dims)
            levels = [s for _, s in structures(tree) if isinstance(s[0], _Level)]
            assert len(levels) > (cfg.dims == 4)
            for member in levels:
                for (r, p), sub in slots(member[0], member[1]):
                    labels = subtree(*member, r, p, cfg.n)
                    assert labels and real_count(sub, cfg.n) == len(labels)
                    assert sorted(collect(tree, *sub, *everything)) == sorted(labels)


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
        assert got == every_point(ps)
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


def first_dim_boxes(coords, ks):
    """One box per k in ks holding exactly k points: a run of the sorted first coordinates.

    The other dimensions span [-1, 2], beyond every coordinate of `coords`
    (drawn from [0, 1)), and the first coordinates are distinct.
    """
    xs = np.sort(coords[:, 0])
    d, boxes = coords.shape[1], []
    for i, k in enumerate(ks):
        s = (i + 1) * len(xs) // (len(ks) + 1)
        boxes.append(QueryBox((float(xs[s]),) + (-1.0,) * (d - 1),
                              (float(xs[s + k - 1]),) + (2.0,) * (d - 1)))
    return boxes


class TestIdPaths:
    """query maps hits to ids in Python below GATHER_MIN and by one numpy gather from it on."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n,code", [(2**16 - 1, "H"), (2**16 + 1, "i")])
    def test_both_paths_agree_at_the_crossover(self, d, n, code):
        coords = np.random.default_rng(d).random((n, d))
        ps = PointSet.from_coords(coords)  # fresh: query makes every Point it reports
        tree = build(ps)
        assert tree.ids.typecode == code
        ks = [GATHER_MIN - 1, GATHER_MIN, GATHER_MIN + 1]
        for k, box in zip(ks, first_dim_boxes(coords, ks)):
            got = tree.query(box)
            assert len(got) == k and tree.count(box) == k
            assert [type(p.id) for p in got] == [int] * k  # not numpy integers
            assert got == brute_force_query(ps, box)
            again = tree.query(box)
            assert all(a is b for a, b in zip(got, again)) and len(again) == k

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_query_does_not_check_its_own_ids(self, monkeypatch, d):
        # query and brute_force_query both answer with the list PointSet._points
        # makes, from sorted int ids that are valid by construction, so the
        # maker checks none; each hit is the same Point from either
        coords = np.random.default_rng(10 + d).random((500, d))
        ps = PointSet.from_coords(coords)
        tree = build(ps)
        made, points = [], PointSet._points

        def recorded(self, ids):
            assert self is ps and sorted(ids) == list(ids) and {type(i) for i in ids} <= {int}
            assert all(0 <= i < len(ps) for i in ids)
            made.append(points(self, ids))
            return made[-1]

        monkeypatch.setattr(PointSet, "_points", recorded)
        ks = [1, GATHER_MIN - 1, GATHER_MIN, 3 * GATHER_MIN]
        for k, box in zip(ks, first_dim_boxes(coords, ks)):
            hits = tree.query(box)
            assert hits is made[-1] and len(hits) == k
            oracle = brute_force_query(ps, box)
            assert oracle is made[-1] and all(a is b for a, b in zip(hits, oracle))
            assert oracle == hits
        assert len(made) == 2 * len(ks)


class TestIndexWidth:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n,code", [(2**16 - 1, "H"), (2**16, "H"), (2**16 + 1, "i")])
    def test_width_boundary(self, d, n, code):
        # every label, rank, id and leaf position is below L = pow2ceil(n), so
        # they share two bytes while L <= 2^16.  Label 65535 is then the
        # largest one stored: a phantom at n = 2^16 - 1, a real point at
        # n = 2^16, and it reads back unwrapped from every array holding it
        ps = gen_points(GeneratorConfig(seed=n + d, n=n, dims=d))
        tree, L = build(ps), pow2ceil(n)
        keep = min(n + 1, L)  # the root keeps only phantom n (n = 2^16 + 1)
        assert tree.ids.typecode == code and len(tree.ids) == n
        assert max(tree.ids) == n - 1  # id 65535 is stored at n = 2^16
        if d > 1:
            groups = {id(s): s for _, (s, _) in structures(tree)}.values()
            # no group keeps a rank table.  The root's leaf keys are its
            # positions; every other group's are ranks of real points, and
            # the cascades' one order gives each key its label, phantom n
            # last; all of them at the tree's width
            assert not any(hasattr(s, "rank") for s in groups)
            assert tree.root.rows[0] == range(keep)
            cascades = [s for s in groups if isinstance(s, CascadeStructure)]
            (order,) = {id(cs.order): cs.order for cs in cascades}.values()
            assert order.typecode == code and sorted(order) == list(range(keep))
            assert order[n:].tolist() == list(range(n, keep))  # phantom n is its own label
            for s in groups:
                if s is not tree.root:
                    assert s.rows[0].typecode == code and max(s.rows[0]) < n
            for cs in cascades:
                assert {row.typecode for row in cs.rows[1:]} <= {code}
                # a d=2 root's top row is every label it keeps in order;
                # below a level a cascade holds real labels only
                if cs.L > 1:
                    assert max(map(max, cs.rows[1:])) == (keep - 1 if d == 2 else n - 1)
                if d == 2:
                    assert cs.rows[cs.L.bit_length() - 1].tolist() == list(range(keep))
        # the largest label's point is reported, mapped through ids; the
        # other boxes hold about 50 points each
        rng = SplitMix64(n * d)
        side = (50 / n) ** (1 / d)
        top = tuple(ps.coord_matrix()[tree.ids[n - 1]].tolist())
        boxes = [QueryBox(tuple(c - 1e-9 for c in top), tuple(c + 1e-9 for c in top))]
        for _ in range(19):
            lo = tuple(rng.next_float() * (1 - side) for _ in range(d))
            boxes.append(QueryBox(lo, tuple(c + side for c in lo)))
        for box in boxes:
            want = brute_force_query(ps, box)
            assert tree.query(box) == want and tree.count(box) == len(want)
        assert tree.ids[n - 1] in [p.id for p in tree.query(boxes[0])]
        assert tree.count(QueryBox((0.0,) * d, (1.0,) * d)) == n


class TestSpaceAccounting:
    @pytest.mark.parametrize("d,n", [(1, 37), (2, 100), (3, 64), (4, 33), (2, 600), (2, 65537)])
    def test_every_instance_stores_m_times_levels(self, d, n):
        ps = gen_points(GeneratorConfig(seed=n, n=n, dims=d))
        tree = build(ps)
        groups = {}
        for _, s in structures(tree):
            if is_cascade(s):
                cs, g = s
                # real (non-phantom, < n) labels in the node-array rows
                assert sum(1 for e in words(*s) if e < n) == real_count(s, n) * cs.L.bit_length()
                groups.setdefault(id(cs), (cs, []))[1].append(g)
            elif isinstance(s[0], _Slab):
                assert sorted(tree.ids) == list(range(n))  # each point once, no padding
            else:
                # the m*levels law, summed over the nodes that have a structure:
                # each holds its chunk's m points, and m*levels bounds the sum
                built = list(slots(s[0], s[1]))
                total = sum(real_count(sub, n) for _, sub in built)
                assert total == sum(len(subtree(*s, r, p, n)) for (r, p), _ in built)
                assert total <= real_count(s, n) * s[0].L.bit_length()
        # the G members of one group tile each of its rows, member g's L
        # entries from g*L: its leaf key row and each of its H label rows
        # holds G*L entries at the tree's one index width and each of its H
        # left-bridge rows (no right bridges) G*L at w(r) bytes, w = 1, 2, 4
        # for r <= 8, <= 16, above, with no slack in any row.  The d=2
        # root, a group of one, holds min(n + 1, L) in each: its one
        # phantom is n, and its keys are a range of its positions.  The
        # cascades share one order of min(n + 1, L) labels
        width = lambda r: 1 if r <= 8 else 2 if r <= 16 else 4
        assert tree.ids.typecode == ("H" if pow2ceil(n) <= 2**16 else "i")
        no_slack = lambda a: sys.getsizeof(a) == (sys.getsizeof(array(a.typecode))
                                                  + len(a) * a.itemsize)
        for cs, held in groups.values():
            G = len(held)
            assert sorted(held) == list(range(G))  # every member is reached
            size = min(n + 1, cs.L) if cs is tree.root else G * cs.L
            assert len(cs.rows) == cs.L.bit_length()
            if cs is tree.root:
                assert cs.rows[0] == range(size)
            for row in cs.rows[cs is tree.root:]:
                assert isinstance(row, array) and row.typecode == tree.ids.typecode
                assert len(row) == size and no_slack(row)
                assert row.itemsize == {"H": 2, "i": 4}[tree.ids.typecode]
            assert len(cs.bridges) == cs.L.bit_length() and not cs.bridges[0]
            for r, lb in enumerate(cs.bridges[1:], 1):
                assert len(lb) == size and lb.itemsize == width(r) and no_slack(lb)
        if groups:
            (order,) = {id(cs.order): cs.order for cs, _ in groups.values()}.values()
            assert order.typecode == tree.ids.typecode and len(order) == min(n + 1, pow2ceil(n))
            assert no_slack(order)

    @pytest.mark.parametrize("d,n", [
        *(pytest.param(2, n, id=str(n)) for n in (1, 2, 3, 4, 5, 127, 128, 129, 65537)),
        *(pytest.param(d, n, id=f"{d}-{n}") for d in (3, 4)
          for n in (1, 2, 3, 4, 5, 127, 128, 129))])
    def test_d2_root_storage_total(self, d, n):
        # one rule at every d: each stored row of the root holds
        # min(n + 1, L) entries, and entry n is phantom n when n < L.  The
        # d=2 root cascade has H + 1 label rows and H bridge rows,
        # (2H + 1) * min(n + 1, L) entries in all: the paper's O(n log n),
        # with one phantom per row while n + 1 < L, and full rows at
        # n = 2^k - 1 and 2^k.  A root level (d >= 3) stores its one leaf
        # row.  (The name is the d=2 test's, kept with its d=2 test IDs)
        tree = build(gen_points(GeneratorConfig(seed=n, n=n, dims=d)))
        root, L = tree.root, pow2ceil(n)
        H, keep = L.bit_length() - 1, min(n + 1, L)
        assert isinstance(root, CascadeStructure if d == 2 else _Level) and root.L == L
        assert all(list(row[n:]) == list(range(n, keep)) for row in root.rows)
        assert root.rows[0] == range(keep)  # the root's keys are its positions
        if d > 2:
            assert [len(row) for row in root.rows] == [keep]
        else:
            assert [len(row) for row in root.rows] == [keep] * (H + 1)
            assert [len(lb) for lb in root.bridges] == [0] + [keep] * H
            total = sum(map(len, root.rows)) + sum(map(len, root.bridges))
            assert total == (2 * H + 1) * keep <= (2 * H + 1) * (n + 1)

    def test_one_object_per_cascade_group(self):
        # a cascade is a (group, index) pair: build makes one CascadeStructure
        # per merge group, at most one per padded size L, not one per cascade
        ps = gen_points(GeneratorConfig(seed=5, n=3000, dims=3, dist="grid", grid_side=14))
        gc.collect()
        before = sum(isinstance(o, CascadeStructure) for o in gc.get_objects())
        tree = build(ps)
        gc.collect()
        live = sum(isinstance(o, CascadeStructure) for o in gc.get_objects()) - before
        members = [s for _, s in structures(tree) if is_cascade(s)]
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
        levels = [(depth, s) for depth, s in structures(tree) if isinstance(s[0], _Level)]
        by_dim = [{id(s) for depth, (s, _) in levels if depth == j} for j in (0, 1)]
        assert live == len(by_dim[0]) + len(by_dim[1])
        assert len(by_dim[0]) == 1 and len(by_dim[1]) <= pow2ceil(n).bit_length()
        assert len(levels) > n

    def test_level_rows_have_no_slack(self):
        # each level group keeps one row, its leaf keys, sized exactly at
        # the tree's width: no array growth slack.  G members hold G*L
        # entries, and the root's are the range of its min(n + 1, L)
        # positions
        n = 2000
        ps = gen_points(GeneratorConfig(seed=6, n=n, dims=4))
        tree = build(ps)
        held = {}  # per level group: itself and the members structures() reaches
        for _, (s, g) in structures(tree):
            if isinstance(s, _Level):
                held.setdefault(id(s), (s, set()))[1].add(g)
        assert len(held) > 1
        empty = sys.getsizeof(array(tree.ids.typecode))
        for level, gs in held.values():
            (leaves,) = level.rows
            if level is tree.root:
                assert leaves == range(min(n + 1, level.L))
                continue
            assert leaves.typecode == tree.ids.typecode and len(leaves) == len(gs) * level.L
            assert sys.getsizeof(leaves) == empty + leaves.itemsize * len(leaves)

    def test_slab_ids_have_no_slack(self):
        # the id map, the last dimension's order (at d = 1 the rank order the
        # slab kept), is sized exactly at every dimension, at the tree's width
        n = 1000
        for d in (1, 2, 3, 4):
            tree = build(gen_points(GeneratorConfig(seed=6, n=n, dims=d)))
            assert isinstance(tree.root, _Slab) == (d == 1)
            assert len(tree.ids) == n and tree.ids.typecode == "H"
            assert sys.getsizeof(tree.ids) == (sys.getsizeof(array(tree.ids.typecode))
                                               + tree.ids.itemsize * n)

    @pytest.mark.parametrize("d,n,seed,side", [
        *(pytest.param(d, 70, 7, 3, id=str(d)) for d in (1, 2, 3, 4)),
        *(pytest.param(d, n, n, 5, id=f"{d}-{n}")
          for d, n in ((2, 1), (2, 100), (3, 64), (3, 65), (4, 33)))])
    def test_no_last_dimension_table(self, d, n, seed, side):
        # one index space: a phantom is leaf t >= n, its own label and its
        # own rank.  The rank tables are those of dimensions 1 .. d-2, each
        # dimension j's composite-key ranks, phantom t ranking t, and no
        # group keeps one: build turned each group's leaf labels into its
        # keys, their composite-key ranks in the group's own dimension (at
        # the root, dimension 0's, its positions, phantom t at leaf t).  A
        # structure keeps only what its own query reads: no cascade has a
        # rank table or a dimension number, and no level a rank table or a
        # leaf count of its own.  A cascade's node arrays ascend in their
        # labels, which bisect_left on the buffer relies on
        ps = gen_points(GeneratorConfig(seed=seed, n=n, dims=d, dist="grid", grid_side=side))
        tree, L = build(ps), pow2ceil(n)
        _, _, ranks, _ = rank_tables(ps.coord_matrix())
        assert len(ranks) == d - 1 and ranks[:1] == ([None] if d > 1 else [])
        pts = every_point(ps)
        where = [{i: v for v, i in enumerate(sorted(range(n),
                                                     key=lambda i: composite_key(pts[i], j)))}
                 for j in range(d)]
        for j in range(1, d - 1):
            assert ranks[j].tolist() == [where[j][tree.ids[v]] for v in range(n)] + list(range(n, L))
        keyed = set()  # the dimensions whose groups' keys were checked
        for _, (s, g) in structures(tree):
            if isinstance(s, _Slab):
                assert s.__slots__ == ()
                continue
            if isinstance(s, _Level):
                assert not any(hasattr(s, k) for k in ("m", "rank"))
            else:
                assert CascadeStructure.__slots__ == ("L", "rows", "bridges", "order")
                assert not any(hasattr(s, k) for k in ("rank", "rank_y", "xdim", "ydim"))
                for r, p in all_nodes(s.L):
                    labels = node(s, r, p, g).ranks
                    assert all(u < v for u, v in zip(labels, labels[1:]))
            dim = getattr(s, "dim", d - 2)
            keyed.add(dim)
            assert list(leaf_row(s, g)) == [where[dim][tree.ids[e]] if e < n else e
                                            for e in leaf_labels(s, g)]
        assert keyed == set(range(d - 1))
        if d > 1:  # the root keeps only phantom n
            assert leaf_row(tree.root) == range(min(n + 1, L))


LAYOUT_TREES = [(d, dist, n) for d in (2, 3, 4) for dist in ("uniform", "grid")
                for n in (1, 2, 3, 5, 64, 65, 129 if d < 4 else 33)]


def key_ids(orders, s, g: int) -> list:
    """The ids of member g's leaves, read from its keys by its dimension's composite order.

    orders[j] lists the ids in dimension j's composite order; a key past
    the real points (the root's phantom n) reads as None.
    """
    order = orders[getattr(s, "dim", len(orders) - 2)]
    return [order[k] if k < len(order) else None for k in leaf_row(s, g)]


class TestLeafKeys:
    # a group's leaf row holds keys, each leaf's rank in the group's own
    # dimension, and the cascades read a leaf's label through one order
    @pytest.mark.parametrize("d,dist,n", LAYOUT_TREES)
    def test_keys_place_and_order_labels(self, d, dist, n):
        ps = gen_points(GeneratorConfig(seed=n + d, n=n, dims=d, dist=dist, grid_side=3))
        tree, L = build(ps), pow2ceil(n)
        pts = every_point(ps)
        orders = [sorted(range(n), key=lambda i: composite_key(pts[i], j)) for j in range(d)]
        # the root's leaf keys are its positions
        assert tree.root.rows[0] == range(min(n + 1, L))
        cascades = {id(s): s for _, (s, _) in structures(tree) if isinstance(s, CascadeStructure)}
        # one order object for every cascade group of the tree: the label
        # at each rank of dimension d-2, then phantom n
        (order,) = {id(cs.order): cs.order for cs in cascades.values()}.values()
        assert [tree.ids[e] for e in order[:n]] == orders[d - 2]
        assert order[n:].tolist() == list(range(n, min(n + 1, L)))
        for _, (s, g) in structures(tree):
            keys = list(leaf_row(s, g))
            assert all(u < v for u, v in zip(keys, keys[1:]))  # strictly ascending
            ids = key_ids(orders, s, g)
            if isinstance(s, CascadeStructure):
                # order[rows[0][t]] is leaf t's label: its point has the key's rank
                assert [tree.ids[s.order[k]] if s.order[k] < n else None for k in keys] == ids
            elif isinstance(s, _Level):
                # each structure holds its node's points, keyed in its own dimension
                for (r, p), sub in slots(s, g):
                    assert sorted(key_ids(orders, *sub)) == sorted(ids[p << r : (p + 1) << r])

    def test_no_rank_table_and_no_keyed_bisect(self):
        # no level keeps a rank table, and nothing in the package bisects a
        # row through a key function: every placement is a plain bisect
        assert "rank" not in _Level.__slots__
        tree = build(gen_points(GeneratorConfig(seed=4, n=200, dims=4)))
        assert not any(hasattr(s, "rank") for _, (s, _) in structures(tree))
        names = {"bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right"}
        keyed = []
        for module in ("cascade", "cli", "core", "io", "oracle", "tree"):
            source = ast.parse(inspect.getsource(importlib.import_module(f"layertree.{module}")))
            for call in ast.walk(source):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in names and any(k.arg == "key" for k in call.keywords):
                        keyed.append((module, call.lineno))
        assert keyed == []


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

    def test_compare_flags_only_answers_and_stats(self, tmp_path, capsys):
        # the CI check against the base commit: a layout change (structures,
        # merge_moves) passes but is named; a changed answer or counter, or a
        # lost case, fails
        base = json.loads(json.dumps([structure_dump.dump_case(3, "grid", n) for n in (1, 2)]))
        head = json.loads(json.dumps(base))
        head[0]["structures"], head[0]["merge_moves"] = [], -1
        assert structure_dump.compare(base, head) == []
        moved = ["[3, 'grid', 1]: structures differ", "[3, 'grid', 1]: merge_moves differ"]
        assert structure_dump.compare(base, head, structure_dump.LAYOUT) == moved
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "head.json").write_text(json.dumps(head))
        argv = ["--compare", str(tmp_path / "base.json"), str(tmp_path / "head.json")]
        assert structure_dump.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == moved
        assert structure_dump.main(argv[:2] + argv[1:2]) == 0  # base against itself
        assert capsys.readouterr().out.splitlines()[-1] == (
            "structures, order, widths and merge_moves are unchanged")
        head[0]["count_stats"][0] += 1
        head[1]["answers"] = []
        assert structure_dump.compare(base, head) == [
            "[3, 'grid', 1]: count_stats differ", "[3, 'grid', 2]: answers differ"]
        assert structure_dump.compare(base, head[:1]) == [
            "[3, 'grid', 1]: count_stats differ", "[3, 'grid', 2]: missing"]

    def test_compare_says_which_way_counters_moved(self, tmp_path, capsys):
        # a case whose query_stats or count_stats differ gets one line per
        # field naming the counters that fell and those that rose; the exit
        # code is the failure it was before
        base = json.loads(json.dumps([structure_dump.dump_case(3, "grid", n) for n in (1, 2)]))
        head = json.loads(json.dumps(base))
        q, c = base[1]["query_stats"], base[1]["count_stats"]
        head[1]["query_stats"] = [q[0] - 1, q[1], q[2] - 2, q[3]]
        head[1]["count_stats"] = [c[0], c[1] + 1, c[2], c[3]]
        assert structure_dump.directions(base, head) == [
            f"[3, 'grid', 2]: query_stats fell: nodes_visited {q[0]} -> {q[0] - 1}, "
            f"bridge_follows {q[2]} -> {q[2] - 2}; rose: none",
            f"[3, 'grid', 2]: count_stats fell: none; rose: binary_searches {c[1]} -> {c[1] + 1}"]
        assert structure_dump.directions(base, base) == []
        assert structure_dump.directions(base, head[:1]) == []  # a lost case is named by compare
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "head.json").write_text(json.dumps(head))
        argv = ["--compare", str(tmp_path / "base.json"), str(tmp_path / "head.json")]
        assert structure_dump.main(argv) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[3, 'grid', 2]: query_stats differ", "[3, 'grid', 2]: count_stats differ",
            *structure_dump.directions(base, head),
            "structures, order, widths and merge_moves are unchanged"]

    def test_compare_names_a_width_change(self, tmp_path, capsys):
        # the dump records each array's typecode; a changed width, or a base
        # dumped before the field existed, is named as a layout change and
        # does not fail
        base = json.loads(json.dumps([structure_dump.dump_case(3, "grid", 9)]))
        assert base[0]["widths"] == {"ids": "H", "ranks": ["H"], "levels": ["H"],
                                     "cascades": [["H", ""], ["H", "B"], ["H", "BB"]]}
        wide = json.loads(json.dumps(base))
        wide[0]["widths"]["cascades"][0][0] = "i"
        old = json.loads(json.dumps(base))
        del old[0]["widths"]
        for other in (wide, old):
            assert structure_dump.compare(other, base) == []
            assert structure_dump.compare(other, base, structure_dump.LAYOUT) == [
                "[3, 'grid', 9]: widths differ"]
            (tmp_path / "base.json").write_text(json.dumps(other))
            (tmp_path / "head.json").write_text(json.dumps(base))
            assert structure_dump.main(
                ["--compare", str(tmp_path / "base.json"), str(tmp_path / "head.json")]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == "[3, 'grid', 9]: widths differ"

    def test_compare_needs_no_package(self, tmp_path):
        # comparing two dumps reads only the files: the compare form runs
        # where layertree cannot be imported
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps([structure_dump.dump_case(2, "grid", 3)]))
        script = ("import runpy, sys; sys.modules['layertree'] = None; "
                  f"sys.argv = ['structure_dump.py', '--compare', {str(dump)!r}, {str(dump)!r}]; "
                  f"runpy.run_path({structure_dump.__file__!r}, run_name='__main__')")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr


def buffer_digest(tree) -> str:
    """sha256 of every structure's expanded buffer (leaf keys of a level) as ints, in structures() order, then order's."""
    h = hashlib.sha256()
    for _, s in structures(tree):
        h.update(repr(structure_dump.structure_row(*s, tree.ids)).encode())
    h.update(repr(order_row(tree)).encode())
    return h.hexdigest()


# Counter totals of fixed workloads: (merge_moves, query QueryStats, count
# QueryStats) over 40 boxes, and the buffer_digest of the built tree.  The
# QueryStats are the cost model: they change only with a stated change to
# the cost model, whose CHANGES.md line lists every old and new value (the
# latest: a level no longer calls a structure whose placed x range is
# empty, which lowered nodes_visited and binary_searches at d >= 3 and kept
# bridge_follows and reported).  merge_moves and
# the digest pin the layout, so they change only with it: at d >= 3 they
# follow which level nodes have a structure, and merge_moves is
# max(0, H-2)*G*L per level group plus H*G*L per cascade group (see
# BuildCounters).  The latest layout change stored each group's leaf row
# as keys, the root's as a range of its positions, and the cascades' one
# order, which moved every digest and nothing else.
PINNED_COUNTERS = {
    (2, "uniform", 64): (384, (499, 40, 416, 273), (499, 80, 832, 273),
        "03d51b07491e90feee3110b620a88813ee049c632e53d6bcb58555a4b5f19d78"),
    (2, "uniform", 65): (896, (533, 40, 421, 327), (533, 80, 842, 327),
        "cad4b286e900cfe20af2ac38fcc201c7ed57d6adb2ad7f4d1a8d9f2db79ab544"),
    (2, "uniform", 128): (896, (657, 40, 577, 704), (657, 80, 1154, 704),
        "9325cd0b50019c304a618d0d7dee725f593d70a157e9915d8d9555943bd73afd"),
    (2, "uniform", 129): (2048, (662, 40, 552, 762), (662, 80, 1104, 762),
        "f6167db3a1c85152607daf38dd5392a9bd20a497459da3421bc46700f6e9b0d9"),
    (2, "grid", 64): (384, (299, 40, 191, 239), (299, 80, 382, 239),
        "bb1ab67b95a52c33ae6f9afc7597e1b4587428cf10123b98d974af335eb3f142"),
    (2, "grid", 65): (896, (390, 40, 247, 241), (390, 80, 494, 241),
        "d7140d7e518eb46908c03b5d498917e4c66d21723cf5013b448a1d5a8297d9aa"),
    (2, "grid", 128): (896, (452, 40, 303, 497), (452, 80, 606, 497),
        "cd34ec6b1b80ad6bf73051f2bf6eb64eeca39d627b00acaa14c519147e31eeaf"),
    (2, "grid", 129): (2048, (346, 40, 222, 363), (346, 80, 444, 363),
        "31b0fed1d0b2629a00efdca8dd211ee2735f34d161c9b8f9f2abee0ba0ef7676"),
    (3, "uniform", 64): (700, (998, 104, 225, 95), (998, 208, 450, 95),
        "8f8e6c36e58ca7f458011ff4da6e7c49c85957d3cb61c79799de7fee96ae373d"),
    (3, "uniform", 65): (1342, (1034, 114, 205, 58), (1034, 228, 410, 58),
        "9dc24907b3191d13a70371628761387448025b31f91deaab6b676299285197f1"),
    (3, "uniform", 128): (2044, (1505, 149, 522, 213), (1505, 298, 1044, 213),
        "dbfcc58cb920bf305d9add474939f840c69a9c429947b34f5236331356cf03b1"),
    (3, "uniform", 129): (3582, (1572, 153, 559, 260), (1572, 306, 1118, 260),
        "535b07ea0c9cc8d2193bbc8bbd67ac3f034821188e4d2228f4c45604d4bb48a2"),
    (3, "grid", 64): (700, (849, 68, 139, 86), (849, 136, 278, 86),
        "17900d7d2ee478b05a797f9b751085be6d735b0394218f1a3f82b22763e5db7a"),
    (3, "grid", 65): (1342, (736, 29, 99, 53), (736, 58, 198, 53),
        "d6fcc38a1d96f69e3330baf55b90b022d99ee6d6194934584f0a0ab8d37f4a72"),
    (3, "grid", 128): (2044, (963, 68, 219, 136), (963, 136, 438, 136),
        "7b2622cd112774e752f648f23941186bc4131f1318317d0a38dc12bd446c499d"),
    (3, "grid", 129): (3582, (1113, 53, 321, 286), (1113, 106, 642, 286),
        "43c877d2b47648ff2155f071ff295f2d036d26fd61d5ffcf844dac71d71d9128"),
    (4, "uniform", 64): (448, (1266, 90, 43, 46), (1266, 180, 86, 46),
        "d8069caa14c5622369ba740440c4212ee93a099e0a53f538c03b59fd514d4a49"),
    (4, "uniform", 65): (1124, (1155, 73, 15, 29), (1155, 146, 30, 29),
        "78c48ccd8bce136d2de9f92aa3d19d027f816575be523dd72ad276b1c4dc151c"),
    (4, "uniform", 128): (1608, (1890, 104, 58, 44), (1890, 208, 116, 44),
        "d4d74a0dbef90b887773dc9b98e22ce63036a3d97528925a496820abb1d8ab22"),
    (4, "uniform", 129): (3496, (2033, 125, 82, 51), (2033, 250, 164, 51),
        "8d0293ca02a98a8167ebc07fd52bd6cb3e8950ea67ee886c08b587b1ab402ab2"),
    (4, "grid", 64): (448, (975, 59, 14, 26), (975, 118, 28, 26),
        "135e4dd7476e7a794209ea3d82d9f3e8bf3e35212d72ddbc970bbb470d8e486c"),
    (4, "grid", 65): (1124, (762, 24, 20, 15), (762, 48, 40, 15),
        "5a5f20bcdffcd296f94740b6c85b673ba3132abbeec7864c0f69f98ce83484bd"),
    (4, "grid", 128): (1608, (1331, 67, 30, 26), (1331, 134, 60, 26),
        "2977e3acad25008019cad85920d709249e2683eebc822f6eb6f0d340e7802dce"),
    (4, "grid", 129): (3496, (1356, 58, 56, 28), (1356, 116, 112, 28),
        "71fd413ebc84b9dc74ea712286751ccf0029d4f60fada41c3614105c3d05c36e"),
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


MERGE_SIZES = [1, 2, 3, 5, 64, 65, 128, 129]


def merged_rows(group) -> int:
    """The rows a group's merge makes: H for a cascade, max(0, H-2) for a level."""
    H = group.L.bit_length() - 1
    return H if isinstance(group, CascadeStructure) else max(0, H - 2)


def live_merges() -> list:
    """The merge_rows generators still alive and not run out, found by the collector."""
    return [o for o in gc.get_objects() if isinstance(o, types.GeneratorType)
            and o.gi_code is merge_rows.__code__ and o.gi_frame is not None]


class TestMergeWork:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", MERGE_SIZES)
    def test_merge_work_law(self, d, n):
        # merge_moves is every entry a merge step writes, phantoms included:
        # each group's G*L entries once per merged row, the ones a d=2 root
        # cuts from its rows too
        counters = BuildCounters()
        tree = build(gen_points(GeneratorConfig(seed=n + 10 * d, n=n, dims=d)), counters)
        groups = {id(s): s for _, (s, _) in structures(tree)}.values()
        assert counters.merge_moves == sum(merged_rows(s) * members(s) * s.L for s in groups)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", MERGE_SIZES)
    def test_level_merges_stop_at_last_kept_row(self, monkeypatch, d, n):
        # a level takes from merge_rows only the rows _reachable cuts chunks
        # from, merging by the next dimension's rank table, and drops its merge before
        # any other merge starts, a level's or a cascade fill's: a stopped
        # generator kept alive holds its int32 rows through the next group
        taken, by, started, tables = {}, {}, [], []

        def recorded(coords):  # the rank tables build merges by
            out = rank_tables(coords)
            tables.append(out[2])
            return out

        def tally(rows, key):
            for item in rows:
                taken[key] += 1
                yield item

        def checked(leaves, L, rank=None):
            assert all(gen() is None or gen().gi_frame is None for gen in started)
            return merge_rows(leaves, L, rank)

        def counting(leaves, L, rank=None):
            rows = checked(leaves, L, rank)
            started.append(weakref.ref(rows))
            # a level group is one per dimension and L; it merges by the
            # next dimension's table
            key = [id(t) for t in tables[0]].index(id(rank)) - 1, L
            taken[key], by[key] = 0, rank
            return tally(rows, key)

        monkeypatch.setattr(layertree.tree, "rank_tables", recorded)
        monkeypatch.setattr(layertree.tree, "merge_rows", counting)
        monkeypatch.setattr(layertree.cascade, "merge_rows", checked)
        before = live_merges()  # held, so their ids stay theirs
        tree = build(gen_points(GeneratorConfig(seed=n + 10 * d, n=n, dims=d)))
        levels = {(s.dim, s.L): s for _, (s, _) in structures(tree) if isinstance(s, _Level)}
        assert taken.keys() == levels.keys()  # each level's merge, keyed by its dimension and L
        for key, level in levels.items():
            assert taken[key] == merged_rows(level) and by[key] is tables[0][level.dim + 1]
            for r in range(taken[key] + 1):
                assert _reachable(level.L, level.per[0], r)
            assert not _reachable(level.L, level.per[0], taken[key] + 1)
        assert all(gen() is None for gen in started)
        assert {id(gen) for gen in live_merges()} <= {id(gen) for gen in before}


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
    @given(fuzz_workload())
    @settings(max_examples=200, deadline=None)
    def test_order_is_composite_order(self, workload):
        d, rows, _ = workload
        ps = PointSet.from_coords(rows)
        pts, n = every_point(ps), len(rows)
        L = pow2ceil(n)
        ids, row, ranks, axes = rank_tables(ps.coord_matrix())
        want = [sorted(range(n), key=lambda i: composite_key(pts[i], j)) for j in range(d)]
        assert ids.tolist() == want[-1]  # a label is the last dimension's rank
        # the root's leaf row, then phantom n at leaf n when n < L: its own
        # label, the one phantom the root keeps
        keep = min(n + 1, L)
        assert row.tolist() == [want[-1].index(i) for i in want[0]] + list(range(n, keep))
        # dimension 0 has no table: its composite rank of the label at leaf p is p
        rank0 = [want[0].index(ids[v]) for v in range(n)] + list(range(n, L))
        assert [rank0[e] for e in row.tolist()] == list(range(keep))
        assert len(ranks) == d - 1 and ranks[:1] == ([None] if d > 1 else [])
        for j in range(1, d - 1):
            assert list(ranks[j]) == [want[j].index(ids[v]) for v in range(n)] + list(
                range(n, L))
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
        ps = PointSet.from_coords(edge_rows(kind, d, n))
        pts, L = every_point(ps), pow2ceil(n)
        ids, row, ranks, axes = rank_tables(ps.coord_matrix())
        assert len(ranks) == d - 1 and len(axes) == d
        want = [sorted(range(n), key=lambda i: composite_key(pts[i], j)) for j in range(d)]
        where = [{i: v for v, i in enumerate(w)} for w in want]
        code = "H" if L <= 2**16 else "i"  # the index width chosen from L = pow2ceil(n)
        assert ids.typecode == code and ids.tolist() == want[-1]
        assert row.dtype == np.int32
        # the root's leaf row keeps only phantom n, at leaf n, when n < L
        keep = min(n + 1, L)
        assert row.tolist() == [where[-1][i] for i in want[0]] + list(range(n, keep))
        # dimension 0's composite order is the root's leaf row, so it has no table
        assert [where[0][ids[e]] if e < n else e for e in row.tolist()] == list(range(keep))
        assert ranks[:1] == ([None] if d > 1 else [])
        for j, rank in enumerate(ranks[1:], 1):
            assert rank.typecode == code
            assert list(rank) == [where[j][ids[v]] for v in range(n)] + list(range(n, L))
        for j, axis in enumerate(axes):
            # float.hex tells -0.0 from 0.0: each slot holds its own point's coordinate
            assert [x.hex() for x in axis] == [pts[i].coords[j].hex() for i in want[j]]


class TestFuzz:
    @given(fuzz_workload())
    @settings(max_examples=150, deadline=None)
    def test_query_and_count_match_brute_force(self, workload):
        d, rows, boxes = workload
        ps = PointSet.from_coords(rows)
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


def stored_totals(tree) -> tuple:
    """(label entries, key entries, bridge entries) a tree stores, each group once.

    Labels are the cascades' rows 1..H, keys every leaf row held as an
    array (the root's range stores none) plus the cascades' one order,
    and bridges the cascades' bridge rows.
    """
    groups = {id(s): s for _, (s, _) in structures(tree) if hasattr(s, "L")}.values()
    cascades = [s for s in groups if isinstance(s, CascadeStructure)]
    labels = sum(len(row) for cs in cascades for row in cs.rows[1:])
    keys = sum(len(s.rows[0]) for s in groups if isinstance(s.rows[0], array))
    keys += len(cascades[0].order) if cascades else 0
    bridges = sum(len(lb) for cs in cascades for lb in cs.bridges[1:])
    return labels, keys, bridges


def binomial(top: int, bottom: int) -> int:
    """C(top, bottom), 0 when top < bottom, negative tops included."""
    return math.comb(top, bottom) if top >= bottom else 0


def total_bounds(n: int, d: int) -> tuple:
    """The bounds of stored_totals and of merge_moves, as Storage totals in cascade and BuildCounters state.

    H = log2 L of the tree, w = max(1, H - 1): a point lies in at most
    C(w + k - 1, k) structures k dimensions below the root, and in at most
    C(H - d + 2, d - 1) label entries.
    """
    L = pow2ceil(n)
    H = L.bit_length() - 1
    w = max(1, H - 1)
    labels = (n + 1) * binomial(H - d + 2, d - 1)
    merges = L * (binomial(H - d + 2, d - 1) + binomial(w + d - 3, d - 2) - 1)
    return labels, n * binomial(w + d - 2, d - 2) + 1, labels, merges


def walk_bound(group, r: int) -> int:
    """QueryStats' bound on one cascade walk's nodes_visited: (H + 1 - r) + 4r, H = log2 L."""
    return group.L.bit_length() - r + 4 * r


def check_totals(tree, counters, boxes, monkeypatch) -> int:
    """Assert the paper's totals on one tree and its walks over boxes; returns the cascade walks seen."""
    n, d = tree.n, tree.dims
    labels, keys, bridges = stored_totals(tree)
    cap = total_bounds(n, d)
    got = labels, keys, bridges, counters.merge_moves
    assert labels == bridges  # one left bridge per label entry
    assert all(x <= c for x, c in zip(got, cap)), (got, cap)
    calls = model_checked(monkeypatch)
    for box in boxes:
        tree.query(box)
        tree.count(box)
    walks = [(group, r, counters) for group, r, _, counters in calls
             if isinstance(group, CascadeStructure)]
    assert all(c[0] <= walk_bound(group, r) for group, r, c in walks)
    return len(walks)


class TestPaperTotals:
    # the paper's totals: O(n log^(d-1) n) storage and build, and per report
    # O(log n) nodes per cascade walk, as bounds with the constants the code
    # gives (Storage totals in cascade, BuildCounters, QueryStats), on the pinned
    # trees and on the fuzz trees
    @pytest.mark.parametrize("d,dist,n", sorted(PINNED_COUNTERS))
    def test_pinned_trees(self, monkeypatch, d, dist, n):
        ps = gen_points(GeneratorConfig(seed=n + 10 * d, n=n, dims=d, dist=dist, grid_side=3))
        counters = BuildCounters()
        tree = build(ps, counters)
        span = 1.0 if dist == "uniform" else 3.0
        assert check_totals(tree, counters, random_boxes(SplitMix64(n * d), d, span, 40),
                            monkeypatch) > 0

    @given(fuzz_workload().filter(lambda workload: workload[0] >= 2))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_trees(self, workload):
        d, rows, boxes = workload
        counters = BuildCounters()
        tree = build(PointSet.from_coords(rows), counters)
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_totals(tree, counters, [QueryBox(lo, hi) for lo, hi in boxes], monkeypatch)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 65])
    def test_d2_totals_are_exact(self, n):
        # at d = 2 each bound but the walk's is the count itself at n = L - 1
        # or n = L: the root's min(n + 1, L) entries per row
        counters = BuildCounters()
        tree = build(gen_points(GeneratorConfig(seed=n, n=n, dims=2)), counters)
        L = pow2ceil(n)
        H, keep = L.bit_length() - 1, min(n + 1, L)
        assert stored_totals(tree) == (keep * H, keep, keep * H)
        assert counters.merge_moves == L * H == total_bounds(n, 2)[3]


# Box bounds that are not float64 values: ints beyond 2^53, Fractions and
# Decimals between two floats, numpy scalars, bools, signed zeros and
# subnormals.  A coordinate or a bound is rounded to float64 by the same rule.
EXACT_VALUES = (st.integers(2**53 + 1, 2**80) | st.integers(-2**80, -2**53 - 1)
                | st.fractions(-10**6, 10**6, max_denominator=10**9)
                | st.decimals(-10**20, 10**20, allow_nan=False, allow_infinity=False)
                | st.integers(-2**63, 2**63 - 1).map(np.int64)
                | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
                | st.booleans() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]))


@st.composite
def exact_workload(draw):
    """(d, rows, boxes) whose coordinates and box bounds are drawn from one pool of EXACT_VALUES."""
    d = draw(st.integers(1, 3))
    value = st.sampled_from(draw(st.lists(EXACT_VALUES, min_size=1, max_size=6)))
    coord = st.tuples(*[value] * d)
    rows = draw(st.lists(coord, min_size=1, max_size=20))
    return d, rows, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))


class TestBoundsAreFloat64:
    @given(exact_workload())
    @settings(max_examples=200, deadline=None)
    def test_tree_equals_oracle_on_any_real_bound(self, workload):
        # a bound is stored as its float64, so the tree bisects the value
        # the oracle compares, and a bound that equals a point's value as
        # given finds that point
        d, rows, boxes = workload
        ps = PointSet.from_coords(rows)
        tree = build(ps)
        for lo, hi in boxes:
            box = QueryBox(lo, hi)
            want = brute_force_query(ps, box)
            assert tree.query(box) == want and tree.count(box) == len(want)
            assert all(type(v) is float for v in box.lo + box.hi)
        for row in rows:
            box = QueryBox(row, row)
            assert tree.count(box) == len(brute_force_query(ps, box)) >= 1

    @pytest.mark.parametrize("coords,lo,hi", [
        ([[2**53 + 1, 0.0], [0.0, 0.0]], (2**53 + 1, 0), (2**53 + 1, 0)),
        ([[1 / 3, 0.0], [0.1, 0.0]], (Fraction(1, 3), 0), (1, 0)),
        ([[1 / 3, 0.0], [0.1, 0.0]], (Decimal(1) / Decimal(3), 0), (1, 0)),
    ])
    def test_bounds_between_floats(self, coords, lo, hi):
        ps = PointSet.from_coords(coords)
        tree, box = build(ps), QueryBox(lo, hi)
        want = brute_force_query(ps, box)
        assert [p.id for p in want] == [0]
        assert tree.query(box) == want and tree.count(box) == 1
