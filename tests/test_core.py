import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertree import (
    DimensionMismatch,
    EmptyInput,
    Point,
    PointSet,
    QueryBox,
    brute_force_query,
    build,
)
from layertree.core import box_contains, composite_key

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_coord = st.integers(min_value=0, max_value=3).map(float)


def P(*coords, id=0):
    return Point(tuple(float(c) for c in coords), id)


class TestCompareComposite:
    # the composite order is the order of composite_key tuples
    def test_coordinate_tie_breaks_on_tuple(self):
        assert composite_key(P(1, 2, id=0), 0) < composite_key(P(1, 3, id=1), 0)

    def test_identical_point_is_equal(self):
        p = P(1, 2, id=0)
        assert composite_key(p, 1) == composite_key(p, 1)

    def test_coordinate_decides(self):
        assert composite_key(P(5, 0, id=2), 0) > composite_key(P(3, 9, id=0), 0)

    def test_id_is_final_tiebreak(self):
        a, b = P(1, 2, id=0), P(1, 2, id=1)
        assert composite_key(a, 0) < composite_key(b, 0)

    def test_dim_out_of_range(self):
        with pytest.raises(IndexError):
            composite_key(P(1, 2), 2)


class TestBoxContains:
    def test_interior_point(self):
        assert box_contains(QueryBox((0, 0), (2, 2)), P(1, 1))

    def test_closed_boundary(self):
        assert box_contains(QueryBox((0, 0), (2, 2)), P(2, 2))

    def test_empty_interval(self):
        assert not box_contains(QueryBox((3, 0), (2, 2)), P(1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            box_contains(QueryBox((0,), (1,)), P(0, 0))

    @given(
        st.lists(finite, min_size=3, max_size=3),
        st.lists(finite, min_size=3, max_size=3),
        st.lists(finite, min_size=3, max_size=3),
    )
    def test_agrees_with_interval_conjunction(self, lo, hi, coords):
        box = QueryBox(tuple(lo), tuple(hi))
        p = Point(tuple(coords), 0)
        expected = all(l <= c <= h for l, c, h in zip(lo, coords, hi))
        assert box_contains(box, p) == expected


class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            Point((1.0, bad), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_box_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            QueryBox((0.0, bad), (1.0, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: Point((10**400,), 0),
        lambda: QueryBox((10**400,), (1.0,)),
        lambda: PointSet.from_coords([(1.0,), (10**400,)]),
    ], ids=["point", "box", "from_coords"])
    def test_huge_coordinate_is_value_error(self, make):
        # 10**400 overflows a float: a ValueError that names it, not an OverflowError
        with pytest.raises(ValueError, match="1" + "0" * 400):
            make()

    def test_box_needs_matching_arity(self):
        with pytest.raises(DimensionMismatch):
            QueryBox((0.0,), (1.0, 2.0))

    def test_pointset_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            PointSet([P(1, id=0), P(1, 2, id=1)], 1)

    def test_pointset_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            PointSet([P(1, id=0), P(2, id=0)], 1)
        with pytest.raises(ValueError):
            PointSet([P(1, id=0), P(2, id=5)], 1)

    def test_pointset_accepts_any_id_order(self):
        ps = PointSet([P(2, id=1), P(1, id=0)], 1)
        assert [p.id for p in ps.by_id] == [0, 1]

    def test_shuffled_pointset_iterates_in_id_order(self):
        pts = [P(i % 7, i % 3, id=i) for i in range(40)]
        shuffled = list(pts)
        random.Random(5).shuffle(shuffled)
        ps = PointSet(shuffled, 2)
        assert list(ps) == ps.points == ps.by_id == pts
        assert ps.coord_matrix().tolist() == [list(p.coords) for p in pts]

    def test_pointset_owns_its_points(self):
        # changing the caller's list afterwards changes nothing in the set
        pts = [P(1, 2, id=0), P(3, 4, id=1)]
        ps = PointSet(pts, 2)
        want = list(pts)
        pts.append(Point((9.0, 9.0), 7))
        pts[0] = Point((5.0, 5.0), 0)
        assert len(ps) == 2
        assert ps.points == ps.by_id == list(ps) == want
        assert ps.by_id[0] is want[0]
        assert ps.coord_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_from_coords_takes_an_ndarray(self):
        coords = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        ps = PointSet.from_coords(coords)
        assert ps.dims == 2
        assert [p.coords for p in ps.by_id] == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
        assert PointSet.from_coords(np.zeros((3, 2))).dims == 2

    def test_from_coords_empty_ndarray(self):
        with pytest.raises(EmptyInput):
            PointSet.from_coords(np.zeros((0, 3)))
        ps = PointSet.from_coords(np.zeros((0, 3)), dims=3)
        assert len(ps) == 0 and ps.dims == 3


def per_point(rows, dims=None) -> PointSet:
    """The per-point reference: one checked Point per row, handed to PointSet()."""
    pts = [Point(tuple(float(c) for c in row), i) for i, row in enumerate(rows)]
    return PointSet(pts, len(pts[0].coords) if dims is None else dims)


def live_points() -> int:
    return sum(type(o) is Point for o in gc.get_objects())


HUGE = "1" + "0" * 400


class TestMatrixPath:
    # from_coords keeps one checked float64 matrix and makes no Point; its
    # coordinates must be the per-point path's, bit for bit
    @pytest.mark.parametrize("coords", [
        [(-0.0, 0.0), (5e-324, -5e-324), (1.7e308, -1.7e308)],
        [[2**53 + 1, 2**63 + 1], [-(2**63 + 1), 3]],
        ((0.5, -0.0), [1, 2]),
        np.array([[2**53 + 1, -(2**62) - 1], [2**63 - 1, 0]], dtype=np.int64),
        np.array([[0.1, -0.0], [3.4e38, 1e-45]], dtype=np.float32),
    ], ids=["extremes", "big-ints", "tuple-and-list", "int64", "float32"])
    def test_same_coordinates_as_per_point_path(self, coords):
        before = live_points()
        ps = PointSet.from_coords(coords)
        assert live_points() == before
        want = [[c.hex() for c in p.coords] for p in per_point(coords).by_id]
        assert [[c.hex() for c in row] for row in ps.coord_matrix().tolist()] == want
        assert [[c.hex() for c in p.coords] for p in ps.by_id] == want

    @pytest.mark.parametrize("coords, dims, exc, msg", [
        ([(1.0, 2.0), (math.nan, 0.0)], None, ValueError, "non-finite coordinate nan in point 1"),
        ([(1.0, 2.0), (0.0, math.inf)], None, ValueError, "non-finite coordinate inf in point 1"),
        ([(-math.inf, 2.0)], None, ValueError, "non-finite coordinate -inf in point 0"),
        (np.array([[1.0], [np.inf]], dtype=np.float32), None, ValueError,
         "non-finite coordinate inf in point 1"),
        ([(1.0,), (10**400,)], None, ValueError, f"coordinate {HUGE} overflows a float"),
        ([(1.0, 2), (3, -10**400)], 2, ValueError, f"coordinate -{HUGE} overflows a float"),
        ([(1.0, 2.0), (3.0,)], None, DimensionMismatch, "point 1 has 1 coordinates, expected 2"),
        ([(1.0,), (3.0, 4.0)], None, DimensionMismatch, "point 1 has 2 coordinates, expected 1"),
        ([(), ()], None, ValueError, "point needs at least one coordinate"),
        (np.zeros((2, 0)), None, ValueError, "point needs at least one coordinate"),
        ([(1.0, 2.0)], 3, DimensionMismatch, "point 0 has 2 coordinates, expected 3"),
        (np.zeros((2, 3)), 2, DimensionMismatch, "point 0 has 3 coordinates, expected 2"),
        ([], None, EmptyInput, "cannot infer dimensionality of an empty point set"),
        (np.zeros((0, 2)), None, EmptyInput, "cannot infer dimensionality of an empty point set"),
        (np.array([["2017-01-01"]], dtype="datetime64[D]"), None, TypeError,
         "float() argument must be a string or a real number, not 'datetime.date'"),
    ], ids=["nan", "inf", "-inf", "inf-float32", "huge", "-huge", "ragged-short",
            "ragged-long", "zero-width", "zero-width-ndarray", "dims", "dims-ndarray",
            "empty", "empty-ndarray", "dates"])
    def test_errors_are_the_per_point_paths(self, coords, dims, exc, msg):
        with pytest.raises(exc) as info:
            PointSet.from_coords(coords, dims)
        assert type(info.value) is exc and str(info.value) == msg

    def test_empty_with_dims_is_an_empty_set(self):
        ps = PointSet.from_coords([], 2)
        assert len(ps) == 0 and ps.dims == 2 and ps.by_id == [] and list(ps) == []

    def test_copies_an_ndarray(self):
        coords = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
        ps = PointSet.from_coords(coords)
        tree, box = build(ps), QueryBox((0.0, 0.0), (4.0, 5.0))
        coords[:] = 9.0
        assert [p.coords for p in tree.query(box)] == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
        assert tree.count(box) == 3
        assert [p.coords for p in brute_force_query(ps, box)] == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
        assert not ps.coord_matrix().flags.writeable

    def test_points_by_id_and_iteration_give_every_point_in_id_order(self):
        rows = [(3.0, 1.0), (1.0, 2.0), (2.0, 0.5)]
        for first in ("points", "by_id", "iter"):
            ps = PointSet.from_coords(rows)
            got = list(ps) if first == "iter" else getattr(ps, first)
            assert got == [Point(r, i) for i, r in enumerate(rows)]
            assert ps.points == ps.by_id == list(ps) == got

    def test_repeat_queries_return_the_same_points(self):
        ps = PointSet.from_coords([(i % 7, i % 5) for i in range(60)])
        tree, box = build(ps), QueryBox((1.0, 1.0), (4.0, 3.0))
        first, again = tree.query(box), tree.query(box)
        assert len(first) > 10
        assert all(a is b for a, b in zip(first, again))
        assert all(p is ps.by_id[p.id] for p in first)
        assert brute_force_query(ps, box) == first
        assert all(a is b for a, b in zip(brute_force_query(ps, box), first))

    def test_build_and_count_make_no_point(self):
        rows = [(i % 7, i % 5, i % 3) for i in range(200)]
        # a collection during build would free Points that earlier tests left
        # in cyclic garbage and lower the count; collect them first
        gc.collect()
        before = live_points()
        ps = PointSet.from_coords(rows)
        tree = build(ps)
        assert tree.count(QueryBox((1.0, 1.0, 0.0), (4.0, 3.0, 2.0))) > 0
        assert live_points() == before
        assert len(tree.query(QueryBox((1.0, 1.0, 0.0), (4.0, 3.0, 2.0)))) > 0
        assert live_points() > before


@st.composite
def point_sets(draw, dims=2, max_n=40):
    # duplicate-heavy coordinates to stress the tiebreak path
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(
        st.lists(
            st.tuples(*([small_coord] * dims)), min_size=n, max_size=n
        )
    )
    return [Point(tuple(r), i) for i, r in enumerate(rows)]


class TestTotalOrder:
    @given(point_sets(), st.integers(min_value=0, max_value=1))
    def test_strict_total_order(self, pts, dim):
        keys = sorted(composite_key(p, dim) for p in pts)
        for a, b in zip(keys, keys[1:]):
            assert a < b

    @given(point_sets(), st.integers(min_value=0, max_value=1), st.randoms())
    @settings(max_examples=50)
    def test_sort_is_permutation_invariant(self, pts, dim, rnd):
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        key = lambda p: composite_key(p, dim)
        assert sorted(shuffled, key=key) == sorted(pts, key=key)

    @given(point_sets(dims=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=50)
    def test_no_two_distinct_points_equal(self, pts, dim):
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert composite_key(a, dim) != composite_key(b, dim)
