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
    box_contains,
    composite_key,
)

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
