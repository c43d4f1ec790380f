"""Points, query boxes and the errors shared by every structure.

All coordinates are finite 64-bit floats.  A point set is one checked n-by-d
float64 matrix, column-major, with n >= 1 rows, row i holding point i, and d
is their width; PointSet.from_coords is the one way to make one.  A Point is
a result, never an input: only the two calls that answer a box
(LayeredRangeTree.query, brute_force_query) return Points, build() reads
only the matrix, and PointSet._points is the one place a Point is made, for
a hit.  Every dimension is strictly totally ordered by the composite order
(see cascade.rank_tables), so the structures know a point only by its rank,
and a query box maps to a half-open rank interval [a, b) per dimension: the
points whose coordinate lies in [lo, hi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """A point, box or structure was combined with data of a different dimensionality."""


class EmptyInput(ValueError):
    """An operation that needs at least one data item received none."""


class TooManyPoints(ValueError):
    """A point set too large for the int32 ids and ranks of a tree."""


@dataclass(frozen=True, slots=True)
class Point:
    """A query result: one PointSet row's coordinates and id, made only by PointSet._points."""

    coords: tuple[float, ...]
    id: int


@dataclass(frozen=True)
class QueryBox:
    """Closed axis-aligned box: one [lo_j, hi_j] interval per dimension.

    lo_j > hi_j is legal and denotes an empty interval in that dimension.
    Each bound is stored as float() of the value given, rounded to a 64-bit
    float as from_coords rounds a coordinate, so an int beyond 2^53, a
    Fraction, a Decimal or a numpy scalar bounds the box the tree and
    brute_force_query both compare.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch(f"lo has {len(self.lo)} entries, hi has {len(self.hi)}")
        if len(self.lo) < 1:
            raise ValueError("box needs at least one dimension")
        try:
            for v in (*self.lo, *self.hi):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite box bound {v!r}")
        except OverflowError:
            raise ValueError(f"box bound {v!r} overflows a float") from None
        object.__setattr__(self, "lo", tuple(map(float, self.lo)))  # the dataclass is frozen
        object.__setattr__(self, "hi", tuple(map(float, self.hi)))

    @property
    def dims(self) -> int:
        return len(self.lo)


class PointSet:
    """An immutable set of n >= 1 points whose dimension is their rows' width.

    The point set is its read-only n-by-d float64 coordinate matrix, row i
    for id i (coord_matrix), kept column-major so that a filter over one
    coordinate reads contiguous memory; build() reads only the matrix.
    from_coords() is the one way to make one: the caller's rows are copied
    into the matrix and checked once, and ids are row positions.  Its
    public surface is from_coords, coord_matrix, dims and len().
    """

    __slots__ = ("dims", "_matrix", "_by_id")

    def __len__(self) -> int:
        return len(self._by_id)

    def _points(self, ids: Sequence[int]) -> list:
        """The Points of ids in 0..n-1, in their order: the one maker of a Point.

        Its callers' ids are valid by construction (the tree's id map, the
        oracle's hit mask), so none is checked; a negative one would index
        from the end.  A Point is made from its matrix row on its first hit
        and kept, so a later hit returns the same object, and a call whose
        Points are all made does no Python work per id.
        """
        out = list(map(self._by_id.__getitem__, ids))
        if all(out):  # a Point is true, a slot not made yet is None
            return out
        m = self._matrix
        for k, i in enumerate(ids):
            if out[k] is None:  # two threads may both make one; they are equal, either is kept
                out[k] = self._by_id[i] = Point(tuple(m[i].tolist()), i)
        return out

    @classmethod
    def from_coords(cls, coords: Sequence[Sequence[float]]) -> "PointSet":
        """A point set whose point i has the coordinates of row i of `coords` (copied).

        The rows are converted into one float64 matrix and checked at once.
        If that fails, _checked_rows converts them row by row, which raises
        the error of the first bad row.
        """
        # an ndarray of strings, objects or dates takes the row-by-row path,
        # whose float() defines their conversion
        try:
            m = (np.array(coords, dtype=np.float64, order="F")
                 if getattr(coords, "dtype", np.dtype(np.float64)).kind in "biuf" else None)
        except (TypeError, ValueError, OverflowError):
            m = None
        if m is None or not (m.ndim == 2 and m.size and np.isfinite(m).all()):
            m = _checked_rows(coords)
        m.flags.writeable = False
        ps = cls.__new__(cls)
        ps.dims, ps._matrix = m.shape[1], m
        ps._by_id = [None] * len(m)  # the Points made so far, by id; None for one not made yet
        return ps

    def coord_matrix(self) -> np.ndarray:
        """The read-only n-by-d float64 matrix of coordinates in id order."""
        return self._matrix


def _checked_rows(coords) -> np.ndarray:
    """from_coords' row-by-row path: the column-major matrix, or the first bad row's error.

    Each row in turn is converted by float(), then must be non-empty and
    finite; only then are the rows' widths checked against the first row's.
    """
    if len(coords) == 0:  # an (n, d) ndarray has no truth value
        raise EmptyInput("cannot infer dimensionality of an empty point set")
    dims = len(coords[0])
    rows = []
    for i, row in enumerate(coords):
        out = []
        for c in row:
            try:
                out.append(float(c))
            except OverflowError:
                raise ValueError(f"coordinate {c!r} overflows a float") from None
        if not out:
            raise ValueError("point needs at least one coordinate")
        for c in out:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate {c!r} in point {i}")
        rows.append(out)
    for i, row in enumerate(rows):
        if len(row) != dims:
            raise DimensionMismatch(f"point {i} has {len(row)} coordinates, expected {dims}")
    return np.array(rows, dtype=np.float64, order="F")
