"""Points, query boxes and the composite total order shared by every structure.

All coordinates are finite 64-bit floats.  A point set is one checked n-by-d
float64 matrix, row i holding point i.  Below the two calls that return
Points (LayeredRangeTree.query, brute_force_query) nothing knows a Point:
the structures hold labels and ranks, build() reads only the matrix, and a
Point is made only for a hit a caller asks for (PointSet.take, which
checks the caller's ids, or PointSet._points for the tree's own).  Ties
between equal coordinates are broken by the full coordinate tuple and then
by the point id, so any point set is strictly totally ordered in every
dimension j: by coordinate j, then the coordinate tuple, then the id.  The
structures never compare these keys: the rows are sorted once by (coords,
id), each dimension's order is that row order under its own coordinate
(cascade.rank_tables), and a point is known by its rank in each
dimension's order; its rank in the last one is its label.  A query box
maps to a half-open rank interval [a, b) per dimension, the points whose
coordinate lies in [lo, hi]; padding leaves rank after every real point,
so they never match.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """A point, box or structure was combined with data of a different dimensionality."""


class EmptyInput(ValueError):
    """An operation that needs at least one data item received none."""


class TooManyPoints(ValueError):
    """A point set too large for the int32 ids and ranks of a tree."""


@dataclass(frozen=True)
class Point:
    """A d-tuple of finite coordinates plus a stable id."""

    coords: tuple[float, ...]
    id: int

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("point needs at least one coordinate")
        if self.id < 0:
            raise ValueError("point id must be nonnegative")
        try:
            for c in self.coords:
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coordinate {c!r} in point {self.id}")
        except OverflowError:
            raise ValueError(f"coordinate {c!r} in point {self.id} overflows a float") from None

    @classmethod
    def _unchecked(cls, coords: tuple[float, ...], id: int) -> "Point":
        """A Point whose coordinates are already known to be finite floats: a checked matrix row."""
        p = cls.__new__(cls)
        p.__dict__.update(coords=coords, id=id)
        return p

    @property
    def dims(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class QueryBox:
    """Closed axis-aligned box: one [lo_j, hi_j] interval per dimension.

    lo_j > hi_j is legal and denotes an empty interval in that dimension.
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

    @property
    def dims(self) -> int:
        return len(self.lo)


class PointSet:
    """An immutable collection of points sharing one dimensionality.

    Ids are exactly 0..n-1 (in any order: a shuffled permutation of a point
    set is the same set).  The point set is its read-only n-by-d float64
    coordinate matrix, row i for id i (coord_matrix); build() reads only
    that.  Use from_coords() to make one from raw rows: the rows are copied
    into the matrix and checked once, and a Point is made only when a caller
    asks for its id (point, take), then kept, so repeat requests return the
    same object.  PointSet(points, dims) checks ready-made Points and builds
    the matrix from them; it keeps no reference to the caller's sequence, so
    changing that afterwards changes nothing here.  `points` and iteration
    give all n Points in id order, making those not made yet.
    Parsers and generators renumber on ingestion.
    """

    def __init__(self, points: Sequence[Point], dims: int):
        n = len(points)
        by_id: list = [None] * n
        for p in points:
            if p.dims != dims:
                raise DimensionMismatch(f"point {p.id} has {p.dims} coordinates, expected {dims}")
            if p.id >= n or by_id[p.id] is not None:
                raise ValueError(f"point ids must form 0..{n - 1} without repeats")
            by_id[p.id] = p
        m = np.array([p.coords for p in by_id], dtype=np.float64).reshape(n, dims)
        self._adopt(m, by_id)

    @classmethod
    def _of_matrix(cls, m: np.ndarray) -> "PointSet":
        """A point set over a checked (n, d) float64 matrix of finite values, n, d >= 1."""
        ps = cls.__new__(cls)
        ps._adopt(m, [None] * len(m))
        return ps

    def _adopt(self, m: np.ndarray, by_id: list) -> None:
        m.flags.writeable = False
        self.dims = m.shape[1]
        self._matrix = m
        self._by_id = by_id  # the Points made so far, by id; None for one not made yet

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> list:
        """Every Point, in id order."""
        return self.take(range(len(self)))

    def point(self, i: int) -> Point:
        """The Point of id i, made from matrix row i on first request.

        Raises IndexError unless 0 <= i < n, so no Point is made or kept
        under an id that is not its row.
        """
        i = operator.index(i)  # a numpy integer id is kept as the int it stands for
        if not 0 <= i < len(self._by_id):
            raise IndexError(f"point id {i} outside 0..{len(self._by_id) - 1}")
        p = self._by_id[i]
        if p is None:  # two threads may both make one; they are equal, and either is kept
            p = self._by_id[i] = Point._unchecked(tuple(self._matrix[i].tolist()), i)
        return p

    def take(self, ids: Sequence[int]) -> list:
        """The Points of a sequence of ids, in its order; each made on first request.

        The public entry, so it checks the caller's ids: it raises
        IndexError for an id outside 0..n-1.  One min() over the ids refuses
        one below 0, and _points' indexing of the list of Points one >= n.
        """
        if len(ids) and min(ids) < 0:  # an ndarray has no truth value; min's default= costs more
            raise IndexError(f"point id {min(ids)} outside 0..{len(self._by_id) - 1}")
        return self._points(ids)

    def _points(self, ids: Sequence[int]) -> list:
        """take without its check: for ids a caller knows are in 0..n-1.

        LayeredRangeTree.query reads its ids from its own id map, so it
        skips take's scan.  A negative id would index from the end, so only
        callers whose ids are valid by construction call this.  A call whose
        Points are all made does no Python work per id.
        """
        out = list(map(self._by_id.__getitem__, ids))
        if all(out):  # a Point is true, a slot not made yet is None
            return out
        point = self.point
        return [p or point(i) for p, i in zip(out, ids)]

    @classmethod
    def from_coords(cls, coords: Sequence[Sequence[float]], dims: Optional[int] = None) -> "PointSet":
        """A point set whose point i has the coordinates of row i of `coords` (copied).

        The rows are converted into one float64 matrix and checked at once.
        If that fails, they are made into Points one by one, which raises
        the error of the first bad row.
        """
        # an ndarray of strings, objects or dates takes the per-point path,
        # whose float() defines their conversion
        if getattr(coords, "dtype", np.dtype(np.float64)).kind in "biuf":
            try:
                m = np.array(coords, dtype=np.float64, order="C")
            except (TypeError, ValueError, OverflowError):
                pass
            else:
                if (m.ndim == 2 and m.size and dims in (None, m.shape[1])
                        and np.isfinite(m).all()):
                    return cls._of_matrix(m)
        if dims is None:
            if len(coords) == 0:  # an (n, d) ndarray has no truth value
                raise EmptyInput("cannot infer dimensionality of an empty point set")
            dims = len(coords[0])
        try:
            pts = [Point(tuple(float(c) for c in row), i) for i, row in enumerate(coords)]
        except OverflowError:
            big = next(c for row in coords for c in row if abs(c) > sys.float_info.max)
            raise ValueError(f"coordinate {big!r} overflows a float") from None
        return cls(pts, dims)

    def coord_matrix(self) -> np.ndarray:
        """The read-only n-by-d float64 matrix of coordinates in id order."""
        return self._matrix
