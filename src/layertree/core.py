"""Points, query boxes and the composite total order shared by every structure.

All coordinates are finite 64-bit floats.  Ties between equal coordinates are
broken by the full coordinate tuple and then by the point id, so any point set
is strictly totally ordered in every dimension (composite_key).  The
structures never compare these keys: each dimension is sorted once, and a
point is known by its rank in that order.  A query box maps to a half-open
rank interval [a, b) per dimension, the points whose coordinate lies in
[lo, hi]; padding leaves rank after every real point, so they never match.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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

    @property
    def dims(self) -> int:
        return len(self.coords)


def composite_key(p: Point, dim: int) -> tuple:
    """Sort key of `p` in dimension `dim`: coordinate, then full tuple, then id.

    This defines each dimension's strict total order; cascade.rank_table
    sorts by it, and no two distinct points have equal keys.
    """
    return (p.coords[dim], p.coords, p.id)


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


def box_contains(box: QueryBox, p: Point) -> bool:
    """True iff lo_j <= p.coords[j] <= hi_j for every dimension j."""
    if box.dims != p.dims:
        raise DimensionMismatch(f"box of dimension {box.dims}, point of dimension {p.dims}")
    return all(l <= c <= h for l, c, h in zip(box.lo, p.coords, box.hi))


@dataclass
class PointSet:
    """An immutable collection of points sharing one dimensionality.

    Ids are exactly 0..n-1 (in any order: a shuffled permutation of a point
    set is the same set).  Use from_coords() to build one from raw tuples;
    parsers and generators renumber on ingestion.
    """

    points: list[Point]
    dims: int
    _by_id: Optional[list] = field(default=None, repr=False, compare=False)
    _matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.points)
        by_id: list = [None] * n
        for p in self.points:
            if p.dims != self.dims:
                raise DimensionMismatch(
                    f"point {p.id} has {p.dims} coordinates, expected {self.dims}"
                )
            if p.id >= n or by_id[p.id] is not None:
                raise ValueError(f"point ids must form 0..{n - 1} without repeats")
            by_id[p.id] = p
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def by_id(self) -> list:
        """Points indexed by id."""
        return self._by_id

    @classmethod
    def from_coords(cls, coords: Sequence[Sequence[float]], dims: Optional[int] = None) -> "PointSet":
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
        """n-by-d float64 matrix of coordinates in id order, built lazily and cached."""
        if self._matrix is None:
            self._matrix = np.array(
                [p.coords for p in self._by_id], dtype=np.float64
            ).reshape(len(self.points), self.dims)
        return self._matrix
