"""Ground-truth brute-force range search and a deterministic workload generator.

The generator is splitmix64, computed for a whole stream at once
(_splitmix64_stream), so identical configs produce bit-identical point sets
on any platform; the scalar recurrence it is tested against lives in
tests/structure_dump.py.  brute_force_query is the independent oracle every
structural claim is tested against; it never touches the tree code, and
its hits are made Points by the point set, as the tree's are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Point, PointSet, QueryBox

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = float(2**64)


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic workload description.

    dist "uniform" draws each coordinate in [0, 1]: a uint64 draw over 2^64,
    which rounds to exactly 1.0 for draws of 2^64 - 1024 or more (odds about
    2^-54 per draw); dist "grid" draws integers in [0, grid_side) (duplicates
    likely, which is the point).
    """

    seed: int
    n: int
    dims: int
    dist: str = "uniform"
    grid_side: int = 16

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.dist not in ("uniform", "grid"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.dist == "grid" and self.grid_side < 1:
            raise ValueError("grid side must be >= 1")


def _splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """The first `count` outputs of splitmix64 seeded with `seed`, as a uint64 array.

    Step k's state is seed + k*gamma, so every step is computed at once;
    uint64 arithmetic wraps mod 2^64 as the recurrence does.
    """
    z = np.uint64(seed & _MASK64) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def gen_points(cfg: GeneratorConfig) -> PointSet:
    """Draw cfg.n points coordinate-by-coordinate from one splitmix64 stream.

    Ids are 0..n-1 in generation order.  Bit-reproducible for a given cfg:
    a uniform coordinate is output / 2^64 and a grid one output mod
    grid_side, as the scalar reference in tests/structure_dump.py draws them.
    """
    out = _splitmix64_stream(cfg.seed, cfg.n * cfg.dims).reshape(cfg.n, cfg.dims)
    if cfg.dist == "uniform":
        coords = out.astype(np.float64) / _TWO64
    else:  # a side past the uint64 range leaves each draw as it is
        g = cfg.grid_side
        coords = (out if g > _MASK64 else out % np.uint64(g)).astype(np.float64)
    return PointSet.from_coords(coords)


def brute_force_query(points: PointSet, box: QueryBox) -> list[Point]:
    """Linear filter of the point set by box containment, sorted by id.

    Vectorized over the coordinate matrix; only the hits are made Points,
    by PointSet._points, whose ids the hit mask makes valid.  The result is
    identical to testing lo_j <= c_j <= hi_j point by point.
    """
    if box.dims != points.dims:
        raise DimensionMismatch(
            f"box of dimension {box.dims}, point set of dimension {points.dims}"
        )
    m = points.coord_matrix()
    lo = np.asarray(box.lo, dtype=np.float64)
    hi = np.asarray(box.hi, dtype=np.float64)
    mask = np.all((m >= lo) & (m <= hi), axis=1)
    return points._points(np.flatnonzero(mask).tolist())
