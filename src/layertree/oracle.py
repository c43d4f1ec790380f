"""Ground-truth brute-force range search and a deterministic workload generator.

The generator runs on splitmix64 so identical configs produce bit-identical
point sets on any platform.  brute_force_query is the independent oracle every
structural claim is tested against; it never touches the tree code.
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


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state by one step; returns (new_state, output).

    All arithmetic wraps mod 2^64.
    """
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


class SplitMix64:
    """Stateful convenience wrapper around splitmix64_next."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state, out = splitmix64_next(self.state)
        return out

    def next_float(self) -> float:
        """Uniform in [0, 1): output / 2^64."""
        return self.next_u64() / _TWO64

    def next_floats(self, count: int) -> np.ndarray:
        """The next `count` next_float() draws as one float64 array, bit for bit.

        The state after k steps is state + k*gamma, so the outputs come from
        _splitmix64_stream and the state jumps ahead by count*gamma.
        """
        out = _splitmix64_stream(self.state, count).astype(np.float64) / _TWO64
        self.state = (self.state + count * _GAMMA) & _MASK64
        return out

    def next_below(self, bound: int) -> int:
        """Output mod bound (bound >= 1); biased but fine for test workloads."""
        return self.next_u64() % bound


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic workload description.

    dist "uniform" draws each coordinate in [0, 1); dist "grid" draws integers
    in [0, grid_side) (duplicates likely, which is the point).
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
    """The first `count` outputs of SplitMix64(seed) as a uint64 array.

    splitmix64_next vectorized: the k-th state is seed + k*gamma, and uint64
    arithmetic wraps mod 2^64 as the scalar code masks.
    """
    z = np.uint64(seed & _MASK64) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def gen_points(cfg: GeneratorConfig) -> PointSet:
    """Draw cfg.n points coordinate-by-coordinate from one splitmix64 stream.

    Ids are 0..n-1 in generation order.  Bit-reproducible for a given cfg,
    and bit-identical to drawing each coordinate with SplitMix64.next_float
    (uniform) or float(next_below(grid_side)) (grid).
    """
    out = _splitmix64_stream(cfg.seed, cfg.n * cfg.dims).reshape(cfg.n, cfg.dims)
    if cfg.dist == "uniform":
        coords = out.astype(np.float64) / _TWO64
    else:  # a side past the uint64 range leaves each draw as it is, as next_below does
        g = cfg.grid_side
        coords = (out if g > _MASK64 else out % np.uint64(g)).astype(np.float64)
    return PointSet.from_coords(coords, cfg.dims)


def brute_force_query(points: PointSet, box: QueryBox) -> list[Point]:
    """Linear filter of the point set by box containment, sorted by id.

    Vectorized over the coordinate matrix; only the hits are made Points.
    The result is identical to filtering with box_contains point by point.
    """
    if box.dims != points.dims:
        raise DimensionMismatch(
            f"box of dimension {box.dims}, point set of dimension {points.dims}"
        )
    if len(points) == 0:
        return []
    m = points.coord_matrix()
    lo = np.asarray(box.lo, dtype=np.float64)
    hi = np.asarray(box.hi, dtype=np.float64)
    mask = np.all((m >= lo) & (m <= hi), axis=1)
    return points.take(np.flatnonzero(mask).tolist())
