"""Seeded workload inputs and their expected answers, computed without layertree.

Every workload is a coordinate matrix plus a batch of closed boxes (lo, hi),
drawn from numpy's PCG64 stream keyed by (seed, workload).  The expected id
set of each box comes from a plain numpy filter of the raw coordinate matrix,
so the benchmark never trusts the code it measures to check itself.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    # The library passes time only the first lib_boxes boxes, so a pass is short
    # and one fast phase of the host reaches every box (see run.py); the CLI
    # answers all of them.
    lib_boxes: int
    draw: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _uniform2d(rng):
    # n=1e5 uniform points, 2000 square boxes of selectivity 1e-3 (k ~ 100):
    # one big cascade, reports dominated by emission and the sort by id.
    n, q, sel = 100_000, 2000, 1e-3
    side = sel ** 0.5
    coords = rng.random((n, 2))
    lo = rng.random((q, 2)) * (1.0 - side)
    return coords, lo, lo + side


def _grid3d(rng):
    # n=3e4 points on a 32^3 integer grid (~0.9 points per cell, so heavy
    # duplicates); 2000 boxes spanning 4 grid values per axis with bounds on
    # occupied values (k ~ 59): the _Level path, ~13 cascades per box.
    n, q, g, span = 30_000, 2000, 32, 3
    coords = rng.integers(0, g, (n, 3)).astype(np.float64)
    lo = rng.integers(0, g - span, (q, 3)).astype(np.float64)
    return coords, lo, lo + span


def _cli_narrow2d(rng):
    # n=2e4 uniform points, 2e4 narrow boxes (k ~ 4): search-bound library
    # calls, and a CLI run dominated by its per-box loop and query parsing.
    n, q, k = 20_000, 20_000, 4.0
    side = (k / n) ** 0.5
    coords = rng.random((n, 2))
    lo = rng.random((q, 2)) * (1.0 - side)
    return coords, lo, lo + side


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform2d", 200, _uniform2d),
        Workload("grid3d", 150, _grid3d),
        Workload("cli_narrow2d", 400, _cli_narrow2d),
    )
}


@dataclass
class Inputs:
    dims: int
    coords: np.ndarray      # n x d float64, row i is point id i
    lo: np.ndarray          # q x d box lower corners
    hi: np.ndarray          # q x d box upper corners
    expected: list          # per box: ascending list of ids inside it


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Draw the workload's points and boxes for `seed`, and their answers."""
    salt = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed % 2**64, salt])
    coords, lo, hi = workload.draw(rng)
    return Inputs(coords.shape[1], coords, lo, hi, expected_ids(coords, lo, hi))


def expected_ids(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list:
    """Ascending ids of the rows of `coords` inside each closed box [lo_i, hi_i].

    Rows are pre-sliced by the first coordinate with two searchsorted calls,
    then filtered on every coordinate, so the result equals a full-matrix
    filter (the tests check this).
    """
    order = np.argsort(coords[:, 0], kind="stable")
    xs = coords[order, 0]
    a = np.searchsorted(xs, lo[:, 0], side="left")
    b = np.searchsorted(xs, hi[:, 0], side="right")
    out = []
    for i in range(len(lo)):
        cand = order[a[i]:b[i]]
        inside = np.all((coords[cand] >= lo[i]) & (coords[cand] <= hi[i]), axis=1)
        out.append(np.sort(cand[inside]).tolist())
    return out


def points_text(coords: np.ndarray) -> str:
    """Point file text; repr() of a float round-trips exactly."""
    return "".join(",".join(map(repr, row)) + "\n" for row in coords.tolist())


def queries_text(lo: np.ndarray, hi: np.ndarray) -> str:
    """Query file text: lo_1..lo_d hi_1..hi_d per line."""
    return "".join(" ".join(map(repr, a + b)) + "\n" for a, b in zip(lo.tolist(), hi.tolist()))

