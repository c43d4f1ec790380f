"""Static d-dimensional orthogonal range searching with layered range trees.

Build once over a PointSet, then report or count the points inside closed
axis-aligned boxes.  The last two dimensions use fractional cascading, so a 2D
query performs exactly one binary search; higher dimensions pay one O(log n)
canonical decomposition per extra level.  Each dimension is sorted once into
an int32 rank per point, the only key the structures compare; a query box is
mapped to rank intervals once, with two bisections per dimension.  Every
tree, a level's or a cascade's x-tree, is implicit in one padded leaf row
sorted by rank and searched by one split descent (cascade._find_split).
Every array built from the sorts comes out of one bottom-up merge, run in
batches over all same-size structures of a dimension (cascade.merge_rows);
build() is the one way to make a structure.
"""

from .cascade import CascadeNode, CascadeStructure
from .core import (
    DimensionMismatch,
    EmptyInput,
    Point,
    PointSet,
    QueryBox,
    box_contains,
    composite_key,
)
from .oracle import GeneratorConfig, SplitMix64, brute_force_query, gen_points, splitmix64_next
from .tree import BuildCounters, LayeredRangeTree, QueryStats, build, canonical_subtrees

__all__ = [
    "BuildCounters",
    "CascadeNode",
    "CascadeStructure",
    "DimensionMismatch",
    "EmptyInput",
    "GeneratorConfig",
    "LayeredRangeTree",
    "Point",
    "PointSet",
    "QueryBox",
    "QueryStats",
    "SplitMix64",
    "box_contains",
    "brute_force_query",
    "build",
    "canonical_subtrees",
    "composite_key",
    "gen_points",
    "splitmix64_next",
]

__version__ = "0.1.0"
