"""Static d-dimensional orthogonal range searching with layered range trees.

Build once over a PointSet, then report or count the points inside closed
axis-aligned boxes.  The last two dimensions use fractional cascading, so a 2D
query performs exactly one binary search; higher dimensions pay one O(log n)
canonical decomposition per extra level.  Each dimension is sorted once into
an int32 rank per point, the only key the structures compare; a query box is
mapped to rank intervals once, with two bisections per dimension.  Every
array built from those sorts comes out of one bottom-up merge, run in batches
over all same-size structures of a dimension (cascade.merge_rows).
"""

from .cascade import CascadeNode, CascadeStructure, build_cascade
from .core import (
    DimensionMismatch,
    EmptyInput,
    Point,
    PointSet,
    QueryBox,
    box_contains,
    compare_composite,
    composite_key,
)
from .oracle import GeneratorConfig, SplitMix64, brute_force_query, gen_points, splitmix64_next
from .tree import (
    BuildCounters,
    ImplicitTree,
    LayeredRangeTree,
    QueryStats,
    build,
    build_implicit_tree,
    canonical_subtrees,
    find_split_node,
)

__all__ = [
    "BuildCounters",
    "CascadeNode",
    "CascadeStructure",
    "DimensionMismatch",
    "EmptyInput",
    "GeneratorConfig",
    "ImplicitTree",
    "LayeredRangeTree",
    "Point",
    "PointSet",
    "QueryBox",
    "QueryStats",
    "SplitMix64",
    "box_contains",
    "brute_force_query",
    "build",
    "build_cascade",
    "build_implicit_tree",
    "canonical_subtrees",
    "compare_composite",
    "composite_key",
    "find_split_node",
    "gen_points",
    "splitmix64_next",
]

__version__ = "0.1.0"
