"""Static d-dimensional orthogonal range searching with layered range trees.

Build once over a PointSet, then report or count the points inside closed
axis-aligned boxes.  A PointSet is one checked n-by-d float64 coordinate
matrix; build() reads only the matrix, the structures hold only labels and
ranks, and a Point object is made only for a reported hit, once per id.  The
last two dimensions use fractional cascading, so a 2D query performs exactly
one binary search; higher dimensions pay one O(log n) canonical
decomposition per extra level.  The points are sorted once by (coords, id);
each dimension orders them by its coordinate, then that shared row rank.  A
point's label is its rank in the last dimension, and an int32 table per
other dimension ranks each label; labels and ranks are the only keys the
structures compare, and the tree maps labels to ids only for a query's hits
(cascade.rank_tables).  A query box is mapped to rank intervals once, with
two bisections per dimension.  Every tree, a level's or a cascade's x-tree,
is implicit in one padded leaf row sorted by rank and searched by one split
descent and one boundary walk (cascade._find_split, cascade._walk); only a
cascade's walk carries y positions along bridges.  The same-size structures
of a dimension form one merge group: one object, built by one batched
bottom-up merge (cascade.merge_rows: a stable argsort per row, whose
permutation gives each cascade bridge in closed form), whose members are
(group, member) pairs that every group kind queries and counts alike.  Only
the level nodes a query can take as canonical get an associated structure,
and a level finds one by arithmetic on the node's slot.  build() is the one
way to make a structure.

The package exports what the CLI, the benchmark and the cost laws use.
Structure internals such as cascade.CascadeStructure and helpers such as
core.composite_key are imported from their modules.
"""

from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, TooManyPoints
from .oracle import GeneratorConfig, SplitMix64, brute_force_query, gen_points
from .tree import BuildCounters, LayeredRangeTree, QueryStats, build, canonical_subtrees

__all__ = [
    "BuildCounters",
    "DimensionMismatch",
    "EmptyInput",
    "GeneratorConfig",
    "LayeredRangeTree",
    "Point",
    "PointSet",
    "QueryBox",
    "QueryStats",
    "SplitMix64",
    "TooManyPoints",
    "brute_force_query",
    "build",
    "canonical_subtrees",
    "gen_points",
]

__version__ = "0.1.0"
