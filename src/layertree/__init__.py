"""Static d-dimensional orthogonal range searching with layered range trees.

Build once over a PointSet, then report or count the points inside closed
axis-aligned boxes.  A PointSet is one checked n-by-d float64 coordinate
matrix, made only by PointSet.from_coords; build() reads only the matrix,
the structures hold only labels and ranks, and a Point is only a result,
made for a reported hit, once per id.  The last two dimensions use
fractional cascading, so a 2D query performs exactly one binary search;
higher dimensions pay one O(log n) canonical decomposition per extra level.
The points are sorted once by (coords, id); each dimension orders them by
its coordinate, then that shared row rank.  A point's label is its rank in
the last dimension, and a table for each of dimensions 1..d-2 ranks each
label; dimension 0 needs none, since the root's leaf row is its order.
Labels and ranks are the only keys the structures compare, and the tree
maps labels to ids (cascade.rank_tables) only for a query's hits, by one
numpy gather and sort from tree.GATHER_MIN hits on.  Labels, ranks and
ids are stored at one index width (LayeredRangeTree.code; see Widths in
cascade).  A query box is mapped to rank intervals once, with two
bisections per dimension.
Every tree, a level's or a cascade's x-tree, is implicit in one padded leaf
row sorted by rank and searched by one walk over leaf positions
(cascade._walk): the split node in closed form, then the two boundary
paths, every turn by arithmetic.  At the root a rank interval already is a
position interval; below it, two bisects of the leaf row keyed by rank
place the two bounds, the walk's only rank reads.  Only a cascade's walk takes y
bounds: it bisects the split node's array for them and carries the positions
along bridges.  The walk alone counts work and the tree alone counts results
(QueryStats).  The same-size structures of a dimension form one merge group:
one object, built by one batched bottom-up merge (cascade.merge_rows: a
stable argsort per row, whose permutation gives each cascade bridge in
closed form), whose members are (group, member) pairs that every group kind
queries and counts alike.  Only the level nodes a query can take as canonical
get an associated structure, and a level finds one by arithmetic on the
node's (row, pos) name.  build() is the one way to make a structure.

The package exports what the CLI, the benchmark and the cost laws use.
Structure internals such as cascade.CascadeStructure are imported from their
modules.  PointSet(points, dims) and Point's own checks are gone, and so are
SplitMix64 and oracle.splitmix64_next: gen_points draws from the vectorized
oracle._splitmix64_stream, and the scalar generator it is tested against is
in tests/structure_dump.py.  So are LayeredRangeTree.structures() and
_Level.slots(), which list every structure a tree built: they are
structure_dump's structures(tree) and slots(level, g).  Dimension j orders
points by coordinate j, then coordinates, then id.
"""

from .core import DimensionMismatch, EmptyInput, Point, PointSet, QueryBox, TooManyPoints
from .oracle import GeneratorConfig, brute_force_query, gen_points
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
    "TooManyPoints",
    "brute_force_query",
    "build",
    "canonical_subtrees",
    "gen_points",
]

__version__ = "0.1.0"
