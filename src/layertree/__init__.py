"""Static d-dimensional orthogonal range searching with layered range trees.

Make a PointSet with PointSet.from_coords, build() a LayeredRangeTree over
it once, then report (query) or count (count) the points inside closed
axis-aligned boxes (QueryBox).  The last two dimensions use fractional
cascading, and every further dimension adds one level of a multi-level
tree.  QueryStats and BuildCounters hold the cost counters the paper's laws
are stated on, and canonical_subtrees is the decomposition the
canonical-subtree law bounds.  brute_force_query is the oracle every answer
is tested against, and gen_points draws deterministic workloads
(GeneratorConfig).

The package exports what the CLI, the benchmark and the cost laws use;
structure internals are imported from their modules.  Each structural rule
is stated once, in the docstring of the code that implements it: the
composite order in cascade.rank_tables, and the index space, the walk,
storage and widths in cascade.
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
