"""The names the traced benchmark wraps, their cost laws, and one short traced run.

perfbench/run.py --trace 1 wraps package functions where their callers look
them up, so each of these must keep its name and its lookup:

- layertree.tree.fill_buffers_batch_np and layertree.tree.canonical_subtrees
  (module globals that build() and the levels call).  canonical_subtrees
  takes (level, g, u, v, stats): the _Level group, the member index and
  the member's leaf positions [u, v) in the level's dimension (at the root,
  that dimension's rank interval), and returns each canonical node as
  (row, pos).
  To bound the subtrees each call returns, the benchmark reads args[0].L,
  the group's padded leaf count, and of the result only len(result);
- CascadeStructure.query and .count (class attributes that every cascade
  call goes through, the d=2 root's included), and
  CascadeStructure.build_from_ids, which the benchmark wraps by name only:
  build() never calls it, so its span reads 0;
- LayeredRangeTree.query and .count;
- layertree.cli.parse_points, .parse_queries, .build and .write_report.

Renaming or removing one of them fails here, not only in a separate
benchmark run.  The run also checks every answer and the one-search and
canonical-cover laws, and the no-empty-call law is checked through the
same class attributes.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import layertree.cli
import layertree.tree
from layertree import (GeneratorConfig, LayeredRangeTree, QueryBox, QueryStats, brute_force_query,
                       build, gen_points)
from layertree.cascade import CascadeStructure
from layertree.tree import _Level

from structure_dump import SplitMix64, leaf_ranks, slots, split_node, structures

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED = [
    (layertree.tree, "fill_buffers_batch_np"),
    (layertree.tree, "canonical_subtrees"),
    (CascadeStructure, "build_from_ids"),
    (CascadeStructure, "query"),
    (CascadeStructure, "count"),
    (LayeredRangeTree, "query"),
    (LayeredRangeTree, "count"),
    (layertree.cli, "parse_points"),
    (layertree.cli, "parse_queries"),
    (layertree.cli, "build"),
    (layertree.cli, "write_report"),
]


@pytest.mark.parametrize("owner,attr", TRACED, ids=[f"{o.__name__}.{a}" for o, a in TRACED])
def test_traced_name_exists(owner, attr):
    inspect.getattr_static(owner, attr)  # raises AttributeError when it is gone
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cost_laws_through_traced_names(monkeypatch, d):
    # per box: one binary search per cascade query, two per cascade count,
    # one fill per cascade group, and at most max(1, 2*log2(L)) subtrees per
    # canonical decomposition, counted where the benchmark counts them
    calls = {"query": 0, "count": 0, "fill": 0, "canonical": 0}
    over_law = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    canonical_subtrees = layertree.tree.canonical_subtrees

    def canonical(*args, **kwargs):
        # the benchmark's canonical-law observer reads args[0].L
        calls["canonical"] += 1
        result = canonical_subtrees(*args, **kwargs)
        L = args[0].L
        if len(result) > max(1, 2 * (L.bit_length() - 1)):
            over_law.append((len(result), L))
        return result

    monkeypatch.setattr(CascadeStructure, "query", counting("query", CascadeStructure.query))
    monkeypatch.setattr(CascadeStructure, "count", counting("count", CascadeStructure.count))
    monkeypatch.setattr(layertree.tree, "fill_buffers_batch_np",
                        counting("fill", layertree.tree.fill_buffers_batch_np))
    monkeypatch.setattr(layertree.tree, "canonical_subtrees", canonical)
    ps = gen_points(GeneratorConfig(seed=d, n=400, dims=d, dist="grid", grid_side=6))
    tree = build(ps)
    assert calls["fill"] == len({id(s) for _, (s, _) in structures(tree)
                                 if isinstance(s, CascadeStructure)})
    rng = SplitMix64(d)
    queried = 0
    for _ in range(60):
        lo, hi = zip(*(sorted((rng.next_float() * 6, rng.next_float() * 6)) for _ in range(d)))
        box = QueryBox(lo, hi)
        calls["query"] = calls["count"] = 0
        stats = QueryStats()
        assert tree.query(box, stats) == brute_force_query(ps, box)
        assert stats.binary_searches == calls["query"]
        queried += calls["query"]
        stats = QueryStats()
        tree.count(box, stats)
        assert stats.binary_searches == 2 * calls["count"]
    assert queried > 0
    assert not over_law
    assert (calls["canonical"] > 0) == (d > 2)


def allowed_calls(tree, member, u, v, a, b, slot_maps) -> tuple:
    """(cascade calls, skipped nodes) the no-empty-call law gives a level member's positions [u, v).

    Each canonical node is called when its structure has a leaf ranked in
    [a[j+1], b[j+1]), read from its leaf_ranks; a level structure's calls
    are its own nodes', at the positions split_node places.  slot_maps
    caches each member's slots.
    """
    level, g = member
    if (id(level), g) not in slot_maps:
        slot_maps[id(level), g] = dict(slots(level, g))
    built, j, calls, skipped = slot_maps[id(level), g], level.dim + 1, 0, 0
    for node in layertree.tree.canonical_subtrees(level, g, u, v, QueryStats()):
        sub = built[node]
        pa, pb = split_node(leaf_ranks(*sub), a[j], b[j])[:2]
        if pa == pb:
            skipped += 1
        elif isinstance(sub[0], _Level):
            more = allowed_calls(tree, sub, pa, pb, a, b, slot_maps)
            calls, skipped = calls + more[0], skipped + more[1]
        else:
            calls += 1
    return calls, skipped


@pytest.mark.parametrize("d", [3, 4])
def test_no_empty_structure_call(monkeypatch, d):
    # a level calls a canonical node's structure only when its placed leaf
    # positions hold a leaf, so every cascade call has u < v, and per box the
    # calls are exactly the canonical nodes whose structures have a leaf in
    # the next dimension's rank interval
    seen = []

    def recording(fn):
        def wrapped(self, g, u, v, *args):
            seen.append((u, v))
            return fn(self, g, u, v, *args)
        return wrapped

    monkeypatch.setattr(CascadeStructure, "query", recording(CascadeStructure.query))
    monkeypatch.setattr(CascadeStructure, "count", recording(CascadeStructure.count))
    ps = gen_points(GeneratorConfig(seed=d, n=400, dims=d, dist="grid", grid_side=6))
    tree, rng, slot_maps, totals = build(ps), SplitMix64(10 + d), {}, [0, 0]
    for _ in range(60):
        lo, hi = zip(*(sorted((rng.next_float() * 6, rng.next_float() * 6)) for _ in range(d)))
        box = QueryBox(lo, hi)
        a, b = tree.rank_box(box)
        want = allowed_calls(tree, (tree.root, 0), a[0], b[0], a, b, slot_maps)
        totals = [x + y for x, y in zip(totals, want)]
        for op in (tree.query, tree.count):
            seen.clear()
            op(box)
            assert all(u < v for u, v in seen)
            assert len(seen) == want[0]
    assert min(totals) > 0, totals  # some structures were called, and some skipped


def test_traced_run_has_no_failures_or_law_violations():
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli_narrow2d",
            "--seed", "1", "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert metrics["cascade.search_law_violations"]["value"] == 0
    assert metrics["tree.canonical_law_violations"]["value"] == 0
