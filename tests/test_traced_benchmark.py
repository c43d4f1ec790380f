"""The names the traced benchmark wraps, their cost laws, and one short traced run.

perfbench/run.py --trace 1 wraps package functions where their callers look
them up, so each of these must keep its name and its lookup:

- layertree.tree.fill_buffers_batch_np and layertree.tree.canonical_subtrees
  (module globals that build() and the levels call).  canonical_subtrees
  takes (level, g, a, b, stats): the _Level group, the member index and one
  dimension's rank interval; the benchmark reads args[0].L, the group's
  padded leaf count, to bound the subtrees each call returns;
- CascadeStructure.build_from_ids, .query and .count (class attributes that
  every cascade call goes through, the d=2 root's included);
- LayeredRangeTree.query and .count;
- layertree.cli.parse_points, .parse_queries, .build and .write_report.

Renaming or removing one of them fails here, not only in a separate
benchmark run.  The run also checks every answer and the one-search and
canonical-cover laws.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import layertree.cli
import layertree.tree
from layertree import (GeneratorConfig, LayeredRangeTree, QueryBox, QueryStats, SplitMix64,
                       brute_force_query, build, gen_points)
from layertree.cascade import CascadeStructure

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
    assert calls["fill"] == len({id(s) for _, (s, _) in tree.structures()
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
