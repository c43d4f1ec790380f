"""Tests of the benchmark's own code: the filter, the report parser, the tally, the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from checks import Tally, parse_report
from inputs import WORKLOADS, expected_ids, make_inputs, points_text, queries_text
from tracing import SpanTable, Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def naive_ids(coords, lo, hi):
    return [np.nonzero(np.all((coords >= a) & (coords <= b), axis=1))[0].tolist()
            for a, b in zip(lo, hi)]


def test_filter_matches_full_matrix_filter_on_duplicates():
    rng = np.random.default_rng(7)
    coords = rng.integers(0, 4, (60, 3)).astype(np.float64)
    lo = rng.integers(0, 4, (40, 3)).astype(np.float64)
    hi = lo + rng.integers(-1, 3, (40, 3))  # includes empty boxes with lo > hi
    assert expected_ids(coords, lo, hi) == naive_ids(coords, lo, hi)


def test_filter_closed_bounds():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 2.0]])
    lo = np.array([[0.0, 0.0], [0.5, 0.5]])
    hi = np.array([[1.0, 1.0], [0.5, 2.0]])
    assert expected_ids(coords, lo, hi) == [[0, 1], [2]]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    w = WORKLOADS["grid3d"]
    a, b, c = make_inputs(w, 3), make_inputs(w, 3), make_inputs(w, 4)
    assert np.array_equal(a.coords, b.coords) and np.array_equal(a.lo, b.lo)
    assert a.expected == b.expected
    assert not np.array_equal(a.coords, c.coords)


def test_files_round_trip_exactly():
    coords = np.array([[0.1, 1e-300], [-0.0, 2.5]])
    rows = [[float(v) for v in line.split(",")] for line in points_text(coords).splitlines()]
    assert rows == coords.tolist()
    q = queries_text(coords[:1], coords[1:])
    assert [float(v) for v in q.split()] == [0.1, 1e-300, -0.0, 2.5]


def test_parse_report():
    text = "q=0 k=2\n3: 0.5,1.0\n7: 0.25,2.0\nq=1 k=0\n"
    assert parse_report(text) == [(2, [(3, (0.5, 1.0)), (7, (0.25, 2.0))]), (0, [])]
    for bad in ("q=1 k=0\n", "3: 0.5\n", "q=0 x=1\n", "q=0 k=1\nfoo\n"):
        with pytest.raises(ValueError):
            parse_report(bad)


def pt(i, *coords):
    return SimpleNamespace(id=i, coords=coords)


def test_wrong_answers_are_counted_not_raised():
    t = Tally()
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    assert t.query(0, [pt(1, 0.5, 0.5), pt(4, 1.0, 0.0)], lo, hi, [1, 4])
    assert not t.query(1, [pt(1, 0.5, 0.5)], lo, hi, [1, 4])             # missing id
    assert not t.query(2, [pt(4, 1.0, 0.0), pt(1, 0.5, 0.5)], lo, hi, [1, 4])  # unsorted
    assert not t.query(3, [pt(1, 0.5, 0.5), pt(4, 2.0, 0.0)], lo, hi, [1, 4])  # outside
    assert not t.query(4, None, lo, hi, [])                                # not a list
    assert t.count(5, 2, [1, 4])
    assert not t.count(6, 3, [1, 4])
    assert not t.count(7, 2.0, [1, 4])
    assert (t.attempted, t.failed) == (8, 6)


def test_wrong_reports_are_counted_not_raised():
    rows = [[0.5, 0.5], [3.0, 3.0]]
    lo, hi, want = [[0.0, 0.0]], [[1.0, 1.0]], [[0]]
    t = Tally()
    assert t.report("query", "q=0 k=1\n0: 0.5,0.5\n", 0, rows, lo, hi, want)
    assert t.report("count", "q=0 k=1\n", 0, rows, lo, hi, want)
    assert not t.report("query", "q=0 k=1\n0: 0.5,0.25\n", 0, rows, lo, hi, want)
    assert not t.report("query", "q=0 k=1\n1: 3.0,3.0\n", 0, rows, lo, hi, want)
    assert not t.report("count", "q=0 k=2\n", 0, rows, lo, hi, want)
    assert not t.report("count", "", 0, rows, lo, hi, want)
    assert not t.report("count", "q=0 k=1\n", 2, rows, lo, hi, want)
    assert not t.report("query", "garbage\n", 0, rows, lo, hi, want)
    assert (t.attempted, t.failed) == (8, 6)


def test_layertree_answers_pass_the_checks():
    import layertree
    from layertree.io import write_report

    rng = np.random.default_rng(1)
    coords = rng.integers(0, 5, (80, 3)).astype(np.float64)
    lo = rng.integers(0, 5, (30, 3)).astype(np.float64)
    hi = lo + 1
    want = expected_ids(coords, lo, hi)
    tree = layertree.build(layertree.PointSet.from_coords(coords.tolist()))
    t = Tally()
    results = []
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        box = layertree.QueryBox(tuple(a), tuple(b))
        results.append(tree.query(box))
        t.query(i, results[-1], a, b, want[i])
        t.count(i, tree.count(box), want[i])
    rows, lol, hil = coords.tolist(), lo.tolist(), hi.tolist()
    t.report("query", write_report(results), 0, rows, lol, hil, want)
    t.report("count", write_report([len(r) for r in results]), 0, rows, lol, hil, want)
    assert (t.attempted, t.failed) == (62, 0)


class Box:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2

    @classmethod
    def make(cls):
        return cls()


def test_tracer_spans_self_time_and_restore():
    tr = Tracer()
    seen = []
    targets = [(Box, "work", "work", None), (Box, "inner", "inner", lambda a, r: seen.append(r)),
               (Box, "make", "make", None)]
    originals = [Box.__dict__[a] for _, a, _, _ in targets]
    with tr.patched(targets):
        b = Box.make()
        for i in range(3):
            tr.current_tag = i
            assert b.work(i) == 2 * i + 1
    assert [Box.__dict__[a] for _, a, _, _ in targets] == originals
    assert seen == [0, 2, 4]
    tbl = SpanTable(tr)
    roots = tbl.roots("work")
    assert tbl.tag[roots].tolist() == [0, 1, 2]
    assert tbl.count_under("inner", roots).tolist() == [1, 1, 1]
    inner = tbl.sum_under("inner", roots)
    assert (tbl.self_time[roots] == tbl.dur[roots] - inner).all()
    assert tbl.roots("make").size == 1 and tbl.roots("inner").size == 0

