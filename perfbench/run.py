"""Benchmark of layertree: build, per-box query/count, and the `layertree query` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload uniform2d --seed 1 --seconds 6 --trace 0

The program is driven only through its public API (PointSet.from_coords,
build, LayeredRangeTree.query/count) and its CLI (`python -m layertree`),
imported from ./src.  Inputs come from --seed; every answer is checked
against inputs.expected_ids, and every mismatch counts as a failed operation.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 wraps the
package's functions in spans (tracing.py) and reports per-layer metrics.

A run first measures memory with one build under tracemalloc, then makes
ROUNDS rounds of [builds, passes], with one CLI run (hits, then counts only)
after each of the first two.  Each block of builds repeats builds for
SETUP_BLOCK_S seconds; setup_s is the median of all of them.  Each block of
passes repeats whole passes (query, then count, on each of the workload's
library boxes) for --seconds / ROUNDS seconds, so the passes together
measure for --seconds.
A box's time is the fastest of its visits.  A pass is short (a few hundred
boxes), so one fast phase of the host as long as a pass reaches every box:
the host's slow phases, which come and go over seconds to minutes, show
only if they cover all of a run's passes.

A CLI run takes seconds, too long to be reached by the host's fast phases
with any regularity, so its wall time moves by more than 25% from run to
run.  The untraced run therefore only checks the CLI's output; the traced
run reports its wall time, measured from outside, as a per-layer figure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from checks import Tally
from inputs import WORKLOADS, make_inputs, points_text, queries_text
from tracing import SpanTable, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CLI_TIMEOUT_S = 60
ROUNDS = 4
# A small tree builds in ~0.2 s and its build time follows the host's speed
# phases, so each round builds for a while and setup_s is the median of all
# the run's builds; a large tree (about 1 s) builds once or twice per round.
SETUP_BLOCK_S = 1.0
CLI_MODES = ("query", "count")
MB = 1e6


def load_layertree():
    """Import layertree from ./src, never from anywhere else on sys.path."""
    pkg = os.path.join(SRC, "layertree")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no layertree package at {pkg}")
    sys.path.insert(0, SRC)
    import layertree
    import layertree.cascade
    import layertree.cli
    import layertree.tree

    if os.path.dirname(os.path.abspath(layertree.__file__)) != pkg:
        raise SystemExit(f"perfbench: imported layertree from {layertree.__file__}, not {pkg}")
    return layertree


class Run:
    """One workload at one seed: inputs, files, the current tree and the tally."""

    def __init__(self, lt, workload, seed: int, tracer: Tracer | None):
        self.lt = lt
        self.workload = workload
        self.tracer = tracer
        self.tally = Tally()
        inp = make_inputs(workload, seed)
        self.dims = inp.dims
        self.expected = inp.expected
        self.rows = inp.coords.tolist()
        self.lo = inp.lo.tolist()
        self.hi = inp.hi.tolist()
        self.boxes = [lt.QueryBox(tuple(a), tuple(b))
                      for a, b in zip(self.lo[:workload.lib_boxes], self.hi)]
        self.tree = None
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
        self.points_path = stem + ".points"
        self.queries_path = stem + ".queries"
        self.report_path = stem + ".report"
        with open(self.points_path, "w", encoding="utf-8") as fh:
            fh.write(points_text(inp.coords))
        with open(self.queries_path, "w", encoding="utf-8") as fh:
            fh.write(queries_text(inp.lo, inp.hi))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

    def remove_files(self) -> None:
        for path in (self.points_path, self.queries_path, self.report_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- operations ------------------------------------------------------------

    def memory_build(self):
        """(retained bytes, peak bytes, snapshot) of one build under tracemalloc.

        Counting starts once the PointSet exists, so the figures are the
        tree's own.  The snapshot is taken only when tracing.
        """
        try:
            ps = self.lt.PointSet.from_coords(self.rows)
            gc.collect()
            tracemalloc.start()
            tree = self.lt.build(ps)
            retained, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot() if self.tracer else None
        except Exception as exc:  # a failed operation is counted, not fatal
            self.tally.record(False, f"memory build raised {exc!r}")
            return 0, 0, None
        finally:
            tracemalloc.stop()
        self.tally.record(tree.n == len(self.rows), "memory build: wrong point count")
        return retained, peak, snapshot

    def build(self, counters=None):
        """Seconds for PointSet.from_coords + build; the tree becomes self.tree."""
        self.tree = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            with self.span("core.pointset"):
                ps = self.lt.PointSet.from_coords(self.rows)
            with self.span("tree.build"):
                tree = self.lt.build(ps, counters)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.tally.record(False, f"build raised {exc!r}")
            return None
        dt = time.perf_counter() - t0
        self.tree = tree
        self.tally.record(tree.n == len(self.rows), "build: wrong point count")
        return dt

    def timed_pass(self, q_best: list, c_best: list, stats_rows: list | None = None) -> None:
        """Time and check `query`, then `count`, on every library box.

        q_best[i] and c_best[i] keep box i's fastest ns.  With `stats_rows`,
        each query gets its own QueryStats, and its counters are appended as
        (nodes_visited, binary_searches, bridge_follows, reported).
        """
        self._calls("query", q_best, stats_rows)
        self._calls("count", c_best, None)

    def _calls(self, op: str, best: list, stats_rows) -> None:
        tree, tally, tracer = self.tree, self.tally, self.tracer
        if tree is None:
            return
        call = tree.query if op == "query" else tree.count
        QueryStats = self.lt.QueryStats
        pc = time.perf_counter_ns
        for i, box in enumerate(self.boxes):
            st = QueryStats() if stats_rows is not None else None
            if tracer:
                tracer.current_tag = i
            try:
                t0 = pc()
                res = call(box, st)
                dt = pc() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.record(False, f"{op} box {i} raised {exc!r}")
                continue
            if dt < best[i]:
                best[i] = dt
            if op == "query":
                tally.query(i, res, self.lo[i], self.hi[i], self.expected[i])
            else:
                tally.count(i, res, self.expected[i])
            if st is not None:
                stats_rows.append((st.nodes_visited, st.binary_searches,
                                   st.bridge_follows, st.reported))
        if tracer:
            tracer.current_tag = -1

    def _cli_argv(self, mode: str) -> list:
        argv = ["query", "--points", self.points_path, "--dims", str(self.dims),
                "--queries", self.queries_path]
        return argv + ["--count-only"] if mode == "count" else argv

    def _check_report(self, mode: str, rc: int) -> None:
        with open(self.report_path, encoding="utf-8") as fh:
            text = fh.read()
        self.tally.report(mode, text, rc, self.rows, self.lo, self.hi, self.expected)

    def cli_subprocess(self, mode: str):
        """Wall seconds of `python -m layertree query ...` with stdout to a file; checked."""
        cmd = [sys.executable, "-m", "layertree"] + self._cli_argv(mode)
        with open(self.report_path, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, cwd=ROOT,
                                      env=self.env, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.tally.record(False, f"cli {mode}: no exit within {CLI_TIMEOUT_S} s")
                return None
            dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        self._check_report(mode, proc.returncode)
        return dt

    def cli_inprocess(self, mode: str) -> None:
        """`cli.main` in this process under a 'cli.main' span tagged 0 (query) or 1 (count)."""
        self.tracer.current_tag = 0 if mode == "query" else 1
        with open(self.report_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            try:
                with self.tracer.span("cli.main"):
                    rc = self.lt.cli.main(self._cli_argv(mode))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        self.tracer.current_tag = -1
        self._check_report(mode, rc)

    def cli_startup(self):
        """Wall seconds of a Python process that only imports layertree.cli."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import layertree.cli"], cwd=ROOT,
                              env=self.env, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
        dt = time.perf_counter() - t0
        self.tally.record(proc.returncode == 0, f"cli startup: exit code {proc.returncode}")
        return dt


def run_rounds(seconds: float, build, passes, cli) -> int:
    """ROUNDS x [builds, passes], then cli(CLI_MODES[i]) in round i; returns the passes made.

    Each block of builds repeats build() for SETUP_BLOCK_S seconds and each
    block of passes repeats passes() for seconds / ROUNDS seconds (each at
    least once).
    """
    block_s = seconds / ROUNDS
    made = 0
    for i in range(ROUNDS):
        repeat_for(SETUP_BLOCK_S, build)
        made += repeat_for(block_s, passes)
        if i < len(CLI_MODES):
            cli(CLI_MODES[i])
    return made


def repeat_for(seconds: float, fn) -> int:
    """Call fn() until `seconds` have passed, at least once; returns the calls made."""
    t_end = time.perf_counter() + seconds
    made = 0
    while True:
        fn()
        made += 1
        if time.perf_counter() >= t_end:
            return made


def per_box_us(best) -> np.ndarray:
    """Per-box fastest times in us, leaving out boxes whose every call failed."""
    a = np.asarray(best, dtype=np.float64)
    return a[np.isfinite(a)] / 1e3


def _stat(fn, values) -> float:
    """fn over the values that were measured; 0.0 if none were (the run then has failures)."""
    values = [v for v in values if v is not None]
    return float(fn(values)) if len(values) else 0.0


def _p90(values) -> float:
    return np.percentile(values, 90)


# -- end-to-end run -----------------------------------------------------------------


def timed_run(run: Run, seconds: float) -> dict:
    retained, peak, _ = run.memory_build()
    n = len(run.boxes)
    q_best, c_best = [math.inf] * n, [math.inf] * n
    setup = []
    made = run_rounds(seconds,
                      build=lambda: setup.append(run.build()),
                      passes=lambda: run.timed_pass(q_best, c_best),
                      cli=run.cli_subprocess)
    print(f"perfbench: {run.workload.name}: {made} passes over {n} boxes", file=sys.stderr)
    q, c = per_box_us(q_best), per_box_us(c_best)
    values = {
        "setup_s": (_stat(statistics.median, setup), "s"),
        "query_us_p50": (_stat(np.median, q), "us"),
        "query_us_p90": (_stat(_p90, q), "us"),
        "count_us_p50": (_stat(np.median, c), "us"),
        "count_us_p90": (_stat(_p90, c), "us"),
        "retained_mb": (retained / MB, "MB"),
        "build_peak_mb": (peak / MB, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# -- traced run ---------------------------------------------------------------------


def _retained_by_layer(snapshot, lt) -> dict:
    pkg = os.path.dirname(os.path.abspath(lt.__file__))
    held = {"core": 0, "tree": 0, "cascade": 0}
    for stat in snapshot.statistics("filename") if snapshot else ():
        path = stat.traceback[0].filename
        layer = os.path.splitext(os.path.basename(path))[0]
        if os.path.dirname(os.path.abspath(path)) == pkg and layer in held:
            held[layer] += stat.size
    return held


def traced_run(run: Run, seconds: float) -> dict:
    lt, tracer = run.lt, run.tracer
    _, _, snapshot = run.memory_build()
    held = _retained_by_layer(snapshot, lt)
    del snapshot

    canonical = []  # (subtrees returned, leaves L) per canonical_subtrees call

    def observe_canonical(args, result):
        canonical.append((len(result), args[0].L))

    Cascade, Tree = lt.cascade.CascadeStructure, lt.tree.LayeredRangeTree
    library = [
        (lt.tree, "fill_buffers_batch_np", "cascade.fill", None),
        (Cascade, "build_from_ids", "cascade.build_from_ids", None),
        (lt.tree, "canonical_subtrees", "tree.canonical", observe_canonical),
        (Cascade, "query", "cascade.query", None),
        (Cascade, "count", "cascade.count", None),
        (Tree, "query", "tree.query", None),
        (Tree, "count", "tree.count", None),
    ]
    cli_hooks = [
        (lt.cli, "parse_points", "io.parse_points", None),
        (lt.cli, "parse_queries", "io.parse_queries", None),
        (lt.cli, "build", "tree.build", None),
        (lt.cli, "write_report", "io.write_report", None),
    ]
    n = len(run.boxes)
    q_best, c_best = [math.inf] * n, [math.inf] * n
    stats_rows: list = []
    merge_moves = []
    startup = []
    cli_wall = {}

    def build():
        counters = lt.BuildCounters()
        with tracer.patched(library):
            if run.build(counters) is not None:
                merge_moves.append(counters.merge_moves)

    def passes():
        keep = stats_rows if not stats_rows else None  # counters of the first pass only
        with tracer.patched(library):
            run.timed_pass(q_best, c_best, keep)

    def cli(mode):
        with tracer.patched(cli_hooks):
            run.cli_inprocess(mode)
        startup.append(run.cli_startup())
        cli_wall[mode] = run.cli_subprocess(mode)

    made = run_rounds(seconds, build, passes, cli)
    print(f"perfbench: {run.workload.name}: {made} traced passes over {n} boxes", file=sys.stderr)
    tracer.save(os.path.join(OUT, f"trace-{run.workload.name}.npz"))
    return layer_metrics(SpanTable(tracer), n, q_best, stats_rows, canonical,
                         merge_moves, startup, cli_wall, held)


def layer_metrics(tbl: SpanTable, n, q_best, stats_rows, canonical, merge_moves,
                  startup, cli_wall, held) -> dict:
    def per_box(roots, values_ns):
        best = np.full(n, np.inf)
        np.minimum.at(best, tbl.tag[roots], values_ns)
        return _stat(np.median, per_box_us(best))

    def median_s(values_ns):
        return _stat(np.median, values_ns) / 1e9

    def mean(values):
        return _stat(np.mean, values)

    builds = tbl.roots("tree.build")
    qroots, croots = tbl.roots("tree.query"), tbl.roots("tree.count")
    first = qroots[:n]  # the pass whose QueryStats were kept
    calls = tbl.count_under("cascade.query", first)
    st = np.asarray(stats_rows, dtype=np.int64).reshape(-1, 4)
    mains = tbl.roots("cli.main")
    qmains = mains[tbl.tag[mains] == 0]
    limits = [(k, 2 * (L.bit_length() - 1) if L > 1 else 1) for k, L in canonical]
    values = {
        "core.pointset_s": (median_s(tbl.dur[tbl.roots("core.pointset")]), "s"),
        "core.retained_mb": (held["core"] / MB, "MB"),
        "tree.retained_mb": (held["tree"] / MB, "MB"),
        "cascade.retained_mb": (held["cascade"] / MB, "MB"),
        "tree.build_self_s": (median_s(tbl.self_time[builds]), "s"),
        "cascade.fill_s": (median_s(tbl.sum_under("cascade.fill", builds)), "s"),
        "cascade.fill_groups": (float(np.median(tbl.count_under("cascade.fill", builds))), "count"),
        "cascade.build_from_ids_s": (median_s(tbl.sum_under("cascade.build_from_ids", builds)), "s"),
        "tree.merge_moves": (float(np.median(merge_moves)) if merge_moves else 0.0, "count"),
        "tree.canonical_us": (per_box(qroots, tbl.sum_under("tree.canonical", qroots)), "us"),
        "tree.query_self_us": (per_box(qroots, tbl.self_time[qroots]), "us"),
        "cascade.query_us": (per_box(qroots, tbl.sum_under("cascade.query", qroots)), "us"),
        "cascade.count_us": (per_box(croots, tbl.sum_under("cascade.count", croots)), "us"),
        "trace.query_us_p50": (_stat(np.median, per_box_us(q_best)), "us"),
        "cascade.calls": (mean(calls), "count"),
        "tree.nodes_visited": (mean(st[:, 0]), "count"),
        "cascade.binary_searches": (mean(st[:, 1]), "count"),
        "cascade.bridge_follows": (mean(st[:, 2]), "count"),
        "tree.reported": (mean(st[:, 3]), "count"),
        # boxes whose binary searches differ from their cascade calls (one each by the law)
        "cascade.search_law_violations": (float(np.count_nonzero(st[:, 1] != calls))
                                          if len(st) == len(calls) else float(len(first)), "count"),
        "tree.canonical_max": (float(max((k for k, _ in limits), default=0)), "count"),
        "tree.canonical_law_violations": (float(sum(k > lim for k, lim in limits)), "count"),
        "io.parse_points_s": (median_s(tbl.sum_under("io.parse_points", qmains)), "s"),
        "io.parse_queries_s": (median_s(tbl.sum_under("io.parse_queries", qmains)), "s"),
        "io.write_report_s": (median_s(tbl.sum_under("io.write_report", qmains)), "s"),
        "cli.loop_s": (median_s(tbl.self_time[qmains]), "s"),
        "cli.startup_s": (_stat(np.median, startup), "s"),
        "cli.query_wall_s": (cli_wall.get("query") or 0.0, "s"),
        "cli.count_wall_s": (cli_wall.get("count") or 0.0, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lt = load_layertree()
    run = Run(lt, WORKLOADS[args.workload], args.seed, Tracer() if args.trace else None)
    try:
        metrics = (traced_run if args.trace else timed_run)(run, args.seconds)
    finally:
        run.remove_files()
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
