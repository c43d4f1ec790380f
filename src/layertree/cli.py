"""Command-line front end: gen, query, bench.

Exit codes: 0 success, 1 usage error, 2 parse/read-write error (stdout
included), 3 oracle mismatch under --check.  All commands are deterministic
for fixed flags (timing columns excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .core import EmptyInput, PointSet, QueryBox
from .io import ParseError, parse_points, parse_queries, write_points, write_report
from .oracle import GeneratorConfig, brute_force_query, gen_points
from .tree import QueryStats, build

BENCH_HEADER = "n,d,build_ms,queries,avg_query_us,avg_nodes_visited,avg_binary_searches,avg_bridge_follows,total_k"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for IO
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="layertree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a deterministic point file")
    g.add_argument("--n", type=int, required=True, help="number of points")
    g.add_argument("--dims", type=int, required=True, help="dimensions per point")
    g.add_argument("--seed", type=int, required=True, help="splitmix64 seed")
    g.add_argument("--dist", default="uniform",
                   help="uniform | grid:<g> (integer grid of side g)")
    g.add_argument("--out", default="-", help="output path, '-' for stdout")

    q = sub.add_parser("query", help="answer box queries over a point file")
    q.add_argument("--points", required=True, help="point file path")
    q.add_argument("--dims", type=int, required=True)
    q.add_argument("--queries", required=True, help="query file path")
    q.add_argument("--count-only", action="store_true", help="emit counts, skip hit lines")
    q.add_argument("--check", action="store_true", help="verify every answer against brute force")
    q.add_argument("--stats", action="store_true", help="print QueryStats totals as JSON on stderr")

    b = sub.add_parser("bench", help="benchmark build and query costs as CSV")
    b.add_argument("--dims", type=int, required=True)
    b.add_argument("--sizes", required=True, help="comma-separated point counts, ascending")
    b.add_argument("--queries", type=int, required=True, help="queries per size")
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--selectivity", type=float, default=0.001,
                   help="expected fraction of points per box (0 < f <= 1)")
    return parser


def _parse_dist(parser: _Parser, dist: str) -> dict:
    if dist == "uniform":
        return {}
    if dist.startswith("grid:"):
        try:
            g = int(dist[5:])
        except ValueError:
            parser.error(f"bad grid side in --dist {dist!r}")
        if g < 1:
            parser.error("grid side must be >= 1")
        return {"dist": "grid", "grid_side": g}
    parser.error(f"unknown --dist {dist!r} (use uniform or grid:<g>)")


def _cmd_gen(parser: _Parser, args) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.dims < 1:
        parser.error("--dims must be >= 1")
    cfg = GeneratorConfig(seed=args.seed, n=args.n, dims=args.dims,
                          **_parse_dist(parser, args.dist))
    text = write_points(gen_points(cfg))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"layertree: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_query(parser: _Parser, args) -> int:
    if args.dims < 1:
        parser.error("--dims must be >= 1")
    inputs = []
    for path, parse in ((args.points, parse_points), (args.queries, parse_queries)):
        try:  # utf-8-sig drops a leading byte-order mark
            with open(path, encoding="utf-8-sig") as fh:
                inputs.append(parse(fh.read(), args.dims))
        except (OSError, UnicodeDecodeError, ParseError, EmptyInput) as exc:
            # an OSError's own text repeats the path
            detail = (exc.strerror or exc) if isinstance(exc, OSError) else exc
            print(f"layertree: {path}: {detail}", file=sys.stderr)
            return 2
    points, boxes = inputs

    tree = build(points)
    stats = QueryStats()
    answer = tree.count if args.count_only else tree.query
    results = [answer(box, stats) for box in boxes]
    if args.stats:
        print(json.dumps(vars(stats)), file=sys.stderr)

    if args.check:
        for qi, box in enumerate(boxes):
            want = brute_force_query(points, box)
            got = results[qi]
            if args.count_only and got != len(want):
                detail = f"expected count {len(want)}, got {got}"
            elif not args.count_only and got != want:
                got_ids, want_ids = {p.id for p in got}, {p.id for p in want}
                detail = (f"missing ids {sorted(want_ids - got_ids)}, "
                          f"extra ids {sorted(got_ids - want_ids)}")
            else:
                continue
            print(f"layertree: mismatch at query {qi}: {detail}", file=sys.stderr)
            return 3

    sys.stdout.write(write_report(results))
    return 0


def _cmd_bench(parser: _Parser, args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        parser.error(f"bad --sizes {args.sizes!r}")
    if not sizes or any(s < 1 for s in sizes) or sizes != sorted(sizes):
        parser.error("--sizes must be positive and ascending")
    if args.queries < 1:
        parser.error("--queries must be >= 1")
    f = args.selectivity
    if not 0 < f <= 1:
        parser.error("--selectivity must be in (0, 1]")
    if args.dims < 1:
        parser.error("--dims must be >= 1")

    d = args.dims
    side = f ** (1.0 / d)
    print(BENCH_HEADER)
    for n in sizes:
        # one stream per size: its first n rows are the points, and the next
        # rows, scaled by 1 - side, are the boxes' lo corners
        m = gen_points(GeneratorConfig(args.seed, n + args.queries, d)).coord_matrix()
        points = PointSet.from_coords(m[:n])

        t0 = time.perf_counter()
        tree = build(points)
        build_ms = (time.perf_counter() - t0) * 1e3

        boxes = [QueryBox(lo, tuple(v + side for v in lo))
                 for lo in map(tuple, (m[n:] * (1.0 - side)).tolist())]

        stats = QueryStats()
        t0 = time.perf_counter()
        for box in boxes:
            tree.query(box, stats)
        query_us = (time.perf_counter() - t0) * 1e6 / args.queries

        q = args.queries
        print(
            f"{n},{d},{build_ms:.3f},{q},{query_us:.3f},"
            f"{stats.nodes_visited / q!r},{stats.binary_searches / q!r},"
            f"{stats.bridge_follows / q!r},{stats.reported}"
        )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"gen": _cmd_gen, "query": _cmd_query, "bench": _cmd_bench}[args.command]
    try:
        code = command(parser, args)
        sys.stdout.flush()
    except OSError as exc:  # the commands handle their input and --out errors themselves
        print(f"layertree: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the unwritten rest stays buffered: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def console_main() -> None:
    sys.exit(main())
