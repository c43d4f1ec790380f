"""Text formats: point files, query files, and the report writer.

Data lines hold d (points) or 2d (queries) decimal fields separated by commas
or whitespace; a comma must stand between two fields, so ',,' and a leading or
trailing comma are errors.  Blank lines and lines starting with '#' are skipped.  Floats
are rendered in shortest round-trip form, so parse(write(x)) is bit-exact.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .core import EmptyInput, Point, PointSet, QueryBox


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _data_lines(text: str):
    """(line_number, fields) for every non-blank, non-comment line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) > 1 and not all(map(str.strip, parts)):
            raise ParseError(lineno, "empty field")
        yield lineno, line.replace(",", " ").split()


def _parse_fields(lineno: int, fields: list[str], want: int) -> list[float]:
    if len(fields) != want:
        raise ParseError(lineno, f"expected {want} fields, got {len(fields)}")
    out = []
    for f in fields:
        try:
            v = float(f)
        except ValueError:
            raise ParseError(lineno, f"not a number: {f!r}") from None
        if not math.isfinite(v):
            raise ParseError(lineno, f"non-finite value: {f!r}")
        out.append(v)
    return out


def parse_points(text: str, dims: int) -> PointSet:
    """Parse a point file; ids are assigned 0..n-1 in file order."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    rows = [_parse_fields(lineno, fields, dims) for lineno, fields in _data_lines(text)]
    if not rows:
        raise EmptyInput("no data lines in point file")
    return PointSet.from_coords(rows)


def parse_queries(text: str, dims: int) -> list[QueryBox]:
    """Parse a query file of lo_1..lo_d hi_1..hi_d lines; lo > hi is allowed."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    boxes = []
    for lineno, fields in _data_lines(text):
        vals = _parse_fields(lineno, fields, 2 * dims)
        boxes.append(QueryBox(tuple(vals[:dims]), tuple(vals[dims:])))
    if not boxes:
        raise EmptyInput("no data lines in query file")
    return boxes


def write_points(points: PointSet) -> str:
    """Point file text for a point set, one line per id in id order.

    It round-trips exactly, ids included, through parse_points.  The lines
    come from the coordinate matrix, so no Point is made.
    """
    lines = [f"# layertree points n={len(points)} dims={points.dims}"]
    lines.extend(",".join(map(repr, row)) for row in points.coord_matrix().tolist())
    return "\n".join(lines) + "\n"


def write_report(results: Sequence[Union[int, Sequence[Point]]]) -> str:
    """Report text: per query 'q=<i> k=<count>' plus '<id>: c_1,...,c_d' hit lines.

    A plain int entry (a count) emits the header line only.  Hit lines come
    in the order given (LayeredRangeTree.query sorts them by id);
    coordinates use shortest round-trip decimals.
    """
    lines = []
    for qi, res in enumerate(results):
        if isinstance(res, int):
            lines.append(f"q={qi} k={res}")
            continue
        lines.append(f"q={qi} k={len(res)}")
        for p in res:
            lines.append(f"{p.id}: " + ",".join(repr(c) for c in p.coords))
    return "\n".join(lines) + "\n" if lines else ""
