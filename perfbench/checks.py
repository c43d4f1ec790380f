"""Answer checks: every operation is counted, and every mismatch counts as failed.

A check never raises on a wrong answer; it records the failure (the first
few are described on stderr) so a run always finishes and reports how many
operations failed out of how many were attempted.
"""

from __future__ import annotations

import sys

MAX_MESSAGES = 10


class Tally:
    """Attempted and failed operation counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_MESSAGES:
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def query(self, i: int, result, lo, hi, expected: list) -> bool:
        """A library `query` answer: exactly the expected (ascending) ids, each point inside the box."""
        try:
            ids = [p.id for p in result]
            ok = ids == expected and all(_inside(p.coords, lo, hi) for p in result)
        except (AttributeError, TypeError) as exc:
            return self.record(False, f"query box {i}: malformed answer ({exc})")
        return self.record(ok, f"query box {i}: got {len(ids)} ids, want {len(expected)}")

    def count(self, i: int, result, expected: list) -> bool:
        """A library `count` answer: the number of expected ids."""
        ok = type(result) is int and result == len(expected)
        return self.record(ok, f"count box {i}: got {result!r}, want {len(expected)}")

    def report(self, mode: str, text, rc: int, rows: list, lo, hi, expected: list) -> bool:
        """One CLI invocation: exit code 0 and a report that parses back to the expected answers.

        `mode` is "query" (hit lines expected) or "count" (headers only);
        `rows` are the raw coordinates, which reported hit lines must
        reproduce exactly.
        """
        if rc != 0:
            return self.record(False, f"cli {mode}: exit code {rc}")
        try:
            parsed = parse_report(text)
        except ValueError as exc:
            return self.record(False, f"cli {mode}: unparsable report ({exc})")
        bad = report_mismatch(parsed, mode == "count", rows, lo, hi, expected)
        return self.record(bad is None, f"cli {mode}: {bad}")


def _inside(coords, lo, hi) -> bool:
    return len(coords) == len(lo) and all(l <= c <= h for l, c, h in zip(lo, coords, hi))


def parse_report(text: str) -> list:
    """[(k, [(id, coords), ...]), ...] per query of a `layertree query` report.

    Raises ValueError on any line that is neither 'q=<i> k=<k>' (with i
    counting up from 0) nor '<id>: c_1,...,c_d' after a header.
    """
    out: list = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("q="):
            head = line.split()
            if len(head) != 2 or not head[1].startswith("k="):
                raise ValueError(f"line {lineno}: bad header {line!r}")
            if int(head[0][2:]) != len(out):
                raise ValueError(f"line {lineno}: query index out of order")
            out.append((int(head[1][2:]), []))
        else:
            pid, sep, rest = line.partition(": ")
            if not sep or not out:
                raise ValueError(f"line {lineno}: bad hit line {line!r}")
            out[-1][1].append((int(pid), tuple(float(c) for c in rest.split(","))))
    return out


def report_mismatch(parsed: list, count_only: bool, rows: list, lo, hi, expected: list):
    """None if the parsed report matches the expected answers, else the first difference."""
    if len(parsed) != len(expected):
        return f"{len(parsed)} queries reported, want {len(expected)}"
    for i, ((k, hits), want) in enumerate(zip(parsed, expected)):
        if k != len(want):
            return f"box {i}: k={k}, want {len(want)}"
        if count_only:
            if hits:
                return f"box {i}: hit lines in a count-only report"
            continue
        if [pid for pid, _ in hits] != want:
            return f"box {i}: reported ids differ from the expected ids"
        for pid, c in hits:
            if list(c) != rows[pid] or not _inside(c, lo[i], hi[i]):
                return f"box {i}: point {pid} has wrong coordinates or lies outside"
    return None
