"""In-memory spans around layertree's public functions, for the traced run only.

A Tracer wraps functions where their caller looks them up (a module global
or a class attribute), records one span per call, and restores the original
attributes on exit.  A span holds its name, start and end (perf_counter_ns),
its parent span, the root span of its operation, and a tag the benchmark
sets (the box index during a query pass).  Spans stay in arrays until the run
ends; SpanTable turns them into self times and per-operation sums.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.tag = array("q")
        self.current_tag = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.tag.append(self.current_tag)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, observe-or-None) while the block runs.

        `observe(args, result)`, if given, sees every call after its span closes.
        """
        saved = []
        try:
            for owner, attr, name, observe in targets:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name, observe))
                else:
                    new = self._wrap(raw, name, observe)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def save(self, path: str) -> None:
        """Write the spans as an .npz of parallel arrays plus the name table."""
        np.savez(path, names=np.array(self.names), **self._arrays())

    def _arrays(self) -> dict:
        return {k: np.array(getattr(self, k), dtype=np.int64)
                for k in ("name", "start", "end", "parent", "root", "tag")}


class SpanTable:
    """Vectorized views of a Tracer's spans: durations, self times, per-root sums."""

    def __init__(self, tracer: Tracer):
        a = tracer._arrays()
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.parent, self.root, self.tag = a["name"], a["parent"], a["root"], a["tag"]
        self.dur = a["end"] - a["start"]
        child = np.zeros(len(self.dur), dtype=np.int64)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child

    def _mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -1)
        return self.name == nid

    def roots(self, name: str) -> np.ndarray:
        """Indices of the top-level spans called `name` (one per operation)."""
        return np.nonzero(self._mask(name) & (self.parent < 0))[0]

    def sum_under(self, name: str, roots: np.ndarray) -> np.ndarray:
        """Per root: total duration (ns) of the spans called `name` in its operation."""
        m = self._mask(name)
        acc = np.zeros(len(self.dur), dtype=np.int64)
        np.add.at(acc, self.root[m], self.dur[m])
        return acc[roots]

    def count_under(self, name: str, roots: np.ndarray) -> np.ndarray:
        """Per root: number of spans called `name` in its operation."""
        m = self._mask(name)
        acc = np.zeros(len(self.dur), dtype=np.int64)
        np.add.at(acc, self.root[m], 1)
        return acc[roots]
