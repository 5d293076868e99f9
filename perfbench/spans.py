"""In-memory span recording and self-time arithmetic.

A span is one timed call: ``(span_id, parent_id, name, start, end, run_id)``.
Spans open and close in stack order on the benchmark's single thread, so the
parent of a span is the span open when it started. Counters recorded at the
same boundaries (columns, bytes, terms, iterations) live beside the spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SPAN_FIELDS = ("span_id", "parent_id", "name", "start", "end", "run_id")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._next_id = 1

    def open(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, parent, name, self.clock()))
        return sid

    def close(self, sid: int):
        end = self.clock()
        top = self._stack.pop()
        if top[0] != sid:
            raise RuntimeError(f"span {top[2]!r} closed out of order")
        self.spans.append((sid, top[1], top[2], top[3], end, self.run_id))

    def count(self, key: str, value=1):
        self.counters[key] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span ``name``; ``after(tracer, args, kwargs,
        result)`` may record counters and returns the (possibly wrapped)
        result handed back to the caller."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            return after(tracer, args, kwargs, out) if after is not None else out

        return traced


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it that child spans cover."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)
    out = {}
    for sid, _, _, start, end, _ in spans:
        clipped = [(max(c[3], start), min(c[4], end)) for c in children.get(sid, ())]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[sid] = (end - start) - covered
    return out


def summarize(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, start, end, _ in spans:
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += selfs[sid]
    return dict(agg)
