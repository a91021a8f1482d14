"""Span recorder for the restart benchmark.

Every timed phase and every public layer call the benchmark makes is
wrapped in a span: name, thread, start, end, parent, and the id of the
op it belongs to.  Untraced runs use :class:`Timer` spans, which only
read the clock, so the end-to-end numbers pay nothing for tracing.

A traced op additionally patches a handful of library entry points
(:func:`instrument`) so store IO, fsyncs, range reads and block-cache
traffic show up as child spans.  Spans opened on a thread with no open
span of its own (the converter's worker pool) are parented to the
innermost *anchor* span of the caller, i.e. the enclosing layer call.
Instrumented entry points record nothing outside an open span.

Spans stay in memory; :func:`chrome_trace` turns them into Chrome
trace-event JSON (opens in Perfetto) and :func:`self_times` into
per-layer self time: a span's duration minus the part of its interval
that its children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple


class Timer:
    """A span that only reads the clock (the untraced path)."""

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Span(Timer):
    """One recorded interval; ``attrs`` carries counts (bytes, blocks)."""

    __slots__ = ("sid", "name", "tid", "parent", "op", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], op: int) -> None:
        super().__init__()
        self.sid = sid
        self.name = name
        self.tid = threading.get_ident()
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, float] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullRecorder:
    """Times phases and layer calls without recording anything."""

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        yield

    @contextlib.contextmanager
    def span(self, name: str, anchor: bool = False) -> Iterator[Timer]:
        timer = Timer()
        try:
            yield timer
        finally:
            timer.end = time.perf_counter()


class Recorder:
    """Keeps every span of the traced ops in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: Optional[int] = None
        self._op: Optional[int] = None
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Open an op; instrumented calls record only inside one."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def open(self, name: str, nested: bool = False) -> Optional[Span]:
        """Start a span under the current one, or None outside an op.

        A ``nested`` span (an instrumented library call) is also None
        when no span is open: untimed work records nothing.
        """
        if self._op is None:
            return None
        stack = self._stack()
        parent = stack[-1].sid if stack else self._anchor
        if nested and parent is None:
            return None
        span = Span(next(self._ids), name, parent, self._op)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, anchor: bool = False) -> Iterator[Span]:
        """A span around a benchmark phase or layer call.

        ``anchor`` makes it the parent of spans opened on threads that
        have no span of their own (pool workers the call starts).
        """
        span = self.open(name)
        saved = self._anchor
        if anchor:
            self._anchor = span.sid
        try:
            yield span
        finally:
            self._anchor = saved
            self.close(span)


def _traced(rec: Recorder, name: str, fn, count=None):
    """Wrap ``fn`` so each call inside an op becomes a span."""

    def wrapper(*args, **kwargs):
        span = rec.open(name, nested=True)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                span.attrs.update(count(args, kwargs, result))
            return result
        finally:
            rec.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _nbytes(args, kwargs, result):
    if isinstance(result, list):
        return {"bytes": sum(len(b) for b in result)}
    return {"bytes": len(result)}


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Patch store, fsync, range-reader and block-cache entry points."""
    from repro.storage import rangeio
    from repro.storage.store import ObjectStore

    patches: List[Tuple[object, str, str, object]] = [
        (ObjectStore, "put_bytes", "store.put",
         lambda a, k, r: {"bytes": len(a[2] if len(a) > 2 else k["data"])}),
        (ObjectStore, "read_bytes", "store.read", _nbytes),
        (ObjectStore, "read_range", "store.read", _nbytes),
        (ObjectStore, "read_ranges", "store.read", _nbytes),
        (os, "fsync", "store.fsync", None),
        (rangeio.RangeReader, "read_multi", "rangeio.read_multi", None),
        (rangeio.BlockCache, "put", "rangeio.cache_put",
         lambda a, k, r: {"blocks": 1}),
        (rangeio.BlockCache, "put_many", "rangeio.cache_put",
         lambda a, k, r: {"blocks": len(a[2] if len(a) > 2 else k["blocks"])}),
        (rangeio.BlockCache, "record_lookups", "rangeio.lookups",
         lambda a, k, r: {"hits": a[1], "misses": a[2]}),
    ]
    originals = []
    for owner, attr, name, count in patches:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, _traced(rec, name, original, count))
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi) covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if s >= e:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    out: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children(spans)
    return {
        s.sid: s.seconds - _covered(
            [(c.start, c.end) for c in kids.get(s.sid, ())], s.start, s.end
        )
        for s in spans
    }


def top_layer(spans: List[Span]) -> Dict[int, str]:
    """Span id -> name of the outermost layer-call span above it.

    Phase spans (``phase.*``) are skipped, so a store read inside
    ``ucp_loader.load`` maps to ``ucp_loader.load``.
    """
    by_id = {s.sid: s for s in spans}
    out: Dict[int, str] = {}
    for span in spans:
        name, cur = span.name, span
        while cur.parent is not None and cur.parent in by_id:
            cur = by_id[cur.parent]
            if cur.layer != "phase":
                name = cur.name
        out[span.sid] = name
    return out


def chrome_trace(spans: List[Span], metadata: Dict) -> Dict:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    if not spans:
        return {"traceEvents": [], "metadata": metadata}
    t0 = min(s.start for s in spans)
    tids: Dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.tid, len(tids) + 1)
        events.append({
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(s.seconds * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": {"op": s.op, "span": s.sid, "parent": s.parent, **s.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
