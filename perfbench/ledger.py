"""In-memory span tracing around public calls into each layer, and the
wall-time ledger derived from it.

The tracer never edits the program: :meth:`Tracer.patched` swaps public
functions and methods of ``repro`` modules for timing wrappers for the
duration of one traced analysis and restores them afterwards.  Spans carry
a name, start, end, the span that caused them and the analysis's run id.

A span's self time is its duration minus the time its child spans cover.
Summed over every span below (and including) the analysis root, self
times add up to the root's duration: that is the ledger.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "core.analysis"


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    run_id: str
    name: str
    start: float
    end: float
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one thread-local stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict becomes the span's attrs."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, self.run_id, name, start, end,
                        threading.current_thread().name, attrs)
            with self._lock:
                self.spans.append(span)

    def run_spans(self, run_id: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.run_id == run_id]

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if measure is not None:
                    attrs.update(measure(out))
                return out

        return wrapper

    def _wrap_generator(self, fn, name: str):
        """Time each ``next()`` of a generator as its own span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name) as attrs:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    attrs["yielded"] = True
                yield item

        return wrapper

    @contextmanager
    def patched(self, run_id: str):
        """Wrap the traced public calls for the duration of the block."""
        from repro.core import algorithms
        from repro.engine import context, scheduler, transport
        from repro.obs import inference
        from repro.stats.score import cox

        def _nbytes(out) -> dict:
            return {"bytes": len(out)}

        targets = [
            (algorithms.DistributedSparkScore, "observed_statistics",
             "core.observed", "call", None),
            (algorithms, "mc_multiplier_batches", "stats.streams", "gen", None),
            (algorithms, "permutation_batches", "stats.streams", "gen", None),
            (cox.CoxScoreModel, "permuted", "stats.permuted", "call", None),
            (context.Context, "run_job", "engine.run_job", "call", None),
            (context.Context, "broadcast", "engine.broadcast.create", "call", None),
            # the scheduler binds these names at import; wrap them where
            # it calls them, not in their home modules
            (scheduler, "closure_dumps", "engine.closure.dumps", "call", _nbytes),
            (scheduler, "compress_blob", "engine.serializer.compress", "call", _nbytes),
            (transport.Transport, "put", "engine.transport.put", "call", None),
            (inference.ConvergenceMonitor, "fold", "obs.inference.fold", "call", None),
            (inference.InferenceObservability, "publish",
             "obs.inference.publish", "call", None),
        ]
        saved = []
        self.run_id = run_id
        try:
            for owner, attr, name, kind, measure in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if kind == "gen":
                    wrapped = self._wrap_generator(original, name)
                else:
                    wrapped = self._wrap_call(original, name, measure)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span], root: Span) -> dict[str, float]:
    """Self seconds per span name over the root's subtree (root included)."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    out: dict[str, float] = defaultdict(float)
    todo = [root]
    while todo:
        span = todo.pop()
        kids = children.get(span.span_id, [])
        out[span.name] += span.duration - sum(k.duration for k in kids)
        todo.extend(kids)
    return dict(out)


def totals(spans: list[Span], name: str) -> float:
    """Inclusive seconds of the spans called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def count(spans: list[Span], name: str, attr: str | None = None) -> int:
    return sum(1 for s in spans if s.name == name and (attr is None or attr in s.attrs))


def attr_sum(spans: list[Span], name: str, attr: str) -> int:
    return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)
