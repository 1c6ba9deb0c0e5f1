"""Extended RDD operations: tree aggregation, checkpointing, statistics.

Attached to :class:`~repro.engine.rdd.RDD` by :func:`install` (called from
``rdd.py``), mirroring Spark's utility surface:

- ``tree_aggregate`` / ``tree_reduce`` -- multi-level combining so the
  driver merges O(sqrt(P)) partials instead of O(P);
- ``checkpoint`` -- materialize and truncate lineage (Spark's local
  checkpoint), which keeps iterative pipelines like Algorithm 2 from
  accumulating unbounded lineage;
- ``stats_summary`` -- single-pass count/mean/variance/min/max (Spark's
  ``StatCounter``);
- ``top`` and ``histogram``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


@dataclass
class StatCounter:
    """Mergeable running statistics (Welford/Chan parallel variance)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0  # sum of squared deviations from the mean
    min_value: float = math.inf
    max_value: float = -math.inf

    def add(self, value: float) -> "StatCounter":
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        return self

    def merge(self, other: "StatCounter") -> "StatCounter":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.min_value = other.min_value
            self.max_value = other.max_value
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        return self

    @property
    def sum(self) -> float:
        return self.mean * self.count

    @property
    def variance(self) -> float:
        """Population variance (Spark semantics)."""
        return self.m2 / self.count if self.count > 0 else math.nan

    @property
    def sample_variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance) if self.count > 0 else math.nan


def _stat_seq(acc: StatCounter, value: Any) -> StatCounter:
    return acc.add(value)


def _stat_comb(a: StatCounter, b: StatCounter) -> StatCounter:
    return a.merge(b)


class _PartialFoldFn:
    """Per-partition fold emitting a single-element iterator (tree stage 0)."""

    def __init__(self, zero_factory: Callable[[], Any], seq_op: Callable) -> None:
        self.zero_factory = zero_factory
        self.seq_op = seq_op

    def __call__(self, it: Iterator) -> Iterator:
        acc = self.zero_factory()
        for item in it:
            acc = self.seq_op(acc, item)
        return iter([acc])


class _KeyByGroupFn:
    """Keys each partial by (partition index mod groups) for tree combining."""

    def __init__(self, groups: int) -> None:
        self.groups = groups

    def __call__(self, split: int, it: Iterator) -> Iterator:
        return ((split % self.groups, value) for value in it)


def tree_aggregate(
    self: "RDD",
    zero_factory: Callable[[], Any],
    seq_op: Callable,
    comb_op: Callable,
    depth: int = 2,
) -> Any:
    """Aggregate with ``depth`` levels of distributed combining.

    ``zero_factory`` is called per partition so mutable accumulators (like
    :class:`StatCounter`) are never shared.  With P partitions and depth d,
    each level reduces the partial count by P^(1/d); the driver merges only
    the final handful.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    partials = self.map_partitions(_PartialFoldFn(zero_factory, seq_op), name="tree_partials")
    num = partials.num_partitions()
    scale = max(2, int(math.ceil(num ** (1.0 / depth))))
    level = 0
    while num > scale and level < depth - 1:
        groups = max(1, int(math.ceil(num / scale)))
        partials = (
            partials.map_partitions_with_index(_KeyByGroupFn(groups), name="tree_keyed")
            .reduce_by_key(comb_op, groups)
            .values()
        )
        num = partials.num_partitions()
        level += 1
    result = None
    for partial in partials.collect():
        result = partial if result is None else comb_op(result, partial)
    if result is None:
        return zero_factory()
    return result


def tree_reduce(self: "RDD", op: Callable, depth: int = 2) -> Any:
    """Like ``reduce`` but with tree-structured combining.

    Implemented as tree_aggregate over an option type where the sentinel
    ``_EMPTY`` marks partitions that contributed nothing.
    """
    out = tree_aggregate(self, _empty_factory, _OptionSeq(op), _OptionComb(op), depth)
    if out is _EMPTY:
        raise ValueError("tree_reduce() of empty RDD")
    return out


class _OptionSeq:
    def __init__(self, op: Callable) -> None:
        self.op = op

    def __call__(self, acc: Any, value: Any) -> Any:
        return value if acc is _EMPTY else self.op(acc, value)


class _OptionComb:
    def __init__(self, op: Callable) -> None:
        self.op = op

    def __call__(self, a: Any, b: Any) -> Any:
        if a is _EMPTY:
            return b
        if b is _EMPTY:
            return a
        return self.op(a, b)


class _Empty:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<empty>"

    def __reduce__(self):
        # identity checks (``acc is _EMPTY``) must survive a round trip
        # through worker processes
        return (_empty_factory, ())


_EMPTY = _Empty()


def _empty_factory() -> Any:
    return _EMPTY


def checkpoint(self: "RDD") -> "RDD":
    """Materialize this RDD and return a lineage-free replacement.

    The partitions are computed once (through the cache if persisted) and
    re-hosted in a fresh source RDD with identical partitioning.  Spark's
    ``localCheckpoint`` analogue: iterative drivers call this to stop the
    lineage graph -- and hence recomputation cost after failures -- from
    growing with iteration count.
    """
    from repro.engine.rdd import ParallelCollectionRDD

    parts = self.context.run_job(self, list, description=f"checkpoint({self.name})")

    out = ParallelCollectionRDD(self.context, parts, name=f"checkpoint:{self.name}")
    out.partitioner = self.partitioner
    return out


def stats_summary(self: "RDD") -> StatCounter:
    """Single-pass count/mean/variance/min/max over a numeric RDD."""
    return tree_aggregate(self, StatCounter, _stat_seq, _stat_comb, depth=2)


def top(self: "RDD", n: int, key: Callable | None = None) -> list:
    """Largest ``n`` elements in descending order."""
    if n <= 0:
        return []
    parts = self.context.run_job(self, _TopFn(n, key))
    merged = heapq.nlargest(n, (x for part in parts for x in part), key=key)
    return merged


class _TopFn:
    def __init__(self, n: int, key: Callable | None) -> None:
        self.n = n
        self.key = key

    def __call__(self, it: Iterator) -> list:
        return heapq.nlargest(self.n, it, key=self.key)


def histogram(self: "RDD", buckets: int | list) -> tuple[list, list]:
    """Histogram of a numeric RDD.

    ``buckets`` may be a count (evenly spaced over [min, max]) or explicit
    ascending edges.  Returns (edges, counts); the last bucket is closed on
    the right, as in Spark.
    """
    if isinstance(buckets, int):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        stats = stats_summary(self)
        if stats.count == 0:
            raise ValueError("histogram() of empty RDD")
        lo, hi = stats.min_value, stats.max_value
        if lo == hi:
            hi = lo + 1.0
        step = (hi - lo) / buckets
        edges = [lo + i * step for i in range(buckets)] + [hi]
    else:
        edges = list(buckets)
        if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be ascending with >= 2 entries")
    counts_per_part = self.context.run_job(self, _HistFn(edges))
    totals = [0] * (len(edges) - 1)
    for part in counts_per_part:
        for i, c in enumerate(part):
            totals[i] += c
    return edges, totals


class _HistFn:
    def __init__(self, edges: list) -> None:
        self.edges = edges

    def __call__(self, it: Iterator) -> list:
        import bisect

        counts = [0] * (len(self.edges) - 1)
        lo, hi = self.edges[0], self.edges[-1]
        for value in it:
            if value < lo or value > hi:
                continue
            idx = bisect.bisect_right(self.edges, value) - 1
            if idx == len(counts):  # value == hi: closed right edge
                idx -= 1
            counts[idx] += 1
        return counts


def install(rdd_cls: type) -> None:
    for func in (tree_aggregate, tree_reduce, checkpoint, stats_summary, top, histogram):
        setattr(rdd_cls, func.__name__, func)
