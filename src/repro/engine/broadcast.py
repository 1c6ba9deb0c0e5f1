"""Broadcast variables.

A broadcast wraps a read-only value shipped once to every executor rather
than with every task closure.  In this single-process engine the win is
semantic fidelity plus metrics: the context records broadcast sizes so the
cost model can charge network transfer, and ``unpersist``/``destroy``
lifecycle matches Spark's.

With the cluster backend a context-attached :class:`~repro.engine.transport.
Transport` upgrades broadcasts to out-of-band delivery: the first pickle of
a broadcast publishes its raw pickle to shared memory (or the temp-file
fallback) exactly once, and every task closure thereafter carries only a
:class:`~repro.engine.transport.TransportRef`.  Payloads are not
compressed: the large ones are numeric arrays, where zlib saves ~4% of the
bytes and costs tens of milliseconds per 512 KB.  Workers attach the segment lazily
on first ``.value`` access and memoize the decoded value for the life of
the process -- the Torrent-broadcast idea reduced to one host.

The same handle carries the other blocks a worker process reads but the
driver holds: :class:`SourceBlock` for the partitions of driver-resident
source RDDs (``parallelize``, HDFS blocks), and plain broadcasts for
cached partitions (see :meth:`~repro.engine.blockmanager.BlockManager.ship`).
Each is published once and tasks carry only its ref, so neither task
binaries nor task payloads grow with the data.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from typing import Any, Generic, TypeVar

T = TypeVar("T")

#: worker-side memo: transport ref identity -> decoded value (read-only,
#: safe to share).  Keyed by (scheme, key) rather than broadcast id because
#: persistent cluster workers outlive driver contexts, and every fresh
#: context restarts broadcast ids at 0 -- id keys would collide across jobs
#: while ref keys are content-addressed and never do.  Values are stored
#: with their blob size and LRU-capped by count *and* by bytes: persistent
#: executors would otherwise pin every broadcast and cached block ever
#: seen (multi-MB each) for the life of the fleet.
_WORKER_VALUES: "OrderedDict[tuple[str, str], tuple[Any, int]]" = OrderedDict()
_WORKER_VALUES_MAX = 64
_WORKER_VALUES_MAX_BYTES = 256 << 20
_WORKER_LOCK = threading.Lock()
#: driver side: jobs on two threads may pickle the same broadcast at once
_PUBLISH_LOCK = threading.Lock()


class BroadcastDestroyedError(RuntimeError):
    """Raised when ``.value`` is read after ``destroy()``."""


class Broadcast(Generic[T]):
    """Handle to a value broadcast to all executors."""

    def __init__(self, broadcast_id: int, value: T, transport: Any = None) -> None:
        self.id = broadcast_id
        self._value: T | None = value
        self._destroyed = False
        self._size_bytes: int | None = None
        self._transport = transport
        self._ref: Any = None  # TransportRef once published
        self._blob: bytes | None = None  # pickle, driver-side cache

    @property
    def value(self) -> T:
        if self._destroyed:
            raise BroadcastDestroyedError(f"broadcast {self.id} was destroyed")
        if self._value is None and self._ref is not None:
            self._value = self._fetch_remote()
        return self._value  # type: ignore[return-value]

    def _fetch_remote(self) -> T:
        """Worker-side lazy load: attach the segment once per process."""
        memo_key = (self._ref.scheme, self._ref.key)
        with _WORKER_LOCK:
            if memo_key in _WORKER_VALUES:
                from repro.engine.backends import current_task_executor
                from repro.obs.registry import REGISTRY

                _WORKER_VALUES.move_to_end(memo_key)
                REGISTRY.counter(
                    "broadcast_memo_hits_total",
                    "Broadcast values served from the worker's warm memo",
                    labelnames=("executor",),
                ).labels(executor=current_task_executor()).inc()
                return _WORKER_VALUES[memo_key][0]
        from repro.engine.transport import worker_transport

        transport = worker_transport()
        if transport is None:
            raise RuntimeError(
                f"{self!r} shipped by ref but no transport attached"
            )
        blob = transport.get(self._ref)
        value = pickle.loads(blob)
        with _WORKER_LOCK:
            _WORKER_VALUES[memo_key] = (value, len(blob))
            _WORKER_VALUES.move_to_end(memo_key)
            held = sum(size for _, size in _WORKER_VALUES.values())
            # the newest value stays even when it alone exceeds the bound
            while len(_WORKER_VALUES) > 1 and (
                len(_WORKER_VALUES) > _WORKER_VALUES_MAX
                or held > _WORKER_VALUES_MAX_BYTES
            ):
                held -= _WORKER_VALUES.popitem(last=False)[1][1]
        return value

    def _publish(self) -> bytes | None:
        """Pickle the payload and, given a transport, publish it out-of-band.

        Returns the pickle when the broadcast stays inline (no transport),
        or ``None`` once a transport ref exists.  Idempotent: the content-hash
        dedup in :meth:`Transport.put` plus driver-side memoization mean
        repeated pickles of the same broadcast never re-publish.
        """
        with _PUBLISH_LOCK:
            if self._ref is not None:
                return None
            if self._blob is None:
                self._blob = self._dumps(self._value)
                self._size_bytes = len(self._blob)
            if self._transport is not None:
                self._ref = self._transport.put(self._blob, dedup=True)
                self._blob = None  # the transport holds the bytes now
                return None
            return self._blob

    @staticmethod
    def _dumps(value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def __getstate__(self) -> dict:
        if self._destroyed:
            raise BroadcastDestroyedError(
                f"cannot ship destroyed broadcast {self.id}"
            )
        blob = self._publish()
        return {"id": self.id, "ref": self._ref, "blob": blob}

    def __setstate__(self, state: dict) -> None:
        self.id = state["id"]
        self._destroyed = False
        self._size_bytes = None
        self._transport = None
        self._ref = state["ref"]
        self._blob = None
        if state["blob"] is not None:
            self._value = pickle.loads(state["blob"])
        else:
            self._value = None  # lazy-loaded from the transport on .value

    @property
    def size_bytes(self) -> int:
        """Pickled size of the payload (lazy, cached)."""
        if self._size_bytes is None:
            if self._destroyed:
                raise BroadcastDestroyedError(f"broadcast {self.id} was destroyed")
            self._size_bytes = len(self._dumps(self._value))
        return self._size_bytes

    def unpersist(self) -> None:
        """Release executor copies and any published transport segment."""
        if self._transport is not None and self._ref is not None:
            self._transport.delete(self._ref)
            self._ref = None
            self._blob = None

    def destroy(self) -> None:
        """Release the value entirely; further ``.value`` reads raise."""
        self.unpersist()
        self._destroyed = True
        self._value = None
        self._blob = None

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else "live"
        return f"Broadcast(id={self.id}, {state})"


class SourceBlock(Broadcast):
    """One partition of a driver-resident source RDD, shipped once.

    A broadcast every task of the stage carries, but only the task for its
    partition reads.  The value pickles with the closure pickler: source
    data may hold lambdas, as it did inside the task binary.
    """

    @staticmethod
    def _dumps(value: Any) -> bytes:
        from repro.engine.closure import dumps

        return dumps(value)

    def __repr__(self) -> str:
        return f"SourceBlock(split={self.id})"
