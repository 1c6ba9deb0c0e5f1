"""Broadcast variables.

A broadcast wraps a read-only value shipped once to every executor rather
than with every task closure.  In this single-process engine the win is
semantic fidelity plus metrics: the context records broadcast sizes so the
cost model can charge network transfer, and ``unpersist``/``destroy``
lifecycle matches Spark's.

With the cluster backend a context-attached :class:`~repro.engine.transport.
Transport` upgrades broadcasts to out-of-band delivery: the first pickle of
a broadcast publishes its compressed payload to shared memory (or the
temp-file fallback) exactly once, and every task closure thereafter carries
only a :class:`~repro.engine.transport.TransportRef`.  Workers attach the
segment lazily on first ``.value`` access and memoize the decoded value for
the life of the process -- the Torrent-broadcast idea reduced to one host.

:class:`SourceBlock` rides the same path for the partitions of driver-resident
source RDDs (``parallelize``, HDFS blocks): each slice is published once,
uncompressed, and task binaries carry only its ref, so their size does not
grow with the dataset.
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
#: while ref keys are content-addressed and never do.  LRU-capped like the
#: task-binary cache: persistent executors would otherwise accumulate
#: every broadcast value ever seen for the life of the fleet.
_WORKER_VALUES: "OrderedDict[tuple[str, str], Any]" = OrderedDict()
_WORKER_VALUES_MAX = 64
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
        self._blob: bytes | None = None  # compressed pickle, driver-side cache

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
                return _WORKER_VALUES[memo_key]
        from repro.engine.transport import worker_transport

        transport = worker_transport()
        if transport is None:
            raise RuntimeError(
                f"{self!r} shipped by ref but no transport attached"
            )
        value = self._decode(transport.get(self._ref))
        with _WORKER_LOCK:
            _WORKER_VALUES[memo_key] = value
            _WORKER_VALUES.move_to_end(memo_key)
            while len(_WORKER_VALUES) > _WORKER_VALUES_MAX:
                _WORKER_VALUES.popitem(last=False)
        return value

    def _publish(self) -> bytes | None:
        """Encode the payload and, given a transport, publish it out-of-band.

        Returns the encoded blob when the broadcast stays inline (no
        transport), or ``None`` once a transport ref exists.  Idempotent: the content-hash
        dedup in :meth:`Transport.put` plus driver-side memoization mean
        repeated pickles of the same broadcast never re-publish.
        """
        with _PUBLISH_LOCK:
            if self._ref is not None:
                return None
            if self._blob is None:
                raw = self._dumps(self._value)
                self._size_bytes = len(raw)
                self._blob = self._encode(raw)
            if self._transport is not None:
                self._ref = self._transport.put(self._blob, dedup=True)
                self._blob = None  # the transport holds the bytes now
                return None
            return self._blob

    # -- encoding: zlib'd pickle; SourceBlock overrides all three ------------

    @staticmethod
    def _dumps(value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _encode(raw: bytes) -> bytes:
        from repro.engine.serializer import compress_blob

        return compress_blob(raw)

    @staticmethod
    def _decode(blob: bytes) -> Any:
        from repro.engine.serializer import decompress_blob

        return pickle.loads(decompress_blob(blob))

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
            self._value = self._decode(state["blob"])
        else:
            self._value = None  # lazy-loaded from the transport on .value

    @property
    def size_bytes(self) -> int:
        """Pickled (uncompressed) size of the payload (lazy, cached)."""
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
    partition reads.  The value pickles with the closure pickler (source
    data may hold lambdas, as it did inside the task binary) and is
    published *uncompressed*: the blob is copied once into the transport,
    where zlib would cost more than the copy it saves.
    """

    @staticmethod
    def _dumps(value: Any) -> bytes:
        from repro.engine.closure import dumps

        return dumps(value)

    @staticmethod
    def _encode(raw: bytes) -> bytes:
        return raw

    @staticmethod
    def _decode(blob: bytes) -> Any:
        return pickle.loads(blob)

    def __repr__(self) -> str:
        return f"SourceBlock(split={self.id})"
