"""Data-plane framing helpers.

Everything the engine moves between tasks -- shuffle buckets, cached-block
spills and shipped cache blocks, broadcasts, task results -- is a
``pickle`` frame at the highest protocol; callers use :mod:`pickle`
directly.  This module holds the two pieces of framing around those
frames:

- :func:`compress_blob` / :func:`decompress_blob` -- flag-prefixed zlib
  framing for task binaries, which are already bytes when the transport
  sees them (closure pickles compress well; broadcasts are mostly
  numeric arrays and ship raw);
- :class:`FrameBatch` -- a picklable batch of shuffle frames, decoded on
  iteration, so the scheduler can pre-fetch a reduce task's input without
  a driver-side decode + re-pickle.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Iterator

__all__ = [
    "FrameBatch",
    "compress_blob",
    "decompress_blob",
]

_COMP_RAW = b"R"
_COMP_ZLIB = b"Z"


def compress_blob(blob: bytes, threshold: int = 512, level: int = 6) -> bytes:
    """Flag-prefixed, possibly-zlib'd copy of ``blob`` (see ``decompress_blob``).

    Small blobs are framed raw: compressing a 40-byte payload costs more
    than it saves.
    """
    if len(blob) >= threshold:
        packed = zlib.compress(blob, level)
        if len(packed) < len(blob):
            return _COMP_ZLIB + packed
    return _COMP_RAW + blob


def decompress_blob(framed: bytes) -> bytes:
    flag = framed[:1]
    if flag == _COMP_ZLIB:
        return zlib.decompress(memoryview(framed)[1:])
    if flag == _COMP_RAW:
        return bytes(memoryview(framed)[1:])
    raise ValueError(f"unknown compression flag {flag!r}")


class FrameBatch:
    """A picklable sequence of pickled record lists, decoded on iteration.

    The scheduler pre-fetches shuffle input for worker-process tasks as
    the map outputs' *frames* (no driver-side decode + re-pickle); the
    worker iterates the batch, which decodes each frame on traversal.
    ``iter()`` yields the concatenated records.
    """

    __slots__ = ("frames",)

    def __init__(self, frames: list[bytes]) -> None:
        self.frames = frames

    def __iter__(self) -> Iterator:
        for frame in self.frames:
            yield from pickle.loads(frame)

    def __reduce__(self):
        return (FrameBatch, (self.frames,))

    def __repr__(self) -> str:
        return f"FrameBatch({len(self.frames)} frames)"
