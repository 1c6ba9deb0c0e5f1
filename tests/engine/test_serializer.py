"""Data-plane framing: blob compression and deferred-decode FrameBatch."""

import pickle

import numpy as np
import pytest

from repro.engine.serializer import FrameBatch, compress_blob, decompress_blob


def _frame(records):
    return pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)


class TestBlobHelpers:
    def test_roundtrip_large(self):
        blob = b"abc" * 10_000
        framed = compress_blob(blob)
        assert framed[:1] == b"Z" and len(framed) < len(blob)
        assert decompress_blob(framed) == blob

    def test_roundtrip_small(self):
        framed = compress_blob(b"tiny")
        assert framed == b"Rtiny"
        assert decompress_blob(framed) == b"tiny"

    def test_bad_flag(self):
        with pytest.raises(ValueError):
            decompress_blob(b"Xoops")


class TestFrameBatch:
    def test_iterates_concatenated_records(self):
        batch = FrameBatch([_frame([(0, "a"), (1, "b")]), _frame([(2, "c")])])
        assert list(batch) == [(0, "a"), (1, "b"), (2, "c")]
        assert list(batch) == [(0, "a"), (1, "b"), (2, "c")]  # re-iterable

    def test_pickles_without_decoding(self):
        batch = FrameBatch([_frame([(k, np.arange(4)) for k in range(3)])])
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.frames == batch.frames
        assert [(k, v.tolist()) for k, v in clone] == [
            (k, list(range(4))) for k in range(3)
        ]
