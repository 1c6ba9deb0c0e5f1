"""Cached blocks ship once by ref, and their blobs live as long as the block.

On the cluster backend a task that reads a cached partition gets the
driver-held block as a transport-backed handle
(:meth:`~repro.engine.blockmanager.BlockManager.ship`): the block is
pickled once, the task payload carries only its ref, and worker processes
decode it once through the broadcast memo.  The blob is released when the
block leaves the driver's block manager -- unpersisted, evicted, or lost
with its executor -- not only when the Context stops.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine import broadcast as bc
from repro.engine.blockmanager import BlockManager
from repro.engine.context import Context
from repro.engine.storage import StorageLevel
from repro.engine.transport import Transport, TransportLease, _shm_usable
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

from tests.conftest import shm_segments


def _config(backend: str, **overrides) -> EngineConfig:
    base = dict(backend=backend, num_executors=2, executor_cores=1,
                default_parallelism=4)
    base.update(overrides)
    return EngineConfig(**base)


def _dataset(n_snps: int, seed: int = 3, n_patients: int = 400):
    return generate_dataset(SyntheticConfig(
        n_patients=n_patients, n_snps=n_snps, n_snpsets=8, seed=seed))


class _CountingPickle:
    """Stands in for the broadcast module's ``pickle``: counts dumps per object."""

    def __init__(self) -> None:
        self.dumps_of = Counter()

    def dumps(self, obj, *args, **kwargs):
        self.dumps_of[id(obj)] += 1
        return pickle.dumps(obj, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(pickle, name)


def _cluster_mc(dataset, monkeypatch):
    """A cluster MC analysis: results, the TASK payload sizes of its
    cache-hit tasks, and how often each cached block was pickled."""
    counting = _CountingPickle()
    monkeypatch.setattr(bc, "pickle", counting)
    with Context(_config("cluster")) as ctx:
        scorer = DistributedSparkScore(ctx, dataset, flavor="vectorized")
        observed = scorer.observed_statistics()  # computes and caches U
        sizes = []
        submit = ctx.backend.submit_pickled

        def recording_submit(payload, executor_id=None):
            if pickle.loads(payload)["cached_blocks"]:  # a cache-hit task
                sizes.append(len(payload))
            return submit(payload, executor_id)

        monkeypatch.setattr(ctx.backend, "submit_pickled", recording_submit)
        mc = scorer.monte_carlo(64, seed=2, batch_size=16)
        blocks = [
            executor.block_manager.get(block_id)
            for executor in ctx.executors
            for block_id in executor.block_manager.block_ids()
        ]
        pickles = [counting.dumps_of[id(block)] for block in blocks]
    return observed, mc.exceed_counts, sizes, pickles


class TestPayloadIndependentOfBlock:
    def test_task_payload_flat_while_block_grows_8x(self, monkeypatch):
        largest = {}
        for n_snps in (500, 4000):
            dataset = _dataset(n_snps)
            with Context(_config("serial")) as ctx:
                serial = DistributedSparkScore(ctx, dataset, flavor="vectorized")
                expected = (serial.observed_statistics(),
                            serial.monte_carlo(64, seed=2, batch_size=16).exceed_counts)
            observed, counts, sizes, pickles = _cluster_mc(dataset, monkeypatch)
            assert np.array_equal(observed, expected[0])
            assert np.array_equal(counts, expected[1])
            assert sizes
            largest[n_snps] = max(sizes)
            # every cached block was read by later tasks, and pickled once
            assert pickles and set(pickles) == {1}, pickles
        assert largest[4000] <= 1.1 * largest[500], largest

    @pytest.mark.parametrize("method", ["monte_carlo", "permutation"])
    def test_cluster_matches_serial(self, method):
        dataset = _dataset(300, seed=8, n_patients=120)
        results = {}
        for backend in ("serial", "cluster"):
            with Context(_config(backend)) as ctx:
                scorer = DistributedSparkScore(ctx, dataset)
                results[backend] = getattr(scorer, method)(48, seed=4, batch_size=16)
        assert np.array_equal(results["cluster"].observed, results["serial"].observed)
        assert np.array_equal(results["cluster"].exceed_counts,
                              results["serial"].exceed_counts)


def _shipped_keys(ctx) -> set[str]:
    return {
        handle._ref.key
        for executor in ctx.executors
        for handle in executor.block_manager._shipped.values()
        if handle._ref is not None
    }


def _cached_rdd(ctx):
    rdd = ctx.parallelize([np.full(20_000, float(i + 1)) for i in range(4)], 4)
    rdd = rdd.map(lambda a: a + 100.0).cache()
    rdd.count()  # computes and caches the blocks
    rdd.map(lambda a: float(a.sum())).collect()  # ships them by ref
    return rdd


@pytest.mark.skipif(not _shm_usable(), reason="no POSIX shared memory here")
class TestShippedBlobLifetime:
    def test_unpersist_releases_blobs(self):
        with Context(_config("cluster")) as ctx:
            rdd = _cached_rdd(ctx)
            shipped = _shipped_keys(ctx)
            assert len(shipped) == 4 and shipped <= shm_segments()
            rdd.unpersist()
            assert shipped & shm_segments() == set()

    def test_lost_executor_releases_its_blobs(self):
        with Context(_config("cluster")) as ctx:
            rdd = _cached_rdd(ctx)
            lost = {
                handle._ref.key
                for handle in ctx.executors[0].block_manager._shipped.values()
            }
            kept = _shipped_keys(ctx) - lost
            assert lost and kept
            ctx.kill_executor(ctx.executors[0].executor_id)
            assert lost & shm_segments() == set()
            assert kept <= shm_segments()
            # the lost partitions recompute from lineage on the survivor
            sums = rdd.map(lambda a: float(a.sum())).collect()
            assert sums == [(i + 101.0) * 20_000 for i in range(4)]

    def test_blob_released_before_the_task_ran_is_a_cache_miss(self):
        """A task dispatched with a ref whose blob is gone (its block was
        evicted on the driver meanwhile) recomputes the block."""
        with Context(_config("cluster")) as ctx:
            rdd = ctx.parallelize([np.full(10, float(i)) for i in range(4)], 4)
            rdd = rdd.map(lambda a: a + 0.5).cache()
            rdd.count()
            for executor in ctx.executors:
                for block_id in executor.block_manager.block_ids():
                    handle = executor.block_manager.ship(block_id, ctx.transport)
                    pickle.dumps(handle)  # publishes the blob
                    ctx.transport.transport.delete(handle._ref)  # ...and drops it
            sums = rdd.map(lambda a: float(a.sum())).collect()
            assert sums == [10 * (i + 0.5) for i in range(4)]
            job = ctx.metrics.jobs[-1]
            assert job.num_task_failures == 0
            assert sum(
                rec.metrics.cache_misses for stage in job.stages for rec in stage.tasks
            ) == 4


class TestEvictionReleasesBlob:
    def test_evicted_block_blob_is_deleted(self, tmp_path):
        transport = Transport("file", str(tmp_path))
        lease = TransportLease(transport)
        try:
            manager = BlockManager("exec-0", memory_budget=120_000)
            manager.put((1, 0), [np.zeros(10_000)], StorageLevel.MEMORY)
            handle = manager.ship((1, 0), lease)
            assert manager.ship((1, 0), lease) is handle  # one handle per block
            pickle.dumps(handle)  # publishes the blob
            ref = handle._ref
            assert transport.get(ref)
            manager.put((1, 1), [np.ones(10_000)], StorageLevel.MEMORY)  # evicts (1, 0)
            assert not manager.contains((1, 0))
            with pytest.raises(FileNotFoundError):
                transport.get(ref)
        finally:
            transport.close()

    def test_worker_memo_bounded_by_bytes(self, monkeypatch, tmp_path):
        from repro.engine import transport as tp
        from repro.engine.broadcast import Broadcast

        t = Transport("file", str(tmp_path))
        arrays = [np.full(1000, float(i)) for i in range(4)]
        blob_size = len(pickle.dumps(arrays[0], protocol=pickle.HIGHEST_PROTOCOL))
        monkeypatch.setattr(bc, "_WORKER_VALUES_MAX_BYTES", 2 * blob_size)
        monkeypatch.setattr(tp, "_WORKER", {"spec": t.spec(), "transport": t})
        bc._WORKER_VALUES.clear()
        try:
            for i, array in enumerate(arrays):
                clone = pickle.loads(pickle.dumps(Broadcast(i, array, transport=t)))
                assert clone.value[0] == i
            assert len(bc._WORKER_VALUES) == 2  # count cap (64) never reached
            assert sum(size for _, size in bc._WORKER_VALUES.values()) == 2 * blob_size
        finally:
            bc._WORKER_VALUES.clear()
            t.close()
