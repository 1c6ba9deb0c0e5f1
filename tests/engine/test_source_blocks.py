"""Source blocks: driver-resident partitions ship once, binaries carry refs.

``parallelize`` slices (and HDFS blocks) travel as transport-backed
:class:`~repro.engine.broadcast.SourceBlock` handles on process-isolated
backends, so a stage's task binary does not grow with the dataset, and
everything a Context published is released when it stops.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine.context import Context
from repro.engine.transport import _shm_usable
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.hdfs.filesystem import MiniHDFS

from tests.conftest import shm_segments

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _config(backend: str, **overrides) -> EngineConfig:
    base = dict(backend=backend, num_executors=2, executor_cores=2,
                default_parallelism=4)
    base.update(overrides)
    return EngineConfig(**base)


def _dataset(n_snps: int, seed: int = 3, n_patients: int = 1000):
    return generate_dataset(SyntheticConfig(
        n_patients=n_patients, n_snps=n_snps, n_snpsets=8, seed=seed))


def _analyze(config: EngineConfig, dataset, flavor: str):
    """Observed statistics + a short MC run, and the largest per-task
    task-binary charge of the whole analysis."""
    with Context(config) as ctx:
        scorer = DistributedSparkScore(ctx, dataset, flavor=flavor)
        observed = scorer.observed_statistics()
        mc = scorer.monte_carlo(16, seed=2, batch_size=16)
        largest = max(
            rec.metrics.task_binary_bytes
            for job in ctx.metrics.jobs for stage in job.stages for rec in stage.tasks
        )
    return observed, mc.exceed_counts, largest


class TestBinarySizeIndependentOfData:
    @pytest.mark.parametrize("flavor", ["paper", "vectorized"])
    def test_binary_bytes_flat_while_matrix_grows_8x(self, flavor):
        largest = {}
        for n_snps in (500, 4000):
            dataset = _dataset(n_snps)
            serial = _analyze(_config("serial"), dataset, flavor)
            observed, counts, largest[n_snps] = _analyze(
                _config("cluster"), dataset, flavor)
            assert np.array_equal(observed, serial[0])
            assert np.array_equal(counts, serial[1])
        assert largest[4000] <= 1.1 * largest[500], largest


@pytest.mark.skipif(not _shm_usable(), reason="no POSIX shared memory here")
class TestContextReleasesWhatItPublished:
    def test_three_contexts_leave_no_segments(self):
        config = _config("cluster")
        with Context(config) as warmup:  # spawn the fleet outside the count
            warmup.parallelize(range(8), 4).count()
        for seed in (1, 2, 3):
            before = shm_segments()
            dataset = _dataset(600, seed=seed, n_patients=200)
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, dataset)
                scorer.monte_carlo(32, seed=seed, batch_size=16)
                assert shm_segments() - before  # source blocks were published
            assert shm_segments() - before == set()

    def test_shared_blob_survives_until_last_holder_stops(self):
        config = _config("cluster")
        dataset = _dataset(600, seed=9, n_patients=200)
        before = shm_segments()
        first = Context(config)
        try:
            DistributedSparkScore(first, dataset).observed_statistics()
            published = shm_segments() - before
            with Context(config) as second:
                # identical source blocks: dedup'd against first's segments
                DistributedSparkScore(second, dataset).observed_statistics()
            assert published <= shm_segments()  # first still holds them
        finally:
            first.stop()
        assert shm_segments() - before == set()


class TestEvictionSparesHeldBlobs:
    def test_tiny_store_budget_uncached_permutation(self):
        """A socket store far below the working set evicts only released
        blobs: a live context's source blocks, binaries and broadcasts
        stay fetchable, so an uncached run recomputes from them."""
        dataset = _dataset(300, seed=4, n_patients=120)
        with Context(_config("serial")) as serial_ctx:
            expected = DistributedSparkScore(serial_ctx, dataset).permutation(
                32, seed=6, batch_size=8)
        config = _config("cluster", num_executors=1, transport_scheme="tcp")
        with Context(config) as ctx:
            store = ctx.transport.transport
            budget, store.store_budget = store.store_budget, 1024
            try:
                result = DistributedSparkScore(ctx, dataset).permutation(
                    32, seed=6, batch_size=8)
            finally:
                store.store_budget = budget
        assert np.array_equal(result.observed, expected.observed)
        assert np.array_equal(result.exceed_counts, expected.exceed_counts)


class TestHdfsInputOnProcessBackends:
    @pytest.mark.parametrize("backend", ["processes", "cluster"])
    def test_hdfs_scorer_matches_serial(self, backend):
        dataset = _dataset(300, seed=5, n_patients=80)
        results = {}
        for name in ("serial", backend):
            fs = MiniHDFS(num_datanodes=3, block_size=8192)
            paths = write_dataset(dataset, "/exp", hdfs=fs)
            with Context(_config(name), hdfs=fs) as ctx:
                scorer = DistributedSparkScore(
                    ctx, dataset, flavor="paper",
                    input_paths={"genotypes": paths["genotypes"],
                                 "weights": paths["weights"]},
                )
                results[name] = scorer.monte_carlo(16, seed=3, batch_size=8)
        assert np.array_equal(results[backend].observed, results["serial"].observed)
        assert np.array_equal(results[backend].exceed_counts,
                              results["serial"].exceed_counts)


class TestInterpreterExit:
    def test_cluster_run_without_teardown_leaks_no_segments(self):
        script = textwrap.dedent("""
            from repro.config import EngineConfig
            from repro.core.algorithms import DistributedSparkScore
            from repro.engine.context import Context
            from repro.genomics.synthetic import SyntheticConfig, generate_dataset

            dataset = generate_dataset(SyntheticConfig(
                n_patients=200, n_snps=600, n_snpsets=8, seed=1))
            ctx = Context(EngineConfig(backend="cluster", num_executors=1,
                                       executor_cores=2, default_parallelism=4))
            DistributedSparkScore(ctx, dataset).monte_carlo(32, seed=1, batch_size=16)
            # no ctx.stop(), no stop_all_clusters(): the exit hook must clean up
        """)
        before = shm_segments()
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "leaked shared_memory" not in done.stderr, done.stderr
        assert shm_segments() - before == set()
