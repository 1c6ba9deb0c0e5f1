"""Cluster workers run each native BLAS pool single-threaded.

A cluster worker process is one task slot, so each OpenBLAS it has loaded
is capped at one thread when the worker takes its first task -- unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` says otherwise -- without
starting the thread pool the fork shut down.  The driver's own pools are
left as they were.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.config import EngineConfig
from repro.engine.cluster_backend import openblas_pools, openblas_threads
from repro.engine.context import Context

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

pytestmark = pytest.mark.skipif(
    not openblas_pools(), reason="no OpenBLAS loaded in this process"
)


def _blas_report(_):
    """A task's OpenBLAS thread counts, and the OS threads of its process
    that Python did not start (OpenBLAS's pool), after a large matmul."""
    import threading

    import numpy as np

    a = np.ones((400, 400))
    a @ a
    native = len(os.listdir("/proc/self/task")) - threading.active_count()
    return openblas_threads(), native


@pytest.mark.skipif(
    any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")),
    reason="an explicit BLAS thread count is set for this run",
)
class TestWorkerPools:
    def test_task_reports_one_thread_and_driver_keeps_its_own(self):
        driver_before = openblas_threads()
        # an interval no other test uses, so this context spawns its own fleet
        config = EngineConfig(backend="cluster", num_executors=2, executor_cores=1,
                              default_parallelism=2, heartbeat_interval=0.41)
        with Context(config) as ctx:
            per_task = ctx.parallelize(range(2), 2).map(_blas_report).collect()
            manager = ctx.backend._manager
        manager.stop()
        assert len(per_task) == 2
        for counts, native in per_task:
            assert counts and set(counts) == {1}, per_task
            if all(cpu_number is not None for _, _, cpu_number in openblas_pools()):
                # capped without restarting the pool a fork shut down
                assert native == 0, per_task
        assert openblas_threads() == driver_before


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to tell 2 from 1")
def test_explicit_openblas_num_threads_is_honoured():
    script = textwrap.dedent("""
        import json
        from repro.config import EngineConfig
        from repro.engine.cluster_backend import openblas_threads, stop_all_clusters
        from repro.engine.context import Context

        config = EngineConfig(backend="cluster", num_executors=1, executor_cores=1,
                              default_parallelism=1)
        with Context(config) as ctx:
            workers = ctx.parallelize([0], 1).map(lambda _: openblas_threads()).collect()
        stop_all_clusters()
        print(json.dumps({"driver": openblas_threads(), "worker": workers[0]}))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC), OPENBLAS_NUM_THREADS="2")
    env.pop("OMP_NUM_THREADS", None)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.strip().splitlines()[-1])
    assert counts["driver"] and set(counts["driver"]) == {2}, counts
    assert counts["worker"][: len(counts["driver"])] == counts["driver"], counts
