"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: CI sets REPRO_BACKEND=threads to run the suite against the shared-state
#: thread pool, exercising engine-level races on every push.  Tests that
#: need determinism or backend-specific behavior use serial_config directly.
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "serial")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "shared_driver_state: test observes driver-side closure mutation "
        "(list.append inside a task); impossible across a process boundary, "
        "skipped when REPRO_BACKEND=processes",
    )


def pytest_collection_modifyitems(config, items):
    if DEFAULT_BACKEND not in ("processes", "cluster"):
        return
    skip = pytest.mark.skip(
        reason="closures ship to worker processes by value; driver-side "
        "mutations are not visible (documented engine limit)"
    )
    for item in items:
        if "shared_driver_state" in item.keywords:
            item.add_marker(skip)


#: threads that are *supposed* to outlive a context: the persistent
#: cluster's dispatch loop and transport servers survive across contexts
#: by design and are reaped once per session (see _reap_persistent_engine)
_PERSISTENT_THREAD_PREFIXES = ("repro-cluster",)


def shm_segments() -> set[str]:
    """Engine-made shared-memory segments (transport blobs, result bodies)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(("repro-", "psm_"))}


@pytest.fixture(autouse=True)
def no_leaked_engine_threads():
    """Every engine thread must be joined, and every shared-memory segment
    the test created unlinked, by the end of each test.

    ``Context.stop()`` joins the heartbeat hub, UI server, and metrics
    sampler with bounded timeouts, and releases every transport blob the
    context published; a test that leaks a ``repro-*`` thread or a
    segment either forgot to stop its context or found a shutdown bug.  A
    short grace poll absorbs threads mid-exit (pool workers finishing
    their last task).  Persistent-cluster threads are exempt: they outlive
    contexts on purpose.
    """
    segments_before = shm_segments()
    yield
    deadline = time.monotonic() + 2.0
    while True:
        leaked = [
            t.name for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("repro-")
            and not t.name.startswith(_PERSISTENT_THREAD_PREFIXES)
        ]
        leaked_segments = shm_segments() - segments_before
        if not leaked and not leaked_segments:
            return
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if leaked:
        pytest.fail(f"leaked engine threads after test: {sorted(leaked)}")
    pytest.fail(f"leaked shared-memory segments after test: {sorted(leaked_segments)}")


@pytest.fixture(autouse=True, scope="session")
def _reap_persistent_engine():
    """End-of-session teardown for intentionally persistent machinery:
    the cluster fleet(s), which also serve the processes backend."""
    yield
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()


@pytest.fixture
def serial_config() -> EngineConfig:
    return EngineConfig(backend="serial", num_executors=2, executor_cores=2, default_parallelism=4)


@pytest.fixture
def ctx() -> Context:
    config = EngineConfig(
        backend=DEFAULT_BACKEND,
        num_executors=2,
        executor_cores=2,
        default_parallelism=4,
    )
    with Context(config) as context:
        yield context


@pytest.fixture
def threads_ctx() -> Context:
    with Context(
        EngineConfig(backend="threads", num_executors=3, executor_cores=2, default_parallelism=6)
    ) as context:
        yield context


@pytest.fixture(scope="session")
def tiny_dataset():
    """40 SNPs x 30 patients x 4 sets: fast unit-test payload."""
    return generate_dataset(SyntheticConfig(n_patients=30, n_snps=40, n_snpsets=4, seed=11))


@pytest.fixture(scope="session")
def small_dataset():
    """300 SNPs x 60 patients x 10 sets: integration-scale payload."""
    return generate_dataset(SyntheticConfig(n_patients=60, n_snps=300, n_snpsets=10, seed=7))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
