"""One benchmark run: a closed loop of analyses on the cluster backend.

One driver process runs one analysis at a time until the run's seconds are
spent.  Every analysis gets a fresh ``Context`` (which spawns the executor
fleet) and ends through the public teardown, ``Context.stop()`` then
``stop_all_clusters()``, so each one starts with no cluster running.

With tracing off the run reports the end-to-end metrics.  With tracing on
it alternates untraced and traced analyses and reports the per-layer
metrics of the traced ones; the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import platform
import statistics
import time

import numpy as np

from repro.config import EngineConfig
from repro.engine.cluster_backend import stop_all_clusters
from repro.engine.context import Context
from repro.engine.task import peak_rss_bytes

import ledger
import workloads

#: every analysis counts toward the medians; a run makes at least this many
MIN_ANALYSES = 3
#: no analysis starts once a run has taken this long, so a slow program
#: still ends within the run's time limit
HARD_STOP_SECONDS = 100.0
#: memory metrics come from the first timed analysis (see ``run``)
MEMORY = ("driver_peak_rss_mb", "worker_peak_rss_mb")

END_TO_END = {
    "analysis_s": "s",
    "setup_s": "s",
    "total_s": "s",
    "driver_peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}

#: the layers whose self time makes up the traced analysis wall time
LEDGER_SPANS = (
    "core.observed", "stats.streams", "stats.permuted", "engine.run_job",
    "engine.closure.dumps", "engine.serializer.compress", "engine.transport.put",
    "engine.broadcast.create", "obs.inference.fold", "obs.inference.publish",
)

PER_LAYER = {
    "core.observed_s": "s",
    "core.resample_s": "s",
    "core.batches": "count",
    "core.self_s": "s",
    "stats.permuted_s": "s",
    "stats.streams_s": "s",
    "engine.jobs": "count",
    "engine.stages": "count",
    "engine.tasks": "count",
    "engine.run_job_s": "s",
    "engine.closure.dumps_s": "s",
    "engine.closure.dumps_bytes": "bytes",
    "engine.serializer.compress_s": "s",
    "engine.task_binary_bytes": "bytes",
    "engine.driver_cpu_s": "s",
    "engine.dispatch_s": "s",
    "engine.driver_bytes_collected": "bytes",
    "engine.records_read": "count",
    "engine.tasks_failed": "count",
    "engine.tasks_retried": "count",
    "engine.tasks_speculative": "count",
    "engine.task_success_ratio": "ratio",
    "engine.broadcast.count": "count",
    "engine.broadcast.create_s": "s",
    "engine.transport.puts": "count",
    "engine.transport.put_s": "s",
    "engine.transport.bytes_published": "bytes",
    "engine.transport.dedup_hits": "count",
    "engine.transport.dedup_ratio": "ratio",
    "worker.deserialize_s": "s",
    "worker.compute_s": "s",
    "worker.compute_s.observed": "s",
    "worker.result_serialize_s": "s",
    "worker.gc_pause_s": "s",
    "worker.busy_ratio": "ratio",
    "engine.shuffle.bytes_written": "bytes",
    "engine.shuffle.compressed_bytes": "bytes",
    "engine.shuffle.serializer_s": "s",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.hit_ratio": "ratio",
    "obs.inference.fold_s": "s",
    "obs.inference.publish_s": "s",
    "engine.context.stop_s": "s",
    "engine.cluster.stop_s": "s",
    "engine.transport.shm_leaked": "count",
    "trace.overhead_s": "s",
    "trace.analysis_s": "s",
    "baseline.local_s": "s",
    **{f"ledger.{name}_s": "s" for name in LEDGER_SPANS},
    "ledger.residual_s": "s",
}

_SHM_DIR = "/dev/shm"
_SHM_PREFIXES = ("repro-", "psm_")


def slots() -> int:
    """Executor slots: one per CPU this process may run on, at most 8."""
    return max(1, min(8, len(os.sched_getaffinity(0))))


def engine_config() -> EngineConfig:
    n = slots()
    return EngineConfig(
        backend="cluster", num_executors=n, executor_cores=1,
        default_parallelism=2 * n,
    )


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


def _remove_segments(names: set[str]) -> None:
    for name in names:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            pass


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_counters(ctx: Context, n_slots: int, analysis_s: float) -> dict:
    """Per-layer counters from the engine's own job and task records."""
    jobs = list(ctx.metrics.jobs)
    records = [r for job in jobs for stage in job.stages for r in stage.tasks]
    ok = [r for r in records if r.succeeded]
    tm = [r.metrics for r in ok]
    worker = sum(m.deserialize_seconds + m.compute_seconds + m.result_serialize_seconds
                 for m in tm)
    hits = sum(m.cache_hits for m in tm)
    misses = sum(m.cache_misses for m in tm)
    return {
        "engine.jobs": len(jobs),
        "engine.stages": sum(len(job.stages) for job in jobs),
        "engine.tasks": len(records),
        "engine.task_binary_bytes": sum(m.task_binary_bytes for m in tm),
        "engine.dispatch_s": sum(
            r.duration_seconds - r.metrics.deserialize_seconds
            - r.metrics.compute_seconds - r.metrics.result_serialize_seconds
            for r in ok
        ),
        "engine.driver_bytes_collected": sum(m.driver_bytes_collected for m in tm),
        "engine.records_read": sum(m.records_read for m in tm),
        "engine.tasks_failed": sum(job.num_task_failures for job in jobs),
        "engine.tasks_retried": sum(1 for r in records if r.attempt > 0),
        "engine.tasks_speculative": sum(1 for r in ok if r.speculative),
        "engine.task_success_ratio": _safe_ratio(len(ok), len(records)),
        "worker.deserialize_s": sum(m.deserialize_seconds for m in tm),
        "worker.compute_s": sum(m.compute_seconds for m in tm),
        "worker.result_serialize_s": sum(m.result_serialize_seconds for m in tm),
        "worker.gc_pause_s": sum(m.gc_pause_seconds for m in tm),
        "worker.busy_ratio": _safe_ratio(worker, analysis_s * n_slots),
        "engine.shuffle.bytes_written": sum(m.shuffle_bytes_written for m in tm),
        "engine.shuffle.compressed_bytes": sum(m.shuffle_compressed_bytes for m in tm),
        "engine.shuffle.serializer_s": sum(m.serializer_seconds for m in tm),
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.hit_ratio": _safe_ratio(hits, hits + misses),
        "worker_peak_rss_mb": max((m.peak_rss_bytes for m in tm), default=0) / 2**20,
    }


def span_metrics(tracer: ledger.Tracer, run_id: str, ctx: Context) -> dict:
    """Per-layer metrics of one traced analysis, including its ledger."""
    spans = tracer.run_spans(run_id)
    root = next(s for s in spans if s.name == ledger.ROOT)
    own = ledger.self_times(spans, root)
    observed = [s for s in spans if s.name == "core.observed"]
    # jobs submitted inside the observed pass, by the shared perf_counter clock
    observed_compute = sum(
        r.metrics.compute_seconds
        for job in ctx.metrics.jobs
        if any(s.start <= job.submit_time <= s.end for s in observed)
        for stage in job.stages for r in stage.tasks if r.succeeded
    )
    puts = ledger.count(spans, "engine.transport.put")
    out = {
        "trace.analysis_s": root.duration,
        "core.observed_s": ledger.totals(spans, "core.observed"),
        "core.resample_s": root.duration - ledger.totals(spans, "core.observed"),
        "core.batches": ledger.count(spans, "stats.streams", "yielded"),
        "core.self_s": own.get(ledger.ROOT, 0.0),
        "stats.permuted_s": ledger.totals(spans, "stats.permuted"),
        "stats.streams_s": ledger.totals(spans, "stats.streams"),
        "engine.run_job_s": ledger.totals(spans, "engine.run_job"),
        "engine.closure.dumps_s": ledger.totals(spans, "engine.closure.dumps"),
        "engine.closure.dumps_bytes": ledger.attr_sum(spans, "engine.closure.dumps", "bytes"),
        "engine.serializer.compress_s": ledger.totals(spans, "engine.serializer.compress"),
        "engine.broadcast.count": ledger.count(spans, "engine.broadcast.create"),
        "engine.broadcast.create_s": ledger.totals(spans, "engine.broadcast.create"),
        "engine.transport.puts": puts,
        "engine.transport.put_s": ledger.totals(spans, "engine.transport.put"),
        "worker.compute_s.observed": observed_compute,
        "obs.inference.fold_s": ledger.totals(spans, "obs.inference.fold"),
        "obs.inference.publish_s": ledger.totals(spans, "obs.inference.publish"),
    }
    components = 0.0
    for name in LEDGER_SPANS:
        out[f"ledger.{name}_s"] = own.get(name, 0.0)
        components += own.get(name, 0.0)
    out["ledger.residual_s"] = root.duration - components - out["core.self_s"]
    return out


def analysis_once(inputs: workloads.Inputs, tracer: ledger.Tracer | None,
                  run_id: str) -> dict:
    """Set up, run and tear down one analysis; returns its sample."""
    workload = inputs.workload
    config = engine_config()
    sample: dict = {"run_id": run_id, "traced": tracer is not None, "error": None}
    if multiprocessing.active_children():
        sample["error"] = "processes of an earlier analysis still running"
        return sample
    shm_before = _shm_segments()
    ctx = None
    t_start = time.perf_counter()
    try:
        ctx = Context(config)
        scorer = workloads.build_scorer(ctx, inputs, config.default_parallelism)
        t_ready = time.perf_counter()
        sample["setup_s"] = t_ready - t_start
        transport = ctx.transport
        published, dedup_hits = transport.bytes_published, transport.dedup_hits
        cpu0 = time.process_time()
        if tracer is not None:
            with tracer.patched(run_id), tracer.span(ledger.ROOT):
                result = workloads.analyze(scorer, workload, inputs.seed)
        else:
            result = workloads.analyze(scorer, workload, inputs.seed)
        t_done = time.perf_counter()
        sample["analysis_s"] = t_done - t_ready
        sample["engine.driver_cpu_s"] = time.process_time() - cpu0
        sample["result"] = result
        sample["engine.transport.bytes_published"] = transport.bytes_published - published
        sample["engine.transport.dedup_hits"] = transport.dedup_hits - dedup_hits
        sample.update(engine_counters(ctx, slots(), sample["analysis_s"]))
        if tracer is not None:
            sample.update(span_metrics(tracer, run_id, ctx))
            sample["engine.transport.dedup_ratio"] = _safe_ratio(
                sample["engine.transport.dedup_hits"], sample["engine.transport.puts"])
    except Exception as exc:  # a failed analysis counts; the run goes on
        sample["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        t_stop = time.perf_counter()
        if ctx is not None:
            ctx.stop()
        t_ctx = time.perf_counter()
        stop_all_clusters()
        t_end = time.perf_counter()
        sample["engine.context.stop_s"] = t_ctx - t_stop
        sample["engine.cluster.stop_s"] = t_end - t_ctx
        sample["total_s"] = t_end - t_start
        sample["driver_peak_rss_mb"] = peak_rss_bytes() / 2**20
        leaked = _shm_segments() - shm_before
        sample["engine.transport.shm_leaked"] = len(leaked)
        _remove_segments(leaked)
    if sample["error"] is None and multiprocessing.active_children():
        sample["error"] = "executor processes still running after teardown"
    return sample


def summarize(values: list[float]) -> dict:
    """Median, a high percentile (nearest rank p90) and the sample count."""
    ordered = sorted(values)
    if not ordered:
        return {"median": None, "p90": None, "max": None, "n": 0}
    rank = max(0, int(np.ceil(0.9 * len(ordered))) - 1)
    return {"median": statistics.median(ordered), "p90": ordered[rank],
            "max": ordered[-1], "n": len(ordered)}


def environment() -> dict:
    config = engine_config()
    return {
        "backend": config.backend,
        "executors": config.num_executors,
        "cores_per_executor": config.executor_cores,
        "partitions": config.default_parallelism,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def oracle(inputs: workloads.Inputs):
    """The local NumPy result with its wall time, and the observed
    statistics of the same inputs on the engine's serial backend."""
    t0 = time.perf_counter()
    local = workloads.local_result(inputs)
    local_s = time.perf_counter() - t0
    partitions = engine_config().default_parallelism
    with Context(EngineConfig(backend="serial", default_parallelism=partitions)) as ctx:
        scorer = workloads.build_scorer(ctx, inputs, partitions)
        reference = scorer.observed_statistics(
            cache_contributions=inputs.workload.method == "monte_carlo")
    return local, local_s, reference


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
        scratch_root: str) -> dict:
    """The benchmark run: returns the result object and the full report."""
    started = time.perf_counter()
    inputs = workloads.Inputs(workload, seed, scratch_root)
    tracer = ledger.Tracer() if trace else None
    samples: list[dict] = []
    try:
        # one untimed analysis first loads every module the engine imports
        # lazily and grows the driver heap, so timed analyses pay neither
        analysis_once(inputs, None, "warmup")
        deadline = time.perf_counter() + seconds
        i = 0
        while (len(samples) < MIN_ANALYSES or time.perf_counter() < deadline) and (
            not samples or time.perf_counter() - started < HARD_STOP_SECONDS
        ):
            traced = trace and i % 2 == 1
            samples.append(analysis_once(
                inputs, tracer if traced else None, f"{workload.name}-{seed}-{i}"))
            i += 1
        # the oracle runs after the timed loop, so it shapes no timing and
        # no driver peak; every analysis is checked, none is retried
        local, local_s, reference = oracle(inputs)
        for sample in samples:
            if sample["error"] is None:
                sample["error"] = workloads.mismatch(sample.pop("result"), local, reference)
            sample.pop("result", None)
    finally:
        inputs.close()

    failed = sum(1 for s in samples if s["error"] is not None)
    good = [s for s in samples if s["error"] is None]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs.record(),
        "environment": environment(),
        "attempted": len(samples),
        "failed": failed,
        "error_rate": _safe_ratio(failed, len(samples)),
        "errors": [s["error"] for s in samples if s["error"] is not None],
        "baseline.local_s": local_s,
        "summary": {},
    }
    if trace:
        base = statistics.median([s["analysis_s"] for s in untraced]) if untraced else None
        for s in traced:
            s["baseline.local_s"] = local_s
            if base is not None:
                s["trace.overhead_s"] = s["trace.analysis_s"] - base
    expected = PER_LAYER if trace else END_TO_END
    metrics: dict = {}
    for name, unit in expected.items():
        pool = traced if trace else untraced
        if name in MEMORY:
            # the driver heap and, through fork, every later fleet grow
            # with each analysis; the first timed one is the comparable one
            pool = pool[:1]
        summary = summarize([s[name] for s in pool if name in s])
        report["summary"][name] = {"unit": unit, **summary}
        if summary["median"] is not None:
            metrics[name] = {"value": summary["median"], "unit": unit}
    report["samples"] = samples
    result = {
        "correct": failed == 0 and set(metrics) == set(expected),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    if tracer is not None:
        report["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return {"result": result, "report": report}
