"""The benchmark's workloads: their shapes, their seeded inputs, and the
oracle each distributed result is checked against.

Each workload is one SparkScore resampling analysis on the ``cluster``
backend.  Inputs come only from the seed: a synthetic dataset (and, for
``mc-textfile``, its text files on local disk) is generated before set-up,
and the program under test receives nothing else.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: float64 tolerance for observed statistics against the NumPy oracle:
#: the engine sums block partials in another order than the single-node
#: path, so the last bits may differ (4096 ulp); replicate exceedance
#: counts and the cross-backend comparison stay exact
OBSERVED_RTOL = 4096 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class Workload:
    name: str
    #: "monte_carlo" (Algorithm 3, cached U) or "permutation" (Algorithm 2)
    method: str
    #: "memory" parallelizes the Dataset from the driver; "textfile" has
    #: engine tasks read and parse genotype text files (Algorithm 1 read path)
    source: str
    n_patients: int
    n_snps: int
    n_snpsets: int
    iterations: int
    batch_size: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-inmemory", "monte_carlo", "memory", 1000, 2000, 40, 256, 64),
        Workload("perm-inmemory", "permutation", "memory", 500, 3000, 60, 64, 16),
        Workload("mc-textfile", "monte_carlo", "textfile", 1000, 4000, 80, 128, 64),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload for the self-test."""
    return replace(workload, n_patients=60, n_snps=240, n_snpsets=8,
                   iterations=2 * workload.batch_size)


class Inputs:
    """Seeded inputs of one run; ``close()`` removes any files written."""

    def __init__(self, workload: Workload, seed: int, scratch_root: str) -> None:
        self.workload = workload
        self.seed = seed
        self.dataset = generate_dataset(SyntheticConfig(
            n_patients=workload.n_patients,
            n_snps=workload.n_snps,
            n_snpsets=workload.n_snpsets,
            seed=seed,
        ))
        self.input_paths: dict[str, str] | None = None
        self.genotype_file_bytes = 0
        self._dir: str | None = None
        if workload.source == "textfile":
            os.makedirs(scratch_root, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="inputs-", dir=scratch_root)
            paths = write_dataset(self.dataset, self._dir)
            self.input_paths = {"genotypes": paths["genotypes"], "weights": paths["weights"]}
            self.genotype_file_bytes = os.path.getsize(paths["genotypes"])

    def record(self) -> dict:
        w = self.workload
        return {
            "patients": w.n_patients,
            "snps": w.n_snps,
            "snpsets": w.n_snpsets,
            "replicates": w.iterations,
            "batch_size": w.batch_size,
            "source": w.source,
            "genotype_matrix_bytes": int(self.dataset.genotypes.matrix.nbytes),
            "genotype_file_bytes": self.genotype_file_bytes,
        }

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


def analyze(scorer, workload: Workload, seed: int):
    """Run the workload's analysis on a Local or Distributed scorer."""
    if workload.method == "monte_carlo":
        return scorer.monte_carlo(workload.iterations, seed=seed,
                                  batch_size=workload.batch_size)
    if isinstance(scorer, DistributedSparkScore):
        return scorer.permutation(workload.iterations, seed=seed,
                                  batch_size=workload.batch_size)
    return scorer.permutation(workload.iterations, seed=seed)


def build_scorer(ctx, inputs: Inputs, num_partitions: int) -> DistributedSparkScore:
    return DistributedSparkScore(
        ctx, inputs.dataset, num_partitions=num_partitions,
        input_paths=inputs.input_paths,
    )


def local_result(inputs: Inputs):
    return analyze(LocalSparkScore(inputs.dataset), inputs.workload, inputs.seed)


def mismatch(result, local, reference) -> str | None:
    """Why ``result`` fails the oracle, or None when it passes.

    ``local`` is the single-node NumPy result of the same call and seed:
    exceedance counts must equal it exactly, observed statistics within
    :data:`OBSERVED_RTOL`.  ``reference`` holds the observed statistics of
    the same inputs on the engine's ``serial`` backend, which the result's
    must equal bit for bit.
    """
    if result.exceed_counts.shape != local.exceed_counts.shape:
        return "exceed_counts shape differs from the local oracle"
    if not np.array_equal(result.exceed_counts, local.exceed_counts):
        diff = int(np.sum(result.exceed_counts != local.exceed_counts))
        return f"exceed_counts differ from the local oracle in {diff} set(s)"
    if not np.allclose(result.observed, local.observed, rtol=OBSERVED_RTOL, atol=0.0):
        worst = float(np.max(np.abs(result.observed - local.observed)
                             / np.maximum(np.abs(local.observed), 1e-300)))
        return f"observed statistics differ from the local oracle (rel {worst:.3g})"
    if not np.array_equal(result.observed, reference):
        return "observed statistics not bit-identical to the serial backend"
    if result.n_resamples != local.n_resamples:
        return "replicate count differs from the local oracle"
    return None
