"""Self-test of the benchmark, in seconds.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It runs every workload at a tiny size with tracing off and on, and checks
that every metric named in ``BENCHMARK.json`` is emitted with its unit,
that the traced ledger adds up to the analysis wall time, and that the
oracle check trips on a deliberately perturbed result.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(bench: dict) -> None:
    import harness
    import workloads

    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(declared["end_to_end"] == harness.END_TO_END,
          "BENCHMARK.json end_to_end differs from the harness")
    check(declared["per_layer"] == harness.PER_LAYER,
          "BENCHMARK.json per_layer differs from the harness")
    check({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness")
    scratch = os.path.join(run.OUT, "selftest")
    for workload in workloads.WORKLOADS.values():
        small = workloads.tiny(workload)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            out = harness.run(small, 7, 0.0, trace, scratch)
            result = out["result"]
            label = f"{workload.name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: {out['report']['errors']}")
            check(set(result["metrics"]) == set(declared[kind]),
                  f"{label}: emitted {sorted(result['metrics'])}")
            for name, metric in result["metrics"].items():
                check(metric["unit"] == declared[kind][name], f"{label}: unit of {name}")
            if trace:
                check_ledger(out["report"]["samples"], label)
            print(f"ok  {label}: {len(result['metrics'])} metrics with their units")


def check_ledger(samples: list[dict], label: str) -> None:
    """Each traced analysis's self times add up to its wall time."""
    import harness

    traced = [s for s in samples if s["traced"]]
    check(bool(traced), f"{label}: no traced analysis")
    for sample in traced:
        parts = [sample[f"ledger.{n}_s"] for n in harness.LEDGER_SPANS]
        check(min(parts) >= -1e-9, f"{label}: negative self time {parts}")
        total = sum(parts) + sample["core.self_s"]
        check(abs(total - sample["trace.analysis_s"]) <= 1e-6,
              f"{label}: ledger {total} != analysis {sample['trace.analysis_s']}")


def check_oracle() -> None:
    import numpy as np

    import harness
    import workloads

    small = workloads.tiny(workloads.WORKLOADS["mc-inmemory"])
    inputs = workloads.Inputs(small, 7, os.path.join(run.OUT, "selftest"))
    try:
        local, _, reference = harness.oracle(inputs)
    finally:
        inputs.close()
    good = copy.deepcopy(local)
    good.observed = reference.copy()
    check(workloads.mismatch(good, local, reference) is None,
          "oracle rejects a correct result")
    counts = copy.deepcopy(good)
    counts.exceed_counts[0] += 1
    check(workloads.mismatch(counts, local, reference) is not None,
          "oracle accepts perturbed exceed counts")
    observed = copy.deepcopy(good)
    observed.observed[0] *= 1 + 1e-9
    check(workloads.mismatch(observed, local, reference) is not None,
          "oracle accepts perturbed observed statistics")
    last_bit = copy.deepcopy(good)
    last_bit.observed[0] = np.nextafter(last_bit.observed[0], 0.0)
    check(workloads.mismatch(last_bit, local, reference) is not None,
          "oracle accepts observed statistics off by one ulp from the serial backend")
    print("ok  oracle trips on perturbed counts, statistics and last bits")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    run.import_program()
    import reaper

    with reaper.owned_processes():
        check_metrics(bench)
        check_oracle()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
