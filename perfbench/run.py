"""SparkScore resampling benchmark on the cluster backend.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mc-inmemory --seed 1 --seconds 25 --trace 0

It imports ``repro`` from the checkout's ``src/`` and nowhere else, makes
the workload's inputs from ``--seed``, runs analyses for ``--seconds``,
checks every result against the NumPy oracle, and prints one JSON object as
the last line of standard output: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  The full report (every sample, each
metric's median, p90 and sample count, and the spans of traced analyses)
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_program() -> None:
    """Put the checkout's sources first on the path; fail if absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import harness
    import reaper
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    with reaper.owned_processes():
        out = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), os.path.join(OUT, "tmp"))
    report = out["report"]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".report.json"), "w") as fh:
        json.dump({k: v for k, v in report.items() if k != "spans"}, fh, indent=1,
                  default=float)
    if "spans" in report:
        with open(os.path.join(OUT, stem + ".spans.jsonl"), "w") as fh:
            for span in report["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"workload": report["workload"], "inputs": report["inputs"],
                      "environment": report["environment"],
                      "error_rate": report["error_rate"], "errors": report["errors"]}))
    for name, s in report["summary"].items():
        if s["n"]:
            print(f"{name:32s} median {s['median']:.6g} {s['unit']}  "
                  f"p90 {s['p90']:.6g}  max {s['max']:.6g}  n={s['n']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
