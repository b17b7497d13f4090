"""Benchmark command: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload batch-dail --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
separate traced run and prints every per-layer metric (and writes the
spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``).  The last line of standard output is the
result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Output checks that fail make ``correct`` false, are listed on standard
error, and make the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch, serve  # noqa: E402
from perfbench.common import END_TO_END_UNITS  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("batch-dail", "batch-vote", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace_path = (ROOT / ".perfbench"
                  / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    if args.workload == "serve-mixed":
        bench = serve.ServeBench(args.seed)
        if args.trace:
            outcome = serve.traced_run(bench, args.seconds, trace_path)
        else:
            outcome = serve.timed_run(bench, args.seconds)
    else:
        bench = batch.BatchBench(batch.workloads()[args.workload], args.seed)
        if args.trace:
            outcome = batch.traced_run(bench, args.seconds, trace_path)
        else:
            outcome = batch.timed_run(bench, args.seconds)
    metrics, checks, attempted, failed = outcome

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    checks.require(not missing, f"metrics not measured: {missing}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
