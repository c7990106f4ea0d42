"""Run one F-IVM benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload retailer-cofactor --seed 1 \\
        --seconds 20 --trace 0

The engine under test is the one in ``src/``, built with its shipped
defaults.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it records the host and the inputs.
``--trace 1`` also writes every span to ``perfbench/out/``.  The run
length defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload name → (module, class) under ``perfbench``.
WORKLOADS = {
    "retailer-cofactor": ("wl_retailer", "RetailerCofactor"),
    "housing-sum-tuple": ("wl_housing", "HousingSumTuple"),
    "zipf-serving": ("wl_serving", "ZipfServing"),
    "retailer-shards": ("wl_retailer", "RetailerShards"),
}


def _refused_environment():
    """``FIVM_*`` variables change engine defaults or bench scaling; a run
    under any of them would not measure the engine as it ships."""
    return sorted(name for name in os.environ if name.startswith("FIVM_"))


def _run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _parse(argv)
    refused = _refused_environment()
    if refused:
        print(
            f"refusing to run with {', '.join(refused)} set: the benchmark "
            "measures the engine's shipped defaults",
            file=sys.stderr,
        )
        return 2
    # Import the engine from source, and this package by its name (the
    # script directory itself must not shadow any module).
    if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
        sys.path.pop(0)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    import numpy

    from perfbench import harness

    module, cls = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(f"perfbench.{module}"), cls)
    workload = workload_cls(args.seed)
    info = workload.info()
    metrics, rounds, extra = harness.run(workload, args.seconds, bool(args.trace))
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    tracer = extra.get("tracer")
    if tracer is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": info,
    }))
    print(json.dumps({
        "correct": not any(r.mismatched for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
