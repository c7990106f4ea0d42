"""Steadiness check: run each workload repeatedly and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads zipf-serving --runs 5

Each run is a fresh process with its own seed (``--first-seed``,
``--first-seed + 1``, …), one at a time.  For every metric the command
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — and, per workload, the
largest spread and the share of failed operations.  The bounds in
``BENCHMARK.json`` are set from what it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` of a list of values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        results = [
            _run(workload, args.first_seed + i, args.seconds)
            for i in range(args.runs)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in results)}")
        largest = ("", 0.0)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median, q1, q3, s = spread(values)
            bound = bounds.get(name)
            note = f"  bound {bound:.2f}" if bound else ""
            print(f"  {name:32s} {median:14.6g} {unit:9s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {s:7.2%}{note}")
            if name != "setup_s" and s > largest[1]:
                largest = (name, s)
        print(f"  largest spread: {largest[0]} {largest[1]:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
