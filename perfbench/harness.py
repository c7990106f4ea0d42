"""Round loop, timing helpers and the result line shared by every workload.

A run repeats whole rounds of identical operations until ``--seconds``
have passed, so ``failed`` is always the same share of ``attempted``.
It sets the workload up afresh ``SETUPS`` times, spread evenly over the
run (``setup_s`` is their median), so that set-up, like the rounds, is
sampled across the host's slow and fast spells.  Timings are reported at
their slow-side quartile across rounds (see :class:`Stats`).

Automatic garbage collection is off for the whole run, as ``timeit``
does.  Left on, a collection lands in whichever operation happens to
cross the allocation threshold, and whether enough of them land in one
kind of call to reach its p99 changes with the seed.  Instead a full
collection runs after every round, and its time is reported as
``gc_round_s``: the cyclic-collection cost of one round's garbage over
the live heap, which the program pays when deployed with collection on.

The traced run spends the first half of its time on untraced rounds and
the second half on traced rounds of a freshly set-up engine (wrappers
must be in place before construction, because generated triggers bind
the ring operations when they are built); the ratio of the two halves'
pooled update throughputs is the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import List

from perfbench.tracing import STEADY, Tracer

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 7

#: Every run completes at least this many rounds, however short.
MIN_ROUNDS = 2

_FORK_HOOKED = []


@dataclass
class Round:
    """What one round measured and checked."""

    ops: int = 0
    failed: int = 0
    #: Whether an output disagreed with its oracle (not just raised).
    mismatched: bool = False
    update_tuples: int = 0
    update_s: float = 0.0
    update_lat: List[float] = field(default_factory=list)
    reads: int = 0
    read_s: float = 0.0
    read_lat: List[float] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)
    recover_s: float = 0.0
    gc_s: float = 0.0


class Workload:
    """One benchmark workload: inputs fixed by the seed, engines rebuilt
    by :meth:`setup`, and one round of identical operations per
    :meth:`round` call."""

    name = ""
    #: The payload ring class whose ``mul``/``add``/``sum`` are counted.
    ring_cls = None

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def window(self):
        """Trace the enclosed block when a tracer is attached."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.window_on()

    def span(self, name: str):
        """A benchmark-side span (when traced)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def setup(self) -> None:
        """Build the engines, load them, and run a warm-up round."""
        raise NotImplementedError

    def round(self) -> Round:
        """Run one round; must leave the engines as :meth:`setup` did."""
        raise NotImplementedError

    def state_scalars(self) -> int:
        """Logical scalars held at the round's peak state."""
        raise NotImplementedError

    def serving_counts(self) -> dict:
        """Serving statistics so far (empty for non-serving workloads)."""
        return {}

    def close(self) -> None:
        """Release engines (and stop worker processes)."""

    def info(self) -> dict:
        """Input sizes recorded with the output."""
        return {}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def _slow_quartile(values, lower_is_slow: bool) -> float:
    """The quartile of ``values`` on the slow side: the lower quartile of
    throughputs, the upper quartile of latencies and durations."""
    if len(values) < 2:
        return values[0] if values else 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1 if lower_is_slow else q3


class _Percentile:
    """Percentile ``p`` of a latency stream, taken per group of
    consecutive rounds holding at least ten samples beyond ``p`` (a
    round on its own, unless its samples are too few for the tail)."""

    def __init__(self, p: float):
        self.p = p
        self.need = math.ceil(10 / (1.0 - p))
        self.pending = []
        self.values = []

    def add(self, samples) -> None:
        self.pending.extend(samples)
        if len(self.pending) >= self.need:
            self.values.append(percentile(self.pending, self.p))
            self.pending = []

    def result(self) -> float:
        """Microseconds: the median over groups for a tail (a few groups
        caught in a slow spell must not set it), the slow-side quartile
        for the body of the distribution."""
        values = self.values or [percentile(self.pending, self.p)]
        if self.p > 0.5:
            return statistics.median(values) * 1e6
        return _slow_quartile(values, lower_is_slow=False) * 1e6


class Stats:
    """End-to-end figures of a run, folded in round by round so that raw
    samples never accumulate (peak memory must not grow with the number
    of rounds a fast host completes).

    The host this benchmark runs on alternates between slow and fast
    spells lasting seconds.  Every run contains slow spells, so each
    timing is taken per round (or per group of rounds, for tails) and
    reported at its slow-side quartile across them, which repeats from
    run to run where a pooled figure follows the share of fast spells;
    a p99 is the median over its groups (see :class:`_Percentile`).
    """

    def __init__(self):
        self.update_tput, self.read_tput, self.recover = [], [], []
        self.gc = []
        self.update_p50, self.update_p99 = _Percentile(0.5), _Percentile(0.99)
        self.read_p50, self.read_p99 = _Percentile(0.5), _Percentile(0.99)
        self.write_p50 = _Percentile(0.5)
        self.update_tuples = 0
        self.update_s = 0.0

    def add(self, r: Round) -> None:
        """Fold in one round, then drop its samples."""
        if r.update_s > 0:
            self.update_tput.append(r.update_tuples / r.update_s)
        if r.read_s > 0:
            self.read_tput.append(r.reads / r.read_s)
        self.recover.append(r.recover_s)
        self.gc.append(r.gc_s)
        self.update_tuples += r.update_tuples
        self.update_s += r.update_s
        self.update_p50.add(r.update_lat)
        self.update_p99.add(r.update_lat)
        self.read_p50.add(r.read_lat)
        self.read_p99.add(r.read_lat)
        self.write_p50.add(r.write_lat)
        r.update_lat = r.read_lat = r.write_lat = []

    def pooled_update_tput(self) -> float:
        """Tuples per second of update time over all rounds."""
        return self.update_tuples / self.update_s if self.update_s else 0.0

    def metrics(self, workload: Workload, setups) -> dict:
        """The end-to-end metrics, with units."""
        return {
            "setup_s": (statistics.median(setups), "s"),
            "update_tput": (
                _slow_quartile(self.update_tput, lower_is_slow=True),
                "tuples/s",
            ),
            "update_p50_us": (self.update_p50.result(), "us"),
            "update_p99_us": (self.update_p99.result(), "us"),
            "recover_s": (
                _slow_quartile(self.recover, lower_is_slow=False), "s"
            ),
            "read_tput": (
                _slow_quartile(self.read_tput, lower_is_slow=True), "1/s"
            ),
            "read_p50_us": (self.read_p50.result(), "us"),
            "read_p99_us": (self.read_p99.result(), "us"),
            "write_p50_us": (self.write_p50.result(), "us"),
            "gc_round_s": (_slow_quartile(self.gc, lower_is_slow=False), "s"),
            "state_scalars": (float(workload.state_scalars()), "count"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }


def _rounds(workload: Workload, seconds: float, stats: Stats,
            tracer=None, setups=None):
    """Rounds until ``seconds`` have passed; with a ``setups`` list, the
    workload is set up afresh ``SETUPS`` times at even intervals and each
    set-up time appended to it."""
    out = []
    start = perf_counter()
    while len(out) < MIN_ROUNDS or perf_counter() - start < seconds:
        if setups is not None and len(setups) < SETUPS and (
            perf_counter() - start >= len(setups) * seconds / SETUPS
        ):
            setups.append(_setup(workload))
        before = workload.serving_counts() if tracer else None
        result = workload.round()
        t0 = perf_counter()
        gc.collect()
        result.gc_s = perf_counter() - t0
        if tracer is not None:
            after = workload.serving_counts()
            for key, value in after.items():
                tracer.tally(f"serving.{key}", value - before[key])
        stats.add(result)
        out.append(result)
    return out


def _setup(workload: Workload) -> float:
    workload.close()
    gc.collect()
    t0 = perf_counter()
    workload.setup()
    elapsed = perf_counter() - t0
    gc.collect()
    return elapsed


def run(workload: Workload, seconds: float, trace: bool):
    """Run the workload; returns ``(metrics, rounds, extra info)``."""
    gc.collect()
    gc.disable()
    if not _FORK_HOOKED:
        # Shard workers are forked from this process; they run with the
        # interpreter's default collection, like any deployed worker.
        os.register_at_fork(after_in_child=gc.enable)
        _FORK_HOOKED.append(True)
    try:
        if not trace:
            setups, stats = [], Stats()
            rounds = _rounds(workload, seconds, stats, setups=setups)
            return stats.metrics(workload, setups), rounds, {}
        _setup(workload)
        plain_stats, traced_stats = Stats(), Stats()
        plain = _rounds(workload, seconds / 2, plain_stats)
        workload.close()
        tracer = Tracer()
        tracer.install(workload.ring_cls)
        try:
            workload.tracer = tracer
            with tracer.window_on():
                _setup(workload)
            tracer.set_phase(STEADY)
            traced = _rounds(workload, seconds / 2, traced_stats, tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        metrics = tracer.summary(len(traced))
        metrics["trace.overhead_pct"] = (
            plain_stats.pooled_update_tput()
            / traced_stats.pooled_update_tput() - 1.0
        ) * 100.0
        units = {name: _unit(name) for name in metrics}
        return (
            {k: (v, units[k]) for k, v in metrics.items()},
            plain + traced,
            {"tracer": tracer},
        )
    finally:
        workload.close()
        gc.enable()


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "per_hold")):
        return "ratio"
    if name.startswith("shard.bytes"):
        return "bytes"
    return "count"
