"""The Housing workload: a scalar SUM over the six-relation star.

The query is q-hierarchical, so each single-tuple update costs O(1) and
ring work is negligible; per-call engine dispatch and view writes
dominate.  This guards against gains on the cofactor stream that cost
scalar streams.  Checked against the closed-form star-join SUM
(:func:`perfbench.oracles.star_sum`).
"""

from __future__ import annotations

import traceback
from time import perf_counter

from repro.bench.memory import strategy_scalars
from repro.core import FIVMEngine, Query, ViewClient
from repro.data import Relation
from repro.datasets import housing
from repro.rings import Lifting, RealRing

from perfbench import oracles
from perfbench.harness import Round, Workload

SUMMED = ("House", "price")


class HousingSumTuple(Workload):
    """Single-tuple inserts round-robin over every relation, then the
    same tuples deleted one by one; the SUM is read every ``READ_EVERY``
    updates.  The snapshot taken at mid-stream (all rows in) is restored
    into a second engine and the deletions replayed through
    ``apply_batch`` in groups."""

    name = "housing-sum-tuple"
    ring_cls = RealRing
    SCALE = 2
    POSTCODES = 1500
    READ_EVERY = 10
    REPLAY_GROUP = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        data = housing.generate(
            scale=self.SCALE, postcodes=self.POSTCODES, seed=seed
        )
        self.data = data
        ring = RealRing()
        self.query = Query(
            "housing", data.schemas, ring=ring,
            lifting=Lifting(ring, {SUMMED[1]: float}),
        )
        # Round-robin interleaving of single-tuple inserts (Appendix C.1).
        queues = {rel: list(rows) for rel, rows in data.tables.items()}
        order = []
        while any(queues.values()):
            for rel, rows in queues.items():
                if rows:
                    order.append((rel, rows.pop(0)))
        minus = ring.neg(ring.one)
        schemas = data.schemas
        self.deltas = [
            Relation.from_tuples(rel, schemas[rel], ring, [row])
            for rel, row in order
        ] + [
            Relation.from_tuples(rel, schemas[rel], ring, [row], minus)
            for rel, row in order
        ]
        self.mid = len(order)
        self.replay = [
            self.deltas[i:i + self.REPLAY_GROUP]
            for i in range(self.mid, len(self.deltas), self.REPLAY_GROUP)
        ]
        live = {}
        for rel, row in order:
            oracles.apply_rows(live, rel, [row], 1)
        self.expected_mid = oracles.star_sum(
            schemas, live, "postcode", SUMMED
        )
        self.engine = self.recovery = None
        self._scalars = None

    def info(self) -> dict:
        return {
            "scale": self.SCALE,
            "postcodes": self.POSTCODES,
            "rows": {k: len(v) for k, v in self.data.tables.items()},
            "updates_per_round": len(self.deltas),
            "read_every": self.READ_EVERY,
        }

    def setup(self) -> None:
        order = self.data.variable_order
        self.engine = FIVMEngine(self.query, order)
        self.recovery = FIVMEngine(self.query, order)
        self.client = ViewClient(self.engine)
        self.root = self.engine.tree.root.name
        # Warm-up: one tuple per relation in and out, a read, a snapshot,
        # a restore and a replayed group.
        k = len(self.data.schemas)
        head = self.deltas[:k] + self.deltas[self.mid:self.mid + k]
        for delta in head:
            self.engine.apply_update(delta)
        self.client.lookup(self.root, ())
        self.recovery.restore(self.engine.snapshot())
        self.recovery.apply_batch(head)

    def close(self) -> None:
        self.engine = self.recovery = None

    def state_scalars(self) -> int:
        return self._scalars

    def _stream(self, deltas, out: Round) -> float:
        """Apply ``deltas``; returns the sum of their root deltas."""
        engine, client, root = self.engine, self.client, self.root
        every = self.READ_EVERY
        lat, read_lat = out.update_lat, out.read_lat
        total = 0.0
        with self.window():
            for i, delta in enumerate(deltas, 1):
                t0 = perf_counter()
                root_delta = engine.apply_update(delta)
                lat.append(perf_counter() - t0)
                total += root_delta.payload(())
                if i % every == 0:
                    t0 = perf_counter()
                    client.lookup(root, ())
                    read_lat.append(perf_counter() - t0)
        return total

    def round(self) -> Round:
        out = Round()
        n = len(self.deltas)
        out.ops = n + n // self.READ_EVERY + 2 + len(self.replay)
        try:
            first = self._stream(self.deltas[:self.mid], out)
            with self.window():
                snapshot = self.engine.snapshot()
            mid = self.engine.result().payload(())
            if self._scalars is None:
                self._scalars = strategy_scalars(self.engine)
            second = self._stream(self.deltas[self.mid:], out)
            with self.window():
                t0 = perf_counter()
                self.recovery.restore(snapshot)
                replayed = 0.0
                with self.span("checkpoint.replay"):
                    for group in self.replay:
                        replayed += self.recovery.apply_batch(group).payload(())
                out.recover_s = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.tally("checkpoint.replay_groups", len(self.replay))
            out.update_tuples = n
            out.update_s = sum(out.update_lat)
            out.reads = len(out.read_lat)
            out.read_s = sum(out.read_lat)
            out.write_lat = out.update_lat
            expected = self.expected_mid
            checks = (
                mid == expected,
                first == expected,
                second == -expected,
                self.engine.result().payload(()) == 0.0,
                replayed == -expected,
                self.recovery.result().payload(()) == 0.0,
            )
            if not all(checks):
                out.failed, out.mismatched = out.ops, True
        except Exception:
            traceback.print_exc()
            out.failed = out.ops
        return out
