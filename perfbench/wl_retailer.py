"""The two Retailer workloads: the cofactor stream and the sharded stream.

Both maintain the paper's headline aggregate (Fig. 7): the 43-variable
cofactor ring (990 aggregates, 44×44 moment matrix) over the five-relation
Retailer snowflake, checked against ``Zᵀ·diag(m)·Z`` over a hash join of
the live rows (:func:`perfbench.oracles.moment_matrix`).
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter

import numpy as np

from repro.apps.regression import cofactor_query
from repro.bench.memory import strategy_scalars
from repro.core import FIVMEngine, ViewClient
from repro.core.sharded import ShardedFIVMEngine
from repro.data import Relation
from repro.datasets import retailer, round_robin_stream
from repro.datasets.streams import UpdateStream
from repro.rings import CofactorRing

from perfbench import oracles
from perfbench.harness import Round, Workload

#: Join order for the oracle's hash join (fact table first).
JOIN_ORDER = ("Inventory", "Item", "Weather", "Location", "Census")


def _root_matrix(relation) -> np.ndarray:
    """Moment matrix of a root relation's single key ``()``."""
    return relation.payload(()).moment_matrix()


def _sum_matrices(ring, relations) -> np.ndarray:
    """Ring sum of the ``()`` payloads of ``relations``, as a matrix."""
    payloads = [r.payload(()) for r in relations]
    return ring.sum(payloads).moment_matrix() if payloads else None


class RetailerCofactor(Workload):
    """Insert batches to every relation (dimensions round-robin, then the
    fact table), a deletion tail of 10% of the fact rows, a model read after every update, and a recovery phase: the snapshot
    taken off the clock at mid-stream is restored into a second engine
    and the later half replayed through ``apply_batch``."""

    name = "retailer-cofactor"
    ring_cls = CofactorRing
    SCALE = 1.5
    BATCH = 10
    DELETE_FRACTION = 0.1
    REPLAY_GROUP = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        data = retailer.generate(scale=self.SCALE, seed=seed)
        self.data = data
        self.query = cofactor_query(
            "retailer", data.schemas, data.numeric_variables
        )
        ring = self.query.ring
        # Dimension batches round-robin first, then the fact batches, then
        # a deletion tail on the fact table.  (Dimension batches that meet
        # a half-loaded fact table, or delete from a full one, are a few
        # heavy batches whose cost depends on which rows the seed picks;
        # interleaved with the facts they set update_p99_us by themselves.)
        dims = {k: v for k, v in data.tables.items() if k != "Inventory"}
        facts = round_robin_stream(
            data.schemas, {"Inventory": data.tables["Inventory"]},
            self.BATCH, delete_fraction=self.DELETE_FRACTION, seed=seed,
        )
        stream = UpdateStream(
            data.schemas,
            round_robin_stream(data.schemas, dims, self.BATCH).batches
            + facts.batches,
        )
        self.deltas = list(stream.deltas(ring))
        self.tuples = [len(d) for d in self.deltas]
        self.mid = len(self.deltas) // 2
        self.replay = [
            self.deltas[i:i + self.REPLAY_GROUP]
            for i in range(self.mid, len(self.deltas), self.REPLAY_GROUP)
        ]
        # The oracle's answers at the snapshot point and at the end.
        live = {}
        expected = []
        for i, batch in enumerate(stream.batches):
            if i == self.mid:
                expected.append(self._oracle(live))
            oracles.apply_rows(live, batch.relation, batch.rows,
                               batch.multiplicity)
        expected.append(self._oracle(live))
        self.expected_mid, self.expected_end = expected
        self.engine = self.recovery = None
        self._scalars = None

    def _oracle(self, live) -> np.ndarray:
        data = self.data
        return oracles.moment_matrix(
            data.schemas, live, JOIN_ORDER, data.numeric_variables
        )

    def info(self) -> dict:
        return {
            "scale": self.SCALE,
            "rows": {k: len(v) for k, v in self.data.tables.items()},
            "updates_per_round": len(self.deltas),
            "tuples_per_round": sum(self.tuples),
            "batch": self.BATCH,
        }

    def setup(self) -> None:
        order = self.data.variable_order
        self.engine = FIVMEngine(self.query, order)
        self.recovery = FIVMEngine(self.query, order)
        self.client = ViewClient(self.engine)
        self.root = self.engine.tree.root.name
        self.empty = self.engine.snapshot()
        # Warm-up: one batch per relation, a read, a snapshot, a restore
        # and a replayed batch, so every trigger path has run once.
        head = self.deltas[:len(self.data.schemas)]
        for delta in head:
            self.engine.apply_update(delta)
        self.client.lookup(self.root, ()).moment_matrix()
        self.recovery.restore(self.engine.snapshot())
        self.recovery.apply_batch(head)
        self.engine.restore(self.empty)

    def close(self) -> None:
        self.engine = self.recovery = None

    def state_scalars(self) -> int:
        return self._scalars

    def _stream(self, deltas, out: Round, root_deltas) -> None:
        engine, client, root = self.engine, self.client, self.root
        with self.window():
            for delta, tuples in deltas:
                t0 = perf_counter()
                root_deltas.append(engine.apply_update(delta))
                t1 = perf_counter()
                client.lookup(root, ()).moment_matrix()
                t2 = perf_counter()
                out.update_lat.append(t1 - t0)
                out.read_lat.append(t2 - t1)
                out.update_s += t1 - t0
                out.read_s += t2 - t1
                out.update_tuples += tuples
                out.reads += 1

    def round(self) -> Round:
        out = Round()
        out.ops = 2 * len(self.deltas) + 2 + len(self.replay)
        ring = self.query.ring
        paired = list(zip(self.deltas, self.tuples))
        root_deltas = []
        try:
            self.engine.restore(self.empty)
            self._stream(paired[:self.mid], out, root_deltas)
            with self.window():
                snapshot = self.engine.snapshot()
            if self._scalars is None:
                self._scalars = strategy_scalars(self.engine)
            self._stream(paired[self.mid:], out, root_deltas)
            with self.window():
                t0 = perf_counter()
                self.recovery.restore(snapshot)
                replayed = []
                with self.span("checkpoint.replay"):
                    for group in self.replay:
                        replayed.append(self.recovery.apply_batch(group))
                out.recover_s = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.tally("checkpoint.replay_groups", len(self.replay))
            out.write_lat = out.update_lat
            final = _root_matrix(self.engine.result())
            checks = (
                oracles.same(final, self.expected_end),
                oracles.same(_sum_matrices(ring, root_deltas), final),
                oracles.same(_root_matrix(self.recovery.result()), final),
                oracles.same(
                    _sum_matrices(ring, replayed),
                    self.expected_end - self.expected_mid,
                ),
            )
            if not all(checks):
                out.failed, out.mismatched = out.ops, True
        except Exception:
            traceback.print_exc()
            out.failed = out.ops
        return out


class RetailerShards(Workload):
    """Per-tuple ``Inventory`` inserts then deletes through a process-
    sharded engine with a send-ahead window, dimensions preloaded; every
    ``READ_EVERY`` updates the window is flushed, the merged root read
    (and checked), and the returned root deltas consumed (the reads).  The
    recovery phase reloads the mid-stream database with ``initialize``
    and replays the later half through ``apply_batch``.

    The first delta consumed after a flush decodes the whole window's
    replies (about 300 µs against 25 µs for the rest).  With a read every
    100 updates those made up exactly 1% of the reads, so ``read_p99_us``
    sat on the edge between the two kinds and jumped between them from
    run to run; every 50 puts it inside the first kind."""

    name = "retailer-shards"
    ring_cls = CofactorRing
    SCALE = 1.0
    ROWS = 1000
    READ_EVERY = 50
    PIPELINE_DEPTH = 32
    REPLAY_GROUP = 50

    def __init__(self, seed: int):
        super().__init__(seed)
        data = retailer.generate(scale=self.SCALE, seed=seed)
        self.data = data
        self.query = cofactor_query(
            "retailer", data.schemas, data.numeric_variables
        )
        ring = self.query.ring
        self.shards = min(8, max(2, os.cpu_count() or 1))
        self.static_db = data.preloaded_database(ring, streaming=["Inventory"])
        schema = data.schemas["Inventory"]
        rows = data.tables["Inventory"][:self.ROWS]
        minus = ring.neg(ring.one)
        self.deltas = [
            Relation.from_tuples("Inventory", schema, ring, [row])
            for row in rows
        ] + [
            Relation.from_tuples("Inventory", schema, ring, [row], minus)
            for row in rows
        ]
        self.mid = len(rows)
        self.replay = [
            self.deltas[i:i + self.REPLAY_GROUP]
            for i in range(self.mid, len(self.deltas), self.REPLAY_GROUP)
        ]
        mid_db = data.preloaded_database(ring, streaming=["Inventory"])
        inventory = mid_db.relation("Inventory")
        for row in rows:
            inventory.add(tuple(row), ring.one)
        self.mid_db = mid_db
        # Oracle answers at every read point.
        live = {rel: {tuple(r): 1 for r in data.tables[rel]}
                for rel in data.schemas if rel != "Inventory"}
        live["Inventory"] = {}
        self.expected = []
        for i, row in enumerate(rows + rows):
            oracles.apply_rows(live, "Inventory", [tuple(row)],
                               1 if i < self.mid else -1)
            if (i + 1) % self.READ_EVERY == 0:
                self.expected.append(self._oracle(live))
        self.expected_mid = self.expected[self.mid // self.READ_EVERY - 1]
        self.expected_end = self._oracle(live)
        self.engine = None
        self._scalars = None

    def _oracle(self, live) -> np.ndarray:
        data = self.data
        return oracles.moment_matrix(
            data.schemas, live, JOIN_ORDER, data.numeric_variables
        )

    def info(self) -> dict:
        return {
            "scale": self.SCALE,
            "shards": self.shards,
            "pipeline_depth": self.PIPELINE_DEPTH,
            "dimension_rows": {
                k: len(v) for k, v in self.data.tables.items()
                if k != "Inventory"
            },
            "updates_per_round": len(self.deltas),
            "read_every": self.READ_EVERY,
        }

    def setup(self) -> None:
        self.engine = ShardedFIVMEngine(
            self.query, order=self.data.variable_order, shards=self.shards,
            updatable=["Inventory"], db=self.static_db, executor="process",
            pipeline_depth=self.PIPELINE_DEPTH,
        )
        # Warm-up: a few inserts and their deletes, then a merged read.
        head = self.deltas[:4] + self.deltas[self.mid:self.mid + 4]
        for delta in head:
            self.engine.apply_update(delta)
        self.engine.result()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def state_scalars(self) -> int:
        return self._scalars

    def round(self) -> Round:
        out = Round()
        n_points = len(self.deltas) // self.READ_EVERY
        out.ops = 2 * len(self.deltas) + n_points + 2 + len(self.replay)
        engine, ring = self.engine, self.query.ring
        checks = []
        try:
            total = None
            for k in range(n_points):
                part = self.deltas[k * self.READ_EVERY:(k + 1) * self.READ_EVERY]
                pending = []
                with self.window():
                    start = perf_counter()
                    for delta in part:
                        t0 = perf_counter()
                        pending.append(engine.apply_update(delta))
                        out.update_lat.append(perf_counter() - t0)
                    # Deferred work completes at the flush barrier and the
                    # merged read, so the stream's time runs to their end.
                    engine.flush()
                    merged = engine.result()
                    t0 = perf_counter()
                    out.update_s += t0 - start
                    # Reads: consuming each returned root delta (decode and
                    # ring merge of the shards' replies, on the coordinator).
                    payloads = []
                    for root_delta in pending:
                        payloads.append(root_delta.payload(()))
                        t1 = perf_counter()
                        out.read_lat.append(t1 - t0)
                        t0 = t1
                out.update_tuples += len(part)
                checks.append(oracles.same(
                    _root_matrix(merged), self.expected[k]
                ))
                step = ring.sum(payloads).moment_matrix()
                total = step if total is None else total + step
                if (k + 1) * self.READ_EVERY == self.mid and not self._scalars:
                    self._scalars = strategy_scalars(engine)
            out.reads = len(out.read_lat)
            out.read_s = sum(out.read_lat)
            checks.append(oracles.same(total, self.expected_end))
            with self.window():
                t0 = perf_counter()
                with self.span("checkpoint.restore"):
                    engine.initialize(self.mid_db)
                replayed = []
                with self.span("checkpoint.replay"):
                    for group in self.replay:
                        replayed.append(engine.apply_batch(group))
                    engine.flush()
                out.recover_s = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.tally("checkpoint.replay_groups", len(self.replay))
            out.write_lat = out.update_lat
            checks.append(oracles.same(
                _sum_matrices(ring, replayed),
                self.expected_end - self.expected_mid,
            ))
            checks.append(oracles.same(
                _root_matrix(engine.result()), self.expected_end
            ))
            if not all(checks):
                out.failed, out.mismatched = out.ops, True
        except Exception:
            traceback.print_exc()
            out.failed = out.ops
        return out
