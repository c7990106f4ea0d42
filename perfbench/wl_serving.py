"""The serving workload: Zipf point lookups beside a uniform writer.

A :class:`~repro.serve.ViewServer` fronts a partially materialized
cofactor view ``Q(A) = R(A,B) ⋈ S(A,C) ⋈ T(A,D)`` (lifts on B, C, D).
One event loop runs a few reader tasks as a closed loop — each sends
its next Zipf-skewed ``lookup_many`` only when the previous one has
returned — beside one writer task that submits uniform 60-row groups
and awaits each.  This is the only workload where serving is the work:
hits, upqueries, LRU eviction, the epoch lock and the partial filter on
writes.  Every read is checked against the closed-form per-key cofactor
of the database as of the epoch the read was served in
(:class:`perfbench.oracles.KeyMoments`).
"""

from __future__ import annotations

import asyncio
import random
import traceback
from time import perf_counter

from repro.bench.memory import payload_scalars, strategy_scalars
from repro.core import FIVMEngine, Query, VariableOrder
from repro.data import Database, Relation
from repro.rings import CofactorRing, Lifting
from repro.serve import ViewServer

from perfbench import oracles
from perfbench.harness import Round, Workload

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")}


class _TimedWrites(FIVMEngine):
    """The shipped engine, timing each ``apply_batch`` the server's
    writer task makes (the engine-side cost of one write group)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.apply_lat = []

    def apply_batch(self, deltas):
        t0 = perf_counter()
        try:
            return super().apply_batch(deltas)
        finally:
            self.apply_lat.append(perf_counter() - t0)


class ZipfServing(Workload):
    """Per round: ``READERS`` closed-loop readers send ``READS`` lookups
    each while the writer inserts ``GROUPS`` uniform groups and then
    deletes them, so every round starts from the same database.  The
    round-start snapshot is restored into a second engine and the
    round's groups replayed through ``apply_batch`` (recovery)."""

    name = "zipf-serving"
    ring_cls = CofactorRing
    DOMAIN = 2000
    HOT = 64
    ZIPF_S = 1.3
    READERS = 4
    READS = 2500
    GROUPS = 60
    ROWS_PER_GROUP = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        ring = CofactorRing(3)
        self.query = Query(
            "zipf", SCHEMAS, free=("A",), ring=ring,
            lifting=Lifting(ring, {"B": ring.lift(0), "C": ring.lift(1),
                                   "D": ring.lift(2)}),
        )
        self.order = VariableOrder.from_spec(("A", ["B", "C", "D"]))
        self.base = {
            rel: {(a, rng.randrange(1, 100)): 1 for a in range(self.DOMAIN)}
            for rel in SCHEMAS
        }
        inserts = []
        for g in range(self.GROUPS):
            rel = sorted(SCHEMAS)[g % len(SCHEMAS)]
            rows = {}
            for _ in range(self.ROWS_PER_GROUP):
                key = (rng.randrange(self.DOMAIN), rng.randrange(1, 100))
                rows[key] = rows.get(key, 0) + 1
            inserts.append((rel, rows))
        self.groups = inserts + [
            (rel, {k: -v for k, v in rows.items()}) for rel, rows in inserts
        ]
        self.deltas = [
            Relation(rel, SCHEMAS[rel], ring,
                     {k: ring.from_int(v) for k, v in rows.items()})
            for rel, rows in self.groups
        ]
        weights = [1.0 / (k + 1) ** self.ZIPF_S for k in range(self.DOMAIN)]
        self.keys = [
            [(k,) for k in rng.choices(range(self.DOMAIN), weights=weights,
                                       k=self.READS)]
            for _ in range(self.READERS)
        ]
        # Budget: twice the hot set, in logical scalars of a full payload.
        full = ring.mul(ring.mul(ring.lift(0)(1), ring.lift(1)(1)),
                        ring.lift(2)(1))
        self.budget = 2 * self.HOT * (1 + payload_scalars(full))
        self.engine = self.recovery = self.loop = self.server = None
        self._scalars = None

    def info(self) -> dict:
        return {
            "domain": self.DOMAIN,
            "hot": self.HOT,
            "zipf_s": self.ZIPF_S,
            "readers": self.READERS,
            "reads_per_reader": self.READS,
            "write_groups": len(self.groups),
            "rows_per_group": self.ROWS_PER_GROUP,
            "partial_budget": self.budget,
        }

    def _engine(self, cls):
        return cls(self.query, self.order, materialization="partial",
                   partial_budget=self.budget)

    def _base_db(self) -> Database:
        ring = self.query.ring
        return Database(
            Relation(rel, SCHEMAS[rel], ring,
                     {k: ring.from_int(v) for k, v in rows.items()})
            for rel, rows in self.base.items()
        )

    def setup(self) -> None:
        self.engine = self._engine(_TimedWrites)
        self.engine.initialize(self._base_db())
        self.recovery = self._engine(FIVMEngine)
        self.root = self.engine.tree.root.name
        self.loop = asyncio.new_event_loop()
        self.server = ViewServer(self.engine)
        self.loop.run_until_complete(self.server.start())
        # Warm-up: register the hot set, then one write group in and out
        # beside a few reads; recover once.
        snapshot = self.engine.snapshot()

        async def warm():
            for rank in range(self.HOT):
                await self.server.lookup_many(self.root, [(rank,)])
            await self.server.apply([self.deltas[0]])
            await self.server.apply([self.deltas[self.GROUPS]])

        self.loop.run_until_complete(warm())
        self.recovery.restore(snapshot)
        self.recovery.apply_batch([self.deltas[0]])
        self.engine.apply_lat.clear()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.server.stop())
            self.loop.close()
        self.engine = self.recovery = self.loop = self.server = None

    def state_scalars(self) -> int:
        return self._scalars

    def serving_counts(self) -> dict:
        stats = self.server.stats(self.root)
        return {k: stats[k] for k in
                ("hits", "upqueries", "evictions", "dropped_deltas")}

    async def _mixed(self, reads, write_lat):
        server, root = self.server, self.root

        async def reader(keys):
            for key in keys:
                t0 = perf_counter()
                payloads, epoch = await server.lookup_many(root, [key])
                reads.append((perf_counter() - t0, key, epoch, payloads[0]))

        async def writer():
            for delta in self.deltas:
                t0 = perf_counter()
                await server.apply([delta])
                write_lat.append(perf_counter() - t0)

        await asyncio.gather(writer(), *(reader(k) for k in self.keys))

    def round(self) -> Round:
        out = Round()
        n_reads = self.READERS * self.READS
        out.ops = n_reads + len(self.deltas) + 2 + len(self.deltas)
        reads = []
        try:
            with self.window():
                snapshot = self.engine.snapshot()
            if self._scalars is None:
                self._scalars = strategy_scalars(self.engine)
            epoch0 = self.server.epoch
            self.engine.apply_lat.clear()
            with self.window():
                t0 = perf_counter()
                self.loop.run_until_complete(self._mixed(reads, out.write_lat))
                out.read_s = perf_counter() - t0
            with self.window():
                t0 = perf_counter()
                self.recovery.restore(snapshot)
                with self.span("checkpoint.replay"):
                    for delta in self.deltas:
                        self.recovery.apply_batch([delta])
                out.recover_s = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.tally("checkpoint.replay_groups", len(self.deltas))
            out.update_lat = list(self.engine.apply_lat)
            out.update_s = sum(out.update_lat)
            out.update_tuples = len(self.deltas) * self.ROWS_PER_GROUP
            out.reads = len(reads)
            out.read_lat = [r[0] for r in reads]
            bad = self._check_reads(reads, epoch0)
            bad += self._check_state(self.engine)
            bad += self._check_state(self.recovery)
            if self.server.epoch != epoch0 + len(self.deltas):
                bad += len(self.deltas)
            out.failed = min(out.ops, bad)
            out.mismatched = bad > 0
        except Exception:
            traceback.print_exc()
            out.failed = out.ops
        return out

    def _oracle(self) -> oracles.KeyMoments:
        moments = oracles.KeyMoments(sorted(SCHEMAS))
        for rel, rows in self.base.items():
            moments.apply(rel, rows)
        return moments

    def _check_reads(self, reads, epoch0: int) -> int:
        """Mismatched reads, each against the database as of its epoch
        (the writer awaits every group, so epoch ``epoch0 + g`` has seen
        exactly the round's first ``g`` groups)."""
        moments = self._oracle()
        applied = 0
        expected, converted = {}, {}
        bad = 0
        for _lat, key, epoch, payload in sorted(reads, key=lambda r: r[2]):
            while applied < epoch - epoch0:
                rel, rows = self.groups[applied]
                moments.apply(rel, rows)
                for a, _x in rows:
                    expected.pop((a,), None)
                applied += 1
            want = expected.get(key)
            if want is None:
                want = expected[key] = moments.matrix(key[0])
            got = converted.get(id(payload))
            if got is None:
                got = payload.moment_matrix()
                converted[id(payload)] = (payload, got)
            else:
                got = got[1]
            if not oracles.same(got, want):
                bad += 1
        return bad

    def _check_state(self, engine) -> int:
        """Mismatched active keys of a partial engine back at the base
        state (the round's deletions undo its insertions)."""
        moments = self._oracle()
        view = engine.views[self.root]
        return sum(
            not oracles.same(view.payload(key).moment_matrix(),
                             moments.matrix(key[0]))
            for key in engine.partial[self.root].entries
        )
