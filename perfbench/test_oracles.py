"""Self-tests of the benchmark's oracles and tracer.

Each oracle must agree with the engine on a small input and reject the
engine's result with any one payload entry changed by one unit — so a
check that passes everything is caught.  The tracer must restore every
wrapped callable and account for all of the traced wall time.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apps.regression import cofactor_query
from repro.core import FIVMEngine, Query, VariableOrder, ViewClient
from repro.data import Relation
from repro.datasets import housing, retailer, round_robin_stream
from repro.rings import CofactorRing, Lifting, RealRing

from perfbench import harness, oracles, tracing
from perfbench.wl_housing import HousingSumTuple
from perfbench.wl_retailer import JOIN_ORDER
from perfbench.wl_serving import SCHEMAS


def _each_entry_off_by_one(matrix):
    for index in np.ndindex(matrix.shape):
        changed = matrix.copy()
        changed[index] += 1.0
        yield changed


def test_retailer_moments_match_engine_and_reject_off_by_one():
    data = retailer.generate(scale=0.05, seed=3)
    query = cofactor_query("r", data.schemas, data.numeric_variables)
    engine = FIVMEngine(query, data.variable_order)
    stream = round_robin_stream(data.schemas, data.tables, batch_size=7,
                                delete_fraction=0.1, seed=3)
    live = {}
    for batch, delta in zip(stream.batches, stream.deltas(query.ring)):
        engine.apply_update(delta)
        oracles.apply_rows(live, batch.relation, batch.rows,
                           batch.multiplicity)
    got = engine.result().payload(()).moment_matrix()
    expected = oracles.moment_matrix(data.schemas, live, JOIN_ORDER,
                                     data.numeric_variables)
    assert expected[0, 0] > 0
    assert oracles.same(got, expected)
    assert not any(
        oracles.same(bad, expected) for bad in _each_entry_off_by_one(got)
    )


def test_housing_star_sum_matches_engine_and_rejects_off_by_one():
    data = housing.generate(scale=2, postcodes=30, seed=4)
    ring = RealRing()
    query = Query("h", data.schemas, ring=ring,
                  lifting=Lifting(ring, {"price": float}))
    engine = FIVMEngine(query, data.variable_order)
    live = {}
    for rel, rows in data.tables.items():
        engine.apply_update(Relation.from_tuples(rel, data.schemas[rel],
                                                 ring, rows))
        oracles.apply_rows(live, rel, rows, 1)
    got = engine.result().payload(())
    expected = oracles.star_sum(data.schemas, live, "postcode",
                                ("House", "price"))
    assert expected > 0
    assert got == expected
    assert got + 1.0 != expected and got - 1.0 != expected


def test_key_moments_match_served_lookups_and_reject_off_by_one():
    ring = CofactorRing(3)
    query = Query("q", SCHEMAS, free=("A",), ring=ring,
                  lifting=Lifting(ring, {"B": ring.lift(0), "C": ring.lift(1),
                                         "D": ring.lift(2)}))
    engine = FIVMEngine(query, VariableOrder.from_spec(("A", ["B", "C", "D"])),
                        materialization="partial")
    client = ViewClient(engine)
    root = engine.tree.root.name
    moments = oracles.KeyMoments(sorted(SCHEMAS))
    rng = random.Random(5)
    for step in range(30):
        rel = sorted(SCHEMAS)[step % 3]
        rows = {(rng.randrange(8), rng.randrange(1, 9)): 1 for _ in range(5)}
        engine.apply_update(Relation(rel, SCHEMAS[rel], ring, {
            k: ring.from_int(v) for k, v in rows.items()
        }))
        moments.apply(rel, rows)
        key = rng.randrange(8)
        got = client.lookup(root, (key,)).moment_matrix()
        assert oracles.same(got, moments.matrix(key))
    got = client.lookup(root, (0,)).moment_matrix()
    expected = moments.matrix(0)
    assert expected[0, 0] > 0
    assert not any(
        oracles.same(bad, expected) for bad in _each_entry_off_by_one(got)
    )


def test_tracer_restores_callables_and_covers_wall_time():
    original = FIVMEngine.apply_update
    ring_add = RealRing.add
    metrics, rounds, extra = harness.run(
        HousingSumTuple(2), seconds=0.01, trace=True
    )
    assert FIVMEngine.apply_update is original
    assert RealRing.add is ring_add
    assert not tracing._INSTALLED
    assert all(r.failed == 0 for r in rounds)
    values = {name: value for name, (value, _unit) in metrics.items()}
    covered = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert covered + values["untraced_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9
    )
    assert values["codegen.compile_calls"] > 0
    assert values["codegen.compile_calls_steady"] == 0
    assert values["engine.apply_calls"] > 0
    assert values["trigger.calls"] > 0
    assert values["ring.add_calls"] > 0
