"""Layer spans for the traced run, recorded from outside the engine.

:class:`Tracer` wraps the public callables of each engine module (see
:func:`layer_targets`) with span recorders and restores the originals on
:meth:`Tracer.uninstall`, so nothing under ``src/`` changes.  Spans are
kept in memory as flat arrays (name, start, end, parent, phase) and
written out when the run ends.

Two kinds of span exist:

* **busy** spans wrap synchronous calls.  They nest strictly (a
  synchronous call never yields to the event loop), so each has one
  parent; a span's *self time* is its duration minus its children's.
  Re-entering the same call group (``absorb`` → ``absorb_bulk``,
  ``apply_batch`` → ``apply_update``) records nothing, so calls and rows
  are counted once.
* **wait** spans cover asynchronous waits (epoch-lock acquisition and
  hold, a submitted write).  They overlap each other and the busy spans
  of other tasks, so they take no part in self time.

Layer self times plus ``untraced_s`` (window time covered by no busy
span) add up to the traced wall time exactly.  Only what runs while
:attr:`Tracer.active` is set is recorded; the workload switches it on
around its timed regions and the mid-stream snapshot.
"""

from __future__ import annotations

import array
import builtins
import os
from contextlib import asynccontextmanager, contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "engine", "codegen", "trigger", "view", "serving", "server",
    "checkpoint", "shard",
)

#: Phase ids: the traced set-up, then the traced steady rounds.
SETUP, STEADY = 0, 1

#: Counters kept per phase (index into the per-phase count lists).
COUNTERS = (
    "compile", "ring.mul", "ring.add", "ring.sum", "trigger.rows_in",
    "trigger.rows_out", "view.absorb_rows", "shard.bytes_sent",
    "shard.bytes_recv", "server.groups", "server.holds",
    "checkpoint.replay_groups", "serving.hits", "serving.upqueries",
    "serving.evictions", "serving.dropped_deltas",
)
_COUNTER = {name: i for i, name in enumerate(COUNTERS)}

#: The tracer whose patches a forked child must drop (shard workers are
#: forked from the traced process; only coordinator-side work is traced).
_INSTALLED = []
_FORK_HOOKED = []


def _drop_in_child() -> None:
    for tracer in list(_INSTALLED):
        tracer.uninstall()


class Tracer:
    """Span and counter recorder for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.phase = SETUP
        self.names = []
        self.layer_of = []
        self.wait_names = set()
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.phases = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._groups = []
        self.counts = [[0] * len(COUNTERS), [0] * len(COUNTERS)]
        self._cur = self.counts[SETUP]
        #: Active wall time per phase (the window the spans must cover).
        self.window = [0.0, 0.0]
        self._patches = []

    # -- recording -------------------------------------------------------

    def intern(self, name: str, wait: bool = False) -> int:
        """Id of span name ``name`` (``layer.op``)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
            if wait:
                self.wait_names.add(nid)
        return nid

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` in the current phase."""
        if self.active:
            self._cur[_COUNTER[name]] += n

    def set_phase(self, phase: int) -> None:
        """Switch the phase new spans and counts are filed under."""
        self.phase = phase
        self._cur = self.counts[phase]

    def tally(self, name: str, n: int) -> None:
        """Add ``n`` to counter ``name`` of the steady phase (counts read
        from the engine's own statistics, outside any window)."""
        self.counts[STEADY][_COUNTER[name]] += n

    @contextmanager
    def window_on(self):
        """Record spans for the duration of the block (entered with no
        busy span open, so every span lies inside some window).  Nested
        windows fold into the outermost one."""
        if self.active:
            yield
            return
        self.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.window[self.phase] += perf_counter() - t0
            self.active = False

    @contextmanager
    def span(self, name: str):
        """A busy span around benchmark-side code (e.g. a replay loop)."""
        if not self.active:
            yield
            return
        idx = self._open(self.intern(name), name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int, group: str) -> int:
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.phases.append(self.phase)
        self.end.append(0.0)
        stack.append(idx)
        self._groups.append(group)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._groups.pop()

    def wait(self, name: str, t0: float, t1: float) -> None:
        """Record a finished asynchronous wait span."""
        if not self.active:
            return
        self.name_id.append(self.intern(name, wait=True))
        self.parent.append(-1)
        self.phases.append(self.phase)
        self.start.append(t0)
        self.end.append(t1)

    # -- wrappers --------------------------------------------------------

    def busy(self, name: str, fn, group: str = None, before=None, after=None):
        """Wrap ``fn`` in a busy span.  ``before(args)`` and
        ``after(args, result)`` update counters for recorded calls."""
        nid = self.intern(name)
        group = group or name
        tracer = self
        groups = self._groups

        def traced(*args, **kwargs):
            if not tracer.active or (groups and groups[-1] == group):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer._open(nid, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, counter: str, fn):
        """Wrap ``fn`` to count its calls (no span)."""
        i = _COUNTER[counter]
        tracer = self

        def counted_call(*args, **kwargs):
            if tracer.active:
                tracer._cur[i] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (class or module) until :meth:`uninstall`."""
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def install(self, ring_cls) -> None:
        """Wrap every layer target, plus the query ring class's ops."""
        for owner, attr, wrap in layer_targets(self):
            self.patch(owner, attr, wrap(getattr(owner, attr, None)))
        for op in ("mul", "add", "sum"):
            self.patch(
                ring_cls, op, self.counted(f"ring.{op}", getattr(ring_cls, op))
            )
        _INSTALLED.append(self)
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_drop_in_child)
            _FORK_HOOKED.append(True)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        self.active = False
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # -- results -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span (and the name table) to ``path`` (``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            phase=np.frombuffer(self.phases, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self, rounds: int) -> dict:
        """Per-layer metrics: set-up figures for the one traced set-up,
        steady figures per traced round (averaged over ``rounds``)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        phase = np.frombuffer(self.phases, dtype=np.int8)
        dur = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )
        n_names = len(self.names)
        wait = np.zeros(n_names, dtype=bool)
        wait[list(self.wait_names)] = True
        busy = ~wait[nid] if len(nid) else np.zeros(0, dtype=bool)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = np.where(busy, dur - covered, 0.0)
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = np.array(
            [layer_ids[layer] for layer in self.layer_of], dtype=np.int64
        )

        def by_name(p: int, weights) -> dict:
            mask = phase == p
            sums = np.bincount(nid[mask], weights=weights[mask],
                               minlength=n_names)
            return {name: float(sums[i]) for i, name in enumerate(self.names)}

        ones = np.ones(len(dur))
        dur_s = [by_name(SETUP, dur), by_name(STEADY, dur)]
        calls = [by_name(SETUP, ones), by_name(STEADY, ones)]
        steady = phase == STEADY
        layer_self = np.bincount(
            name_layer[nid[steady]], weights=self_time[steady],
            minlength=len(LAYERS),
        ) if n_names else np.zeros(len(LAYERS))
        top = steady & busy & ~has_parent
        untraced = self.window[STEADY] - float(dur[top].sum())
        c0 = dict(zip(COUNTERS, self.counts[SETUP]))
        c1 = dict(zip(COUNTERS, self.counts[STEADY]))
        r = float(max(1, rounds))

        def d(name: str) -> float:
            return dur_s[STEADY].get(name, 0.0) / r

        def n(name: str) -> float:
            return calls[STEADY].get(name, 0.0) / r

        lookups = n("serving.lookup")
        holds = c1["server.holds"]
        out = {
            "engine.init_s": dur_s[SETUP].get("engine.init", 0.0),
            "engine.load_s": dur_s[SETUP].get("engine.load", 0.0),
            "engine.apply_calls": n("engine.apply"),
            "engine.apply_s": d("engine.apply"),
            "codegen.compile_calls": float(c0["compile"]),
            "codegen.compile_s": sum(
                v for k, v in dur_s[SETUP].items() if k.startswith("codegen.")
            ),
            "codegen.compile_calls_steady": float(c1["compile"]),
            "trigger.calls": n("trigger.run"),
            "trigger.s": d("trigger.run"),
            "trigger.rows_in": c1["trigger.rows_in"] / r,
            "trigger.rows_out": c1["trigger.rows_out"] / r,
            "ring.mul_calls": c1["ring.mul"] / r,
            "ring.add_calls": c1["ring.add"] / r,
            "ring.sum_calls": c1["ring.sum"] / r,
            "view.absorb_calls": n("view.absorb"),
            "view.absorb_rows": c1["view.absorb_rows"] / r,
            "view.absorb_s": d("view.absorb"),
            "serving.lookups": lookups,
            "serving.hits": c1["serving.hits"] / r,
            "serving.upqueries": c1["serving.upqueries"] / r,
            "serving.hit_ratio": (
                c1["serving.hits"] / r / lookups if lookups else 0.0
            ),
            "serving.upquery_s": d("serving.upquery"),
            "serving.evictions": c1["serving.evictions"] / r,
            "serving.dropped_deltas": c1["serving.dropped_deltas"] / r,
            "server.read_wait_s": d("server.read_wait"),
            "server.write_wait_s": d("server.write_wait"),
            "server.write_hold_s": d("server.write_hold"),
            "server.groups_per_hold": c1["server.groups"] / holds if holds else 0.0,
            "checkpoint.snapshot_s": d("checkpoint.snapshot"),
            "checkpoint.restore_s": d("checkpoint.restore"),
            "checkpoint.replay_s": d("checkpoint.replay"),
            "checkpoint.replay_groups": c1["checkpoint.replay_groups"] / r,
            "shard.route_s": d("shard.route"),
            "shard.frames_sent": n("shard.send"),
            "shard.bytes_sent": c1["shard.bytes_sent"] / r,
            "shard.send_s": d("shard.send"),
            "shard.flushes": n("shard.flush"),
            "shard.flush_s": d("shard.flush"),
            "shard.poll_wait_s": d("shard.poll"),
            "shard.frames_recv": n("shard.recv"),
            "shard.bytes_recv": c1["shard.bytes_recv"] / r,
            "shard.recv_s": d("shard.recv"),
            "shard.merge_s": float(
                self_time[steady & (nid == self._ids.get("shard.merge", -1))]
                .sum()
            ) / r,
        }
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(layer_self[i]) / r
        out["untraced_s"] = untraced / r
        out["trace.wall_s"] = self.window[STEADY] / r
        out["trace.rounds"] = float(rounds)
        return out


# ----------------------------------------------------------------------
# What is wrapped, layer by layer
# ----------------------------------------------------------------------


def _size(relation) -> int:
    try:
        return len(relation)
    except TypeError:
        return 0


def layer_targets(tracer: Tracer):
    """``(owner, attribute, wrap)`` for every traced callable."""
    from repro.core import engine as engine_mod
    from repro.core import ir, kernels, plan_exec, serving, sharded
    from repro import serve
    from repro.data.columnar import ColumnarRelation
    from repro.data.relation import Relation

    busy = tracer.busy
    count = tracer.count
    targets = []

    def add(owner, attr, wrap):
        if attr in vars(owner) or isinstance(owner, type):
            targets.append((owner, attr, wrap))

    # core.engine (the sharded coordinator's facade counts as engine too)
    for cls in (engine_mod.FIVMEngine, sharded.ShardedFIVMEngine):
        add(cls, "__init__", lambda fn: busy("engine.init", fn))
        add(cls, "initialize", lambda fn: busy("engine.load", fn))
        for attr in ("apply_update", "apply_batch"):
            add(cls, attr, lambda fn: busy("engine.apply", fn))

    # codegen: the program generators and the builtin compile() they call
    for module in (engine_mod, plan_exec):
        for attr in ("compile_slot_program", "compile_factor_program"):
            if attr in vars(module):
                add(module, attr,
                    lambda fn, a=attr: busy(f"codegen.{a}", fn,
                                            group="codegen"))
    add(kernels, "kernel_delta_program",
        lambda fn: busy("codegen.kernel_delta_program", fn, group="codegen"))
    for module in (plan_exec, kernels):
        targets.append((module, "compile",
                        lambda _fn: tracer.counted("compile", builtins.compile)))

    # triggers
    def rows_in(args):
        count("trigger.rows_in", _size(args[1]))

    def rows_out(args, result):
        if hasattr(result, "schema"):
            count("trigger.rows_out", _size(result))

    for cls in (plan_exec.SlotProgram, kernels.KernelDeltaProgram,
                ir.InterpreterDeltaProgram):
        add(cls, "run", lambda fn: busy("trigger.run", fn, before=rows_in,
                                        after=rows_out))
    for cls in (plan_exec.FactorProgram, ir.InterpreterFactorProgram):
        add(cls, "run", lambda fn: busy("trigger.run", fn))

    # data.relation / data.columnar writes
    def absorbed(args):
        count("view.absorb_rows", _size(args[1]))

    for cls in (Relation, ColumnarRelation):
        for attr in ("absorb", "absorb_bulk"):
            if attr in vars(cls):
                add(cls, attr, lambda fn: busy("view.absorb", fn,
                                               before=absorbed))

    # core.serving
    add(serving, "upquery", lambda fn: busy("serving.upquery", fn))
    add(serving.ViewClient, "lookup", lambda fn: busy("serving.lookup", fn))
    add(serving.ViewClient, "stats", lambda fn: busy("serving.stats", fn))

    # serve: epoch-lock waits and holds, submitted writes
    def read_lock(fn):
        @asynccontextmanager
        async def read(self):
            t0 = perf_counter()
            async with fn(self) as epoch:
                tracer.wait("server.read_wait", t0, perf_counter())
                yield epoch
        return read

    def write_lock(fn):
        @asynccontextmanager
        async def write(self):
            t0 = perf_counter()
            async with fn(self) as epoch:
                t1 = perf_counter()
                tracer.wait("server.write_wait", t0, t1)
                count("server.holds")
                try:
                    yield epoch
                finally:
                    tracer.wait("server.write_hold", t1, perf_counter())
        return write

    def submitted(fn):
        async def apply(self, deltas, timeout=None):
            t0 = perf_counter()
            try:
                return await fn(self, deltas, timeout)
            finally:
                count("server.groups")
                tracer.wait("server.apply", t0, perf_counter())
        return apply

    add(serve.EpochLock, "read", read_lock)
    add(serve.EpochLock, "write", write_lock)
    add(serve.ViewServer, "apply", submitted)

    # core.checkpoint
    add(engine_mod.FIVMEngine, "snapshot",
        lambda fn: busy("checkpoint.snapshot", fn))
    add(engine_mod.FIVMEngine, "restore",
        lambda fn: busy("checkpoint.restore", fn))

    # core.sharded, coordinator side
    conn = sharded.FrameConn

    def send_wrap(fn):
        inner = busy("shard.send", fn)

        def send(self, obj):
            before = len(self._out)
            inner(self, obj)
            count("shard.bytes_sent", max(0, len(self._out) - before))
        return send

    def recv_wrap(fn):
        inner = busy("shard.recv", fn)
        poll = conn.poll

        def recv(self):
            if tracer.active:
                poll(self, None)
                size = self._frame_size()
                if size is not None:
                    count("shard.bytes_recv", size + conn._HEADER.size)
            return inner(self)
        return recv

    for cls in (Relation, ColumnarRelation):
        if "partition" in vars(cls):
            add(cls, "partition", lambda fn: busy("shard.route", fn))
    add(conn, "send", send_wrap)
    add(conn, "flush", lambda fn: busy("shard.flush", fn))
    add(conn, "poll", lambda fn: busy("shard.poll", fn))
    add(conn, "recv", recv_wrap)
    add(sharded.ShardedFIVMEngine, "result",
        lambda fn: busy("shard.merge", fn))
    return targets
