"""The traced pass: spans recorded around each layer's public entry points.

:func:`layer_points` names every wrapped function and the layer span it
records.  :class:`Tracer` installs the wrappers for one traced phase and
restores the originals afterwards; the untraced pass never creates one.

Each wrapped call records a span (name, start, end, parent, operation
id) on a per-thread stack kept in memory.  A span's *self time* is its
duration minus the time its child spans cover.  Over the daemon, the
server's ``serve.handle`` span joins its client ``serve.request`` span
by (session, wire correlation id); the difference is time the request
spent waiting outside the handler (socket, codec, queueing on the loop).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import repro.access.atoms
import repro.access.cluster
import repro.access.partition
import repro.access.sort_order
import repro.data.executor
from repro.access.atoms import AtomManager
from repro.access.scans import Scan
from repro.data.executor import DataSystem
from repro.data.plan import QueryPlan
from repro.data.result import ResultSet
from repro.serve import protocol
from repro.serve.connection import SocketTransport
from repro.serve.session import Session
from repro.shard.coordinator import Coordinator
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.util.rwlock import ReadWriteLock

from perfbench.measure import HostSpeed, Recorder

#: Spans kept per thread for the span file; aggregates are never capped.
SPAN_CAP = 50_000
#: Seconds of each alternating untraced / traced slice of the traced pass.
TRACE_SLICE = 1.0


def layer_points() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    decode_sites = [
        repro.access.atoms,
        repro.access.cluster,
        repro.access.sort_order,
        repro.access.partition,
    ]
    return [
        (BufferManager, "fix", "storage.fix"),
        (BufferManager, "fix_new", "storage.fix_new"),
        (SimulatedDisk, "read_block", "storage.disk.read"),
        (SimulatedDisk, "read_chained", "storage.disk.read"),
        (SimulatedDisk, "write_block", "storage.disk.write"),
        (SimulatedDisk, "write_chained", "storage.disk.write"),
        *[(module, "decode_atom", "access.decode") for module in decode_sites],
        (AtomManager, "get", "access.get"),
        (AtomManager, "find_by_key", "access.find_by_key"),
        (AtomManager, "insert", "access.write"),
        (AtomManager, "modify", "access.write"),
        (AtomManager, "delete", "access.write"),
        (Scan, "next", "access.scan"),
        (repro.data.executor, "parse", "mql.parse"),
        (DataSystem, "prepare", "data.prepare"),
        (DataSystem, "open_result", "data.open"),
        (DataSystem, "open_snapshot", "data.open"),
        (QueryPlan, "compile", "data.open"),
        (DataSystem, "construct_molecule", "data.construct"),
        (ResultSet, "fetch_many", "data.pipeline"),
        (Session, "handle", "serve.handle"),
        (SocketTransport, "request", "serve.request"),
        (protocol, "encode", "serve.encode"),
        (protocol, "decode", "serve.decode"),
        (ReadWriteLock, "acquire_read", "txn.rwlock"),
        (ReadWriteLock, "acquire_write", "txn.rwlock"),
        (Coordinator, "open_result", "shard.open"),
    ]


class _Frame:
    __slots__ = ("name", "index", "start", "child")

    def __init__(self, name: str, index: int, start: float) -> None:
        self.name = name
        self.index = index
        self.start = start
        self.child = 0.0


class _ThreadState:
    """One thread's span stack, aggregates and kept spans."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.kind = "other"
        self.op_id = ""
        self.session: str | None = None
        self.next_index = 0
        self.ops = 0
        #: (operation kind, span name) -> [calls, self seconds, total seconds]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (parent span name, child qualified function name) -> calls
        self.children: dict[tuple[str, str], int] = defaultdict(int)
        #: (operation id, span name, start, end, span index, parent index)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.encoded_bytes = 0
        #: (session, correlation) -> seconds, client and server side
        self.requests: dict[tuple[str, int], float] = {}
        self.handled: dict[tuple[str, int], float] = {}


class Tracer:
    """Installs the layer wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Daemon session name -> the kind of operation its client is
        #: running, so server-side spans are billed to that kind.
        self.session_kinds: dict[str, str] = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def begin_op(self, kind: str, session: str | None = None) -> None:
        """Open the root span of one benchmark operation on this thread;
        ``session`` names the daemon session that will serve it."""
        state = self._state()
        state.ops += 1
        state.kind = kind
        state.session = session
        if session is not None:
            self.session_kinds[session] = kind
        state.op_id = f"{threading.get_ident()}:{state.ops}"
        self._enter(state, f"op.{kind}")

    def end_op(self) -> None:
        state = self._state()
        self._exit(state, state.stack[-1], time.perf_counter(), f"op.{state.kind}")

    def _enter(self, state: _ThreadState, name: str) -> _Frame:
        frame = _Frame(name, state.next_index, time.perf_counter())
        state.next_index += 1
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: _Frame, end: float, qualname: str) -> float:
        state.stack.pop()
        duration = end - frame.start
        totals = state.totals[(state.kind, frame.name)]
        totals[0] += 1
        totals[1] += duration - frame.child
        totals[2] += duration
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent.child += duration
            state.children[(parent.name, qualname)] += 1
        if len(state.spans) < SPAN_CAP:
            parent_index = parent.index if parent is not None else -1
            span = (state.op_id, frame.name, frame.start, end, frame.index, parent_index)
            state.spans.append(span)
        else:
            state.dropped += 1
        return duration

    # -- installing and removing wrappers --------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in layer_points():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, f"{_owner_name(owner)}.{attr}"))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, func: Callable, name: str, qualname: str) -> Callable:
        hook = _HOOKS.get(qualname)
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            saved = (state.kind, state.op_id)
            try:
                if hook is not None:
                    hook.before(tracer, state, args)
                frame = tracer._enter(state, name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    duration = tracer._exit(state, frame, time.perf_counter(), qualname)
                if hook is not None:
                    hook.after(tracer, state, args, result, duration)
                return result
            finally:
                state.kind, state.op_id = saved

        return traced

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], list[float]]:
        merged: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for state in self._states:
            for key, (calls, self_s, total_s) in state.totals.items():
                entry = merged[key]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
        return merged

    def children(self) -> dict[tuple[str, str], int]:
        merged: dict[tuple[str, str], int] = defaultdict(int)
        for state in self._states:
            for key, calls in state.children.items():
                merged[key] += calls
        return merged

    def encoded_bytes(self) -> int:
        return sum(state.encoded_bytes for state in self._states)

    def waits(self) -> list[float]:
        """Client request time minus server handle time, per joined request."""
        handled: dict[tuple[str, int], float] = {}
        for state in self._states:
            handled.update(state.handled)
        waits = []
        for state in self._states:
            for key, seconds in state.requests.items():
                if key in handled:
                    waits.append(seconds - handled[key])
        return waits

    def write_spans(self, path: str) -> tuple[int, int]:
        """Write every kept span as one tab-separated line; returns
        ``(spans written, spans dropped over the cap)``."""
        written = dropped = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("thread\top_id\tname\tstart_s\tend_s\tindex\tparent\n")
            for number, state in enumerate(self._states):
                for op_id, name, start, end, index, parent in state.spans:
                    fields = (number, op_id, name, f"{start:.9f}", f"{end:.9f}", index, parent)
                    out.write("\t".join(map(str, fields)) + "\n")
                written += len(state.spans)
                dropped += state.dropped
        return written, dropped


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


class _Hook:
    """Extra bookkeeping around one wrapped function."""

    def before(self, tracer: Tracer, state: _ThreadState, args: tuple) -> None:
        pass

    def after(
        self, tracer: Tracer, state: _ThreadState, args: tuple, result: Any, duration: float
    ) -> None:
        pass


class _HandleHook(_Hook):
    """``Session.handle``: bill the span to the client's operation kind and
    remember its duration under (session, correlation id)."""

    def before(self, tracer: Tracer, state: _ThreadState, args: tuple) -> None:
        session, request = args[0], args[1]
        kind = tracer.session_kinds.get(session.name)
        if kind is not None:
            state.kind = kind
            state.op_id = f"{session.name}#{protocol.correlation_of(request)}"

    def after(
        self, tracer: Tracer, state: _ThreadState, args: tuple, result: Any, duration: float
    ) -> None:
        correlation = protocol.correlation_of(args[1])
        if correlation is not None:
            state.handled[(args[0].name, correlation)] = duration


class _RequestHook(_Hook):
    """``SocketTransport.request``: remember the client-side duration under
    the session of the operation this thread is running."""

    def after(
        self, tracer: Tracer, state: _ThreadState, args: tuple, result: Any, duration: float
    ) -> None:
        correlation = protocol.correlation_of(args[1])
        if state.session is not None and correlation is not None:
            state.requests[(state.session, correlation)] = duration


class _EncodeHook(_Hook):
    def after(
        self, tracer: Tracer, state: _ThreadState, args: tuple, result: Any, duration: float
    ) -> None:
        state.encoded_bytes += len(result)


_HOOKS: dict[str, _Hook] = {
    "Session.handle": _HandleHook(),
    "SocketTransport.request": _RequestHook(),
    "repro.serve.protocol.encode": _EncodeHook(),
}


#: Per-layer metrics of the traced pass and their units.  ``/op`` figures
#: are totals over the traced phase divided by the operations it ran.
PER_LAYER_UNITS = {
    "storage.fix.calls": "calls/op",
    "storage.fix.self_ms": "ms/op",
    "storage.hit_ratio": "ratio",
    "storage.evictions": "count/op",
    "storage.disk.read.calls": "calls/op",
    "storage.disk.read.self_ms": "ms/op",
    "storage.disk.write.calls": "calls/op",
    "storage.disk.write.self_ms": "ms/op",
    "access.decode.calls": "calls/op",
    "access.decode.self_ms": "ms/op",
    "access.decode.set_share": "ratio",
    "access.decodes_per_atom": "ratio",
    "access.get.calls": "calls/op",
    "access.get.self_ms": "ms/op",
    "access.find_by_key.self_ms": "ms/op",
    "access.scan.self_ms": "ms/op",
    "access.write.self_ms": "ms/op",
    "mql.parse.calls": "calls/op",
    "mql.parse.self_ms": "ms/op",
    "data.prepare.calls": "calls/op",
    "data.prepare.self_ms": "ms/op",
    "data.plan_cache.hit_ratio": "ratio",
    "data.open.self_ms": "ms/op",
    "data.construct.calls": "calls/op",
    "data.construct.self_ms": "ms/op",
    "data.pipeline.self_ms": "ms/op",
    "data.rows_per_result": "ratio",
    "serve.handle.calls": "calls/op",
    "serve.handle.self_ms": "ms/op",
    "serve.encode.calls": "calls/op",
    "serve.encode.bytes": "bytes/op",
    "serve.encode.self_ms": "ms/op",
    "serve.decode.calls": "calls/op",
    "serve.decode.self_ms": "ms/op",
    "serve.wait_ms": "ms",
    "txn.rwlock.wait_ms": "ms/op",
    "shard.open.self_ms": "ms/op",
    "shard.engines_per_query": "ratio",
    "shard.routed_ratio": "ratio",
    "shard.bounds_pushed": "count/op",
    "obs.trace_overhead_ratio": "ratio",
}

#: Program counters (``io_report()``) read around the traced phase.
COUNTERS = (
    "fixes",
    "hits",
    "evictions",
    "atoms_read",
    "snapshot_version_reads",
    "scan_rows_delivered",
    "plan_cache_hits",
    "plan_cache_template_hits",
    "cluster_prepared_hits",
    "plan_cache_misses",
    "routed_queries",
    "scatter_queries",
    "shard_bounds_pushed",
)


def counter_snapshot(report: dict[str, Any]) -> dict[str, int]:
    return {name: report.get(name, 0) for name in COUNTERS}


def traced_measure(
    workload: Any, env: Any, inputs: Any, seconds: float, slice_s: float = TRACE_SLICE
) -> tuple[Tracer, Recorder, Recorder, dict[str, int]]:
    """Measure for ``seconds`` in alternating untraced and traced slices,
    so both sides of ``obs.trace_overhead_ratio`` come from the same
    stretch of time.  The wrappers are installed for each traced slice
    only.  Returns the tracer, the traced and untraced recorders, and the
    change of :data:`COUNTERS` summed over the traced slices."""
    tracer = Tracer()
    speed = HostSpeed()
    traced, untraced = Recorder(tracer, speed), Recorder(speed=speed)
    delta = dict.fromkeys(COUNTERS, 0)
    deadline = time.perf_counter() + seconds
    tracing = False
    while time.perf_counter() < deadline:
        if not tracing:
            more = workload.measure(env, inputs, untraced, slice_s)
        else:
            before = counter_snapshot(env.db.io_report())
            tracer.install()
            try:
                more = workload.measure(env, inputs, traced, slice_s)
            finally:
                tracer.uninstall()
            after = counter_snapshot(env.db.io_report())
            for key in COUNTERS:
                delta[key] += after[key] - before[key]
        if not more:
            break
        tracing = not tracing
    return tracer, traced, untraced, delta


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_checks(tracer: Tracer, delta: dict[str, int]) -> list[str]:
    """Traced call counts against the program's own counters; returns
    the mismatches (empty when every pair agrees)."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return sum(entry[0] for (_kind, span), entry in totals.items() if span == name)

    pairs = {
        "storage.fix calls vs fixes": (calls("storage.fix"), delta["fixes"]),
        "access.get calls vs atoms_read - snapshot_version_reads": (
            calls("access.get"),
            delta["atoms_read"] - delta["snapshot_version_reads"],
        ),
    }
    return [
        f"{label}: {traced} != {counted}"
        for label, (traced, counted) in pairs.items()
        if traced != counted
    ]


def per_layer(
    tracer: Tracer, traced: Any, untraced: Any, delta: dict[str, int]
) -> dict[str, float]:
    """Every per-layer metric of one traced phase.

    ``traced`` / ``untraced`` are the recorders of the traced phase and of
    the untraced phase run just before it; ``delta`` is the change of
    :data:`COUNTERS` over the traced phase.
    """
    totals = tracer.totals()
    children = tracer.children()
    ops = max(traced.attempted, 1)
    #: Span times are scaled to the nominal host speed by the phase's factor.
    scale = traced.speed.run_factor() if traced.speed is not None else 1.0

    def calls(name: str) -> float:
        return sum(entry[0] for (_kind, span), entry in totals.items() if span == name)

    def self_ms(*names: str, kind: str | None = None) -> float:
        return 1000.0 * scale * sum(
            entry[1]
            for (op_kind, span), entry in totals.items()
            if span in names and (kind is None or op_kind == kind)
        )

    def total_ms(name: str) -> float:
        return 1000.0 * scale * sum(
            entry[2] for (_kind, span), entry in totals.items() if span == name
        )

    cache_hits = (
        delta["plan_cache_hits"]
        + delta["plan_cache_template_hits"]
        + delta["cluster_prepared_hits"]
    )
    routed = delta["routed_queries"]
    waits = tracer.waits()
    ratios = [
        traced.ms(kind, 50) / untraced.ms(kind, 50)
        for kind in sorted(traced.samples)
        if traced.samples[kind] and untraced.samples.get(kind)
    ]
    overhead = 1.0
    for ratio in ratios:
        overhead *= ratio
    engine_opens = children[("shard.open", "DataSystem.open_snapshot")]
    return {
        "storage.fix.calls": calls("storage.fix") / ops,
        "storage.fix.self_ms": self_ms("storage.fix", "storage.fix_new") / ops,
        "storage.hit_ratio": _ratio(delta["hits"], delta["fixes"]),
        "storage.evictions": delta["evictions"] / ops,
        "storage.disk.read.calls": calls("storage.disk.read") / ops,
        "storage.disk.read.self_ms": self_ms("storage.disk.read") / ops,
        "storage.disk.write.calls": calls("storage.disk.write") / ops,
        "storage.disk.write.self_ms": self_ms("storage.disk.write") / ops,
        "access.decode.calls": calls("access.decode") / ops,
        "access.decode.self_ms": self_ms("access.decode") / ops,
        "access.decode.set_share": _ratio(
            self_ms("access.decode", kind="set"), 1000.0 * sum(traced.scaled("set"))
        ),
        "access.decodes_per_atom": _ratio(calls("access.decode"), traced.atoms),
        "access.get.calls": calls("access.get") / ops,
        "access.get.self_ms": self_ms("access.get") / ops,
        "access.find_by_key.self_ms": self_ms("access.find_by_key") / ops,
        "access.scan.self_ms": self_ms("access.scan") / ops,
        "access.write.self_ms": self_ms("access.write") / ops,
        "mql.parse.calls": calls("mql.parse") / ops,
        "mql.parse.self_ms": self_ms("mql.parse") / ops,
        "data.prepare.calls": calls("data.prepare") / ops,
        "data.prepare.self_ms": self_ms("data.prepare") / ops,
        "data.plan_cache.hit_ratio": _ratio(cache_hits, cache_hits + delta["plan_cache_misses"]),
        "data.open.self_ms": self_ms("data.open") / ops,
        "data.construct.calls": calls("data.construct") / ops,
        "data.construct.self_ms": self_ms("data.construct") / ops,
        "data.pipeline.self_ms": self_ms("data.pipeline") / ops,
        "data.rows_per_result": _ratio(delta["scan_rows_delivered"], traced.molecules),
        "serve.handle.calls": calls("serve.handle") / ops,
        "serve.handle.self_ms": self_ms("serve.handle") / ops,
        "serve.encode.calls": calls("serve.encode") / ops,
        "serve.encode.bytes": tracer.encoded_bytes() / ops,
        "serve.encode.self_ms": self_ms("serve.encode") / ops,
        "serve.decode.calls": calls("serve.decode") / ops,
        "serve.decode.self_ms": self_ms("serve.decode") / ops,
        "serve.wait_ms": 1000.0 * scale * sum(waits) / len(waits) if waits else 0.0,
        "txn.rwlock.wait_ms": total_ms("txn.rwlock") / ops,
        "shard.open.self_ms": self_ms("shard.open") / ops,
        "shard.engines_per_query": _ratio(engine_opens, calls("shard.open")),
        "shard.routed_ratio": _ratio(routed, routed + delta["scatter_queries"]),
        "shard.bounds_pushed": delta["shard_bounds_pushed"] / ops,
        "obs.trace_overhead_ratio": overhead ** (1.0 / len(ratios)) if ratios else 0.0,
    }
