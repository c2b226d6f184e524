"""Per-layer spans for the serve benchmark, recorded from outside the program.

Nothing under ``src/`` is instrumented.  A :class:`Patch` replaces the
public entry point of each layer (a module function, an instance method
or a class method) with a closure that records one span per call: name,
start, end, parent span and request id.  A layer's *self time* is its
span's duration minus the time of the spans nested in it, so the self
times of all spans add up to the time covered by top-level spans, and
the traced wall clock minus that is the unattributed rest.

Self times and call counts are summed as spans close, so memory stays
flat however long the run; the first KEEP_SPANS spans are
also kept whole and written out as JSONL at the end.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: layer names, in request order; a span named ``"<layer>.<call>"``
#: belongs to ``<layer>``
LAYERS = (
    "socket",
    "protocol",
    "server",
    "sessions",
    "backpressure",
    "sched",
    "buffer",
    "fabric",
    "engine",
    "lifecycle",
)

Target = Tuple[Any, str, str]

#: the span that starts each request: it advances the request id
REQUEST_SPAN = "protocol.decode"
#: spans that also sum ``len()`` of what the call returns
SIZED_SPANS = ("protocol.encode",)
#: spans kept whole for the JSONL dump; the rest are only summed
KEEP_SPANS = 20000


class Recorder:
    """Collects spans: running self-time sums plus the first KEEP_SPANS."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.sizes: Dict[str, int] = {}
        #: summed duration of spans with no parent
        self.top_s = 0.0
        self.spans: List[Optional[tuple]] = []
        #: id stamped on new spans, advanced by each REQUEST_SPAN; a
        #: socket read-wait span carries the id of the request before it
        self.request = 0
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    def start(self) -> None:
        self.started = perf_counter()

    def stop(self) -> None:
        if self.stack:
            raise RuntimeError(f"tracing stopped inside span {self.stack[-1][0]}")
        self.stopped = perf_counter()

    def open(self, name: str) -> list:
        stack = self.stack
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1][3] if stack else -1
        frame = [name, 0.0, 0.0, index, parent, self.request]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, index, parent, request = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if stack:
            stack[-1][2] += duration
        else:
            self.top_s += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, request)

    def add_size(self, name: str, size: int) -> None:
        self.sizes[name] = self.sizes.get(name, 0) + size

    def summary(self) -> Dict[str, Any]:
        """The sums every per-layer metric is computed from."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "sizes": dict(self.sizes),
            "top_s": self.top_s,
            "wall_s": self.stopped - self.started,
        }

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the summary (plus ``extra``) and the kept spans as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**self.summary(), **extra}) + "\n")
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, request = span
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def traced(recorder: Recorder, name: str, fn: Callable):
    """``fn`` wrapped in a span named ``name``."""
    open_span, close_span = recorder.open, recorder.close
    if name == REQUEST_SPAN:

        def wrapper(*args, **kwargs):
            recorder.request += 1
            frame = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)

    elif inspect.iscoroutinefunction(fn):

        async def wrapper(*args, **kwargs):
            frame = open_span(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                close_span(frame)

    elif name in SIZED_SPANS:

        def wrapper(*args, **kwargs):
            frame = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(frame)
            recorder.add_size(name, len(result))
            return result

    else:

        def wrapper(*args, **kwargs):
            frame = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)

    return wrapper


class Patch:
    """Installs span wrappers on targets and takes them off again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def apply(self, targets: List[Target]) -> None:
        for owner, attr, name in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original, own))
            setattr(owner, attr, traced(self.recorder, name, original))

    def undo(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _public_methods(obj) -> List[str]:
    cls = type(obj)
    return sorted(
        name
        for name in dir(cls)
        if not name.startswith("_")
        and callable(getattr(cls, name))
        and not isinstance(getattr(cls, name), (property, type))
    )


def engine_targets(engine, server_module) -> List[Target]:
    """Every layer entry point below the socket, except ``handle_request``.

    ``engine`` is a ``ServeEngine``; ``server_module`` is
    ``repro.serve.server``, whose module globals ``decode_line``,
    ``validate_request`` and ``encode`` are what the server calls.
    """
    system = engine.system
    fabric = system.store  # force the lazily built fabric before wrapping
    targets: List[Target] = [
        (server_module, "decode_line", "protocol.decode"),
        (server_module, "validate_request", "protocol.validate"),
        (server_module, "encode", "protocol.encode"),
        (engine, "snapshot", "lifecycle.snapshot"),
        (engine.backpressure, "decide", "backpressure.decide"),
        (system.clock, "on_arrival", "sched.on_arrival"),
        (system.clock, "advance_to", "sched.advance_to"),
    ]
    targets += [
        (engine.sessions, name, f"sessions.{name}")
        for name in _public_methods(engine.sessions)
    ]
    targets += [
        (system.buffer, name, f"buffer.{name}")
        for name in ("try_store", "fetch", "peek")
    ]
    targets += [
        (fabric, name, f"fabric.{name}")
        for name in ("push", "pop_batch", "remove", "retag")
    ]
    for store in fabric.stores:
        targets += [
            (store, name, f"engine.{name}")
            for name in ("push", "pop_min", "remove", "retag")
        ]
    return targets


def socket_targets() -> List[Target]:
    """The asyncio stream calls ``WfqServer`` makes per request."""
    return [
        (asyncio.StreamReader, "readline", "socket.readline"),
        (asyncio.StreamWriter, "write", "socket.write"),
        (asyncio.StreamWriter, "drain", "socket.drain"),
    ]


def layer_counters(engine) -> Dict[str, Any]:
    """Program counters read at the start and end of a traced phase."""
    fabric = engine.system.store
    backpressure = engine.backpressure
    return {
        "requests": engine.counters["requests"],
        "decisions": backpressure.accepted + backpressure.rejected,
        "marked": backpressure.marked,
        "rejected": backpressure.rejected,
        "buffer_high_watermark": engine.system.buffer.high_watermark,
        "rebalances": fabric.manager.rebalance_count,
        "entries_migrated": fabric.manager.entries_migrated,
        "spills": fabric.manager.spill_count,
        "fabric_ops": fabric.pushes + fabric.pops + fabric.cancels + fabric.repins,
        "shard_cycles": [store.cycles for store in fabric.stores],
        "shard_operations": [store.operations for store in fabric.stores],
    }


#: per-layer metric → unit
PER_LAYER_UNITS = {
    "socket.write_us": "us",
    "socket.read_wait_us": "us",
    "socket.drain_us": "us",
    "socket.share": "frac",
    "protocol.decode_us": "us",
    "protocol.validate_us": "us",
    "protocol.encode_us": "us",
    "protocol.resp_bytes": "bytes",
    "protocol.share": "frac",
    "server.self_us": "us",
    "server.share": "frac",
    "sessions.self_us": "us",
    "sessions.share": "frac",
    "backpressure.self_us": "us",
    "backpressure.marked_frac": "frac",
    "backpressure.rejected_frac": "frac",
    "backpressure.share": "frac",
    "sched.tag_us": "us",
    "sched.share": "frac",
    "buffer.self_us": "us",
    "buffer.high_watermark": "count",
    "buffer.share": "frac",
    "fabric.self_us": "us",
    "fabric.rebalances": "1/kreq",
    "fabric.entries_migrated": "1/kreq",
    "fabric.spills": "1/kreq",
    "fabric.modeled_makespan_cycles": "cycles/op",
    "fabric.share": "frac",
    "engine.push_us": "us",
    "engine.pop_us": "us",
    "engine.remove_us": "us",
    "engine.retag_us": "us",
    "engine.modeled_cycles_per_op": "cycles/op",
    "engine.share": "frac",
    "lifecycle.snapshot_ms": "ms",
    "lifecycle.snapshots": "1/kreq",
    "lifecycle.snapshot_kb": "KiB",
    "lifecycle.share": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_share": "frac",
}


def layer_self_s(summary: Dict[str, Any]) -> Dict[str, float]:
    """Self seconds per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in summary["self_s"].items():
        totals[name.split(".", 1)[0]] += seconds
    return totals


def layer_metrics(
    summary: Dict[str, Any], untraced_rps: float, traced_rps: float
) -> Dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``summary`` is :meth:`Recorder.summary` plus ``before``/``after``
    (:func:`layer_counters`) and ``snapshot_bytes``.  Modeled cycles are
    the circuit's cost model, reported beside the measured times.
    """
    calls, self_s = summary["calls"], summary["self_s"]
    wall = summary["wall_s"]
    before, after = summary["before"], summary["after"]

    def mean_us(*names: str) -> float:
        count = sum(calls.get(name, 0) for name in names)
        total = sum(self_s.get(name, 0.0) for name in names)
        return 1e6 * total / count if count else 0.0

    def layer_us(layer: str) -> float:
        return mean_us(*(name for name in calls if name.startswith(layer + ".")))

    def delta(key: str) -> float:
        return after[key] - before[key]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    kilo_requests = delta("requests") / 1000.0
    cycles = [b - a for a, b in zip(before["shard_cycles"], after["shard_cycles"])]
    operations = sum(after["shard_operations"]) - sum(before["shard_operations"])
    encodes = calls.get("protocol.encode", 0)
    metrics = {
        "socket.write_us": mean_us("socket.write"),
        "socket.read_wait_us": mean_us("socket.readline"),
        "socket.drain_us": mean_us("socket.drain"),
        "protocol.decode_us": mean_us("protocol.decode"),
        "protocol.validate_us": mean_us("protocol.validate"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "protocol.resp_bytes": ratio(summary["sizes"].get("protocol.encode", 0), encodes),
        "server.self_us": mean_us("server.handle_request"),
        "sessions.self_us": layer_us("sessions"),
        "backpressure.self_us": mean_us("backpressure.decide"),
        "backpressure.marked_frac": ratio(delta("marked"), delta("decisions")),
        "backpressure.rejected_frac": ratio(delta("rejected"), delta("decisions")),
        "sched.tag_us": layer_us("sched"),
        "buffer.self_us": layer_us("buffer"),
        "buffer.high_watermark": after["buffer_high_watermark"],
        "fabric.self_us": layer_us("fabric"),
        "fabric.rebalances": ratio(delta("rebalances"), kilo_requests),
        "fabric.entries_migrated": ratio(delta("entries_migrated"), kilo_requests),
        "fabric.spills": ratio(delta("spills"), kilo_requests),
        "fabric.modeled_makespan_cycles": ratio(max(cycles), delta("fabric_ops")),
        "engine.push_us": mean_us("engine.push"),
        "engine.pop_us": mean_us("engine.pop_min"),
        "engine.remove_us": mean_us("engine.remove"),
        "engine.retag_us": mean_us("engine.retag"),
        "engine.modeled_cycles_per_op": ratio(sum(cycles), operations),
        "lifecycle.snapshot_ms": mean_us("lifecycle.snapshot") / 1000.0,
        "lifecycle.snapshots": ratio(calls.get("lifecycle.snapshot", 0), kilo_requests),
        "lifecycle.snapshot_kb": summary["snapshot_bytes"] / 1024.0,
        "trace.overhead_frac": 1.0 - ratio(traced_rps, untraced_rps),
        "trace.unattributed_share": (wall - summary["top_s"]) / wall,
    }
    for layer, seconds in layer_self_s(summary).items():
        metrics[f"{layer}.share"] = seconds / wall
    return metrics
