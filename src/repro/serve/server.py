"""``python -m repro serve`` — the long-running WFQ scheduling server.

One process serves one link: an asyncio TCP front end speaking the
line-delimited JSON protocol, a :class:`ServeEngine` core owning the
full Fig. 1 system (tag computation + shared buffer + sharded
sort/retrieve fabric), and an optional paced drain loop that serves the
schedule at the configured line rate.

**Determinism.**  The data plane never reads the wall clock: arrivals
advance a *virtual* arrival clock at line rate (packet serialization
time per enqueue), so the schedule — tags, service order, marks — is a
pure function of the request stream.  That is what makes the lifecycle
guarantee provable: snapshot, restart, replay the remaining requests,
and the serve log continues event-for-event identically.

**Handles.**  The wire ``handle`` returned by ``enqueue`` is a stable
server-issued token, not the raw fabric handle: shard rebalancing may
physically migrate queued entries between circuits (changing their
fabric handles), and the engine's relocation-aware ledger absorbs that
— a client's handle survives migrations exactly like a timer token
survives a repin.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..core.engine import read_legacy_keys, resolve_mode
from ..core.words import PAPER_FORMAT, WordFormat
from ..hwsim.errors import ConfigurationError, ProtocolError
from ..net.admission import AdmissionController
from ..net.fabric_system import FabricSchedulerSystem
from ..net.session_table import SessionStateTable
from ..obs.harness import RunHarness, add_flags
from ..sched.packet import Packet
from . import lifecycle
from .backpressure import SCHEMES, BackpressureController
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolDecodeError,
    decode_line,
    encode,
    error_response,
    join_records,
    ok_response,
    validate_request,
)

#: packets of worst-case tag increment half the tag space must cover
#: (mirrors HardwareWFQSystem.AUTO_GRANULARITY_HEADROOM, but sized from
#: the admission *floor* instead of the registered flow table — a
#: long-running server admits flows after tags are live, so the quantum
#: must be frozen up front from the lightest *admissible* weight)
GRANULARITY_HEADROOM = 128
MAX_PACKET_BYTES = 1500
#: largest packet an ``enqueue`` accepts (bytes); the paced drain sizes
#: its calls by it
MAX_WIRE_PACKET_BYTES = 65535
#: longest request line the server reads (bytes, newline excluded) —
#: asyncio's default stream limit, passed explicitly so the error
#: response can name it
LINE_LIMIT = 2 ** 16


def derive_granularity(
    link_rate_bps: float,
    min_rate_bps: float,
    fmt: WordFormat = PAPER_FORMAT,
    *,
    headroom: int = GRANULARITY_HEADROOM,
    max_packet_bytes: int = MAX_PACKET_BYTES,
) -> float:
    """The tag quantum a server with an admission rate floor needs.

    The lightest admissible flow has weight ``min_rate / C`` and a
    worst-case per-packet tag increment of ``L_max / weight``;
    ``headroom`` such increments must fit in half the tag space (the
    wrap window), exactly like the offline auto-granularity rule.
    """
    if min_rate_bps <= 0 or link_rate_bps <= 0:
        raise ConfigurationError("rates must be positive")
    min_weight = min_rate_bps / link_rate_bps
    worst_increment = max_packet_bytes * 8 / min_weight
    return headroom * worst_increment / (fmt.capacity // 2)


@dataclass
class ServeConfig:
    """Everything one serving link is configured with.

    The scheduling fields (everything except the runtime block at the
    bottom) are frozen into snapshots; a restore adopts them from the
    snapshot so a restarted server cannot diverge from the state it is
    resuming.
    """

    link_rate_bps: float = 40e9
    shards: int = 4
    buffer_capacity: int = 8192
    table_capacity: int = 8192
    min_rate_bps: float = 1e6
    utilization_limit: float = 0.95
    mode: str = "turbo"
    scheme: str = "shared"
    mark_fraction: float = 0.65
    reject_fraction: float = 0.9
    per_queue_mark: int = 64
    # runtime (not scheduling-relevant; never validated against snapshots)
    host: str = "127.0.0.1"
    port: int = 0
    drain_mode: str = "manual"  # "manual" | "paced"
    pace_multiplier: float = 1.0
    snapshot_path: Optional[str] = None
    snapshot_interval_ops: int = 0
    serve_log: Optional[str] = None
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    live_interval: float = 0.5
    watchdog_timeout: Optional[float] = None
    trace_path: Optional[str] = None
    flight_path: Optional[str] = None

    #: the fields a snapshot freezes (cross-checked on restore)
    SCHEDULING_FIELDS = (
        "link_rate_bps",
        "shards",
        "buffer_capacity",
        "table_capacity",
        "min_rate_bps",
        "utilization_limit",
        "mode",
        "scheme",
        "mark_fraction",
        "reject_fraction",
        "per_queue_mark",
    )

    def __post_init__(self) -> None:
        self.mode = resolve_mode(self.mode)
        if self.drain_mode not in ("manual", "paced"):
            raise ConfigurationError(
                f"drain_mode must be 'manual' or 'paced', "
                f"got {self.drain_mode!r}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown marking scheme {self.scheme!r}")
        if self.pace_multiplier <= 0:
            raise ConfigurationError("pace_multiplier must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def adopt_scheduling_fields(self, recorded: Dict[str, Any]) -> None:
        """Take the snapshot's scheduling fields (restore path)."""
        mode, _ = read_legacy_keys(recorded, default_mode="turbo")
        for name in self.SCHEDULING_FIELDS:
            setattr(self, name, mode if name == "mode" else recorded[name])


class ServeEngine:
    """The synchronous service core: verbs in, responses out.

    All state mutation happens here, single-threaded (the asyncio loop
    serializes connections), so the engine is directly unit-testable
    without any networking.
    """

    def __init__(self, config: ServeConfig, *, tracer=None) -> None:
        self.config = config
        self.granularity = derive_granularity(
            config.link_rate_bps, config.min_rate_bps
        )
        self.system = FabricSchedulerSystem(
            config.link_rate_bps,
            shards=config.shards,
            granularity=self.granularity,
            buffer_capacity=config.buffer_capacity,
            mode=config.mode,
            tracer=tracer,
        )
        self.admission = AdmissionController(
            config.link_rate_bps,
            utilization_limit=config.utilization_limit,
            min_rate_bps=config.min_rate_bps,
        )
        self.table = SessionStateTable(config.table_capacity)
        from .sessions import SessionManager

        self.sessions = SessionManager(self.system, self.admission, self.table)
        self.backpressure = BackpressureController(
            self.system.buffer,
            scheme=config.scheme,
            mark_fraction=config.mark_fraction,
            reject_fraction=config.reject_fraction,
            per_queue_mark=config.per_queue_mark,
            flow_backlog=self._flow_backlog,
            weight_share=self._weight_share,
        )
        #: virtual arrival clock: advances by serialization time per
        #: enqueue — the data plane's only notion of time
        self.vnow = 0.0
        #: monotone serve-log sequence, continuing across restarts
        self.served_seq = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "enqueued": 0,
            "served": 0,
            "cancelled": 0,
            "rescheduled": 0,
            "backpressure_rejected": 0,
        }
        # The relocation-aware handle ledger (see module docstring).
        self.next_token = 0
        self.token_handles: Dict[int, int] = {}
        self.handle_tokens: Dict[int, int] = {}
        self.packet_tokens: Dict[int, int] = {}
        self.system.add_relocation_listener(self._apply_relocations)
        self.shutdown_requested = False
        self._serve_log = None
        self._dispatch = {
            "hello": self._op_hello,
            "open": self._op_open,
            "close": self._op_close,
            "enqueue": self._op_enqueue,
            "cancel": self._op_cancel,
            "reschedule": self._op_reschedule,
            "drain": self._op_drain,
            "stats": self._op_stats,
            "snapshot": self._op_snapshot,
            "shutdown": self._op_shutdown,
        }
        #: verbs that mutate schedule state (drive the snapshot cadence)
        self.MUTATING = frozenset(
            ("open", "close", "enqueue", "cancel", "reschedule", "drain")
        )

    # ------------------------------------------------------------------
    # accessors the backpressure controller uses

    def _flow_backlog(self, flow_id: int) -> int:
        return self.system.store.flow_backlog(flow_id)

    def _weight_share(self, flow_id: int) -> float:
        """The flow's share of committed guaranteed rate (O(1))."""
        sla = self.admission.admitted_slas().get(flow_id)
        if sla is None:  # pragma: no cover - sessions gate enqueues
            return 0.0
        committed = self.admission.committed_rate_bps
        if committed <= 0:
            return 1.0
        return sla.guaranteed_rate_bps / committed

    # ------------------------------------------------------------------
    # handle ledger

    def _apply_relocations(self, relocations: Dict[int, int]) -> None:
        """Follow migrated fabric handles; tokens stay stable.

        Two-phase (pop everything, then reinsert): a migration's
        put-back path can reuse a just-freed address, so an in-place
        walk could overwrite a mapping before it was read.
        """
        moved = []
        for old, new in relocations.items():
            token = self.handle_tokens.pop(old, None)
            if token is not None:
                moved.append((new, token))
        for new, token in moved:
            self.handle_tokens[new] = token
            self.token_handles[token] = new

    # ------------------------------------------------------------------
    # the drain path (shared by the verb and the paced loop)

    def drain(self, count: int) -> List[Dict[str, Any]]:
        """Serve up to ``count`` packets in schedule order."""
        available = min(count, len(self.system.store))
        if available <= 0:
            return []
        packets = self.system.select_batch(available, self.vnow)
        # A served packet retires its wire token, and with it the
        # fabric handle the token maps to.
        packet_tokens = self.packet_tokens
        token_handles = self.token_handles
        handle_tokens = self.handle_tokens
        session_of = self.sessions.session
        seq = self.served_seq
        records = []
        for packet in packets:
            token = packet_tokens.pop(packet.packet_id, None)
            if token is not None:
                handle = token_handles.pop(token, None)
                if handle is not None:
                    handle_tokens.pop(handle, None)
            flow_id = packet.flow_id
            session = session_of(flow_id)
            if session is not None:
                session.served += 1
            records.append(
                {
                    "seq": seq,
                    "flow": flow_id,
                    "tag": packet.finish_tag,
                    "size": packet.size_bytes,
                }
            )
            seq += 1
        self.served_seq = seq
        self.counters["served"] += len(records)
        self._log_served(records)
        return records

    def _log_served(self, records: List[Dict[str, Any]]) -> None:
        if not records or self.config.serve_log is None:
            return
        if self._serve_log is None:
            self._serve_log = open(
                self.config.serve_log, "a", encoding="utf-8"
            )
        self._serve_log.write(join_records(records, "\n") + "\n")
        self._serve_log.flush()

    # ------------------------------------------------------------------
    # verb handlers

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            request,
            server="repro-serve",
            protocol=PROTOCOL_VERSION,
            link_rate_bps=self.config.link_rate_bps,
            shards=self.config.shards,
            scheme=self.config.scheme,
            granularity=self.granularity,
        )

    def _op_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        decision = self.sessions.open(
            request["tenant"],
            request["flow"],
            request["rate_bps"],
            burst_bits=request.get("burst_bits", 0.0),
            max_packet_bytes=request.get("max_packet_bytes", 1500),
            delay_target_s=request.get("delay_target_s"),
        )
        if not decision.admitted:
            return error_response(request, decision.reason, admitted=False)
        return ok_response(
            request,
            admitted=True,
            weight=decision.weight,
            delay_bound_s=decision.offered_delay_s,
        )

    def _op_close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        flow = request["flow"]
        try:
            session = self.sessions.close(
                flow, backlog=self._flow_backlog(flow)
            )
        except ConfigurationError as exc:
            return error_response(request, str(exc))
        return ok_response(
            request,
            flow=flow,
            enqueued=session.enqueued,
            served=session.served,
            cancelled=session.cancelled,
        )

    def _op_enqueue(self, request: Dict[str, Any]) -> Dict[str, Any]:
        flow = request["flow"]
        size = request["size"]
        if size < 1 or size > MAX_WIRE_PACKET_BYTES:
            return error_response(
                request,
                f"packet size {size} outside "
                f"[1, {MAX_WIRE_PACKET_BYTES}] bytes",
            )
        session = self.sessions.session(flow)
        if session is None:
            return error_response(
                request, f"flow {flow} has no open session (open it first)"
            )
        decision = self.backpressure.decide(flow)
        if not decision.accept:
            self.counters["backpressure_rejected"] += 1
            return error_response(request, decision.reason, ecn=True)
        vnow = self.vnow
        packet = Packet(flow, size, vnow)  # positional: no kwargs parse
        try:
            handle = self.system.enqueue(packet, vnow)
        except ProtocolError as exc:
            # Span-guard refusal: the flow is holding more than its
            # weight's burst allowance of the tag space.  The slot was
            # released and the clock took the arrival back; tell the
            # client to back off.
            return error_response(
                request, f"tag space exhausted for flow {flow}: {exc}"
            )
        self.vnow = vnow + size * 8 / self.config.link_rate_bps
        if handle is None:  # pragma: no cover - reject threshold gates this
            return error_response(request, "shared packet buffer is full")
        token = self.next_token
        self.next_token = token + 1
        self.token_handles[token] = handle
        self.handle_tokens[handle] = token
        self.packet_tokens[packet.packet_id] = token
        session.enqueued += 1
        self.counters["enqueued"] += 1
        response = {
            "ok": True,
            "handle": token,
            "tag": packet.finish_tag,
            "ecn": decision.mark,
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        token = request["handle"]
        handle = self.token_handles.pop(token, None)
        if handle is None:
            return error_response(
                request,
                f"handle {token} names no queued packet (already served, "
                "cancelled, or never issued)",
            )
        # Drop the ledger entries *before* touching the fabric: the
        # cancel can trigger a rebalance whose put-back path reuses the
        # freed address, and the relocation callback must not find the
        # dead mapping.
        self.handle_tokens.pop(handle, None)
        try:
            packet = self.system.cancel(handle)
        except ProtocolError as exc:  # pragma: no cover - ledger is sound
            return error_response(request, f"cancel failed: {exc}")
        self.packet_tokens.pop(packet.packet_id, None)
        session = self.sessions.session(packet.flow_id)
        if session is not None:
            session.cancelled += 1
        self.counters["cancelled"] += 1
        return ok_response(
            request, flow=packet.flow_id, tag=packet.finish_tag
        )

    def _op_reschedule(self, request: Dict[str, Any]) -> Dict[str, Any]:
        token = request["handle"]
        new_tag = request["tag"]
        handle = self.token_handles.get(token)
        if handle is None:
            return error_response(
                request, f"handle {token} names no queued packet"
            )
        self.token_handles.pop(token)
        self.handle_tokens.pop(handle, None)
        try:
            new_handle = self.system.reschedule(handle, new_tag)
        except ProtocolError as exc:
            # The repin window check rejected the new tag *before*
            # anything moved; the entry is still live under its old
            # handle.
            self.token_handles[token] = handle
            self.handle_tokens[handle] = token
            return error_response(request, f"reschedule rejected: {exc}")
        self.token_handles[token] = new_handle
        self.handle_tokens[new_handle] = token
        self.counters["rescheduled"] += 1
        return ok_response(request, handle=token, tag=new_tag)

    def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        count = request["count"]
        if count < 0:
            return error_response(request, "drain count must be >= 0")
        served = self.drain(count)
        return ok_response(request, served=served, backlog=len(self.system.store))

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(request, stats=self.stats())

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.config.snapshot_path is None:
            return error_response(
                request, "server was started without --snapshot"
            )
        path = self.snapshot()
        return ok_response(request, path=path, seq=self.served_seq)

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.shutdown_requested = True
        return ok_response(request, seq=self.served_seq)

    # ------------------------------------------------------------------
    # dispatch

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and execute one decoded request."""
        self.counters["requests"] += 1
        reason = validate_request(request)
        if reason is not None:
            self.counters["errors"] += 1
            return error_response(request, reason)
        return self._dispatch[request["op"]](request)

    # ------------------------------------------------------------------
    # operations

    def stats(self) -> Dict[str, Any]:
        fabric = self.system.store
        return {
            "vnow": self.vnow,
            "served_seq": self.served_seq,
            "counters": dict(self.counters),
            "sessions": {
                "open": self.sessions.count,
                "opened": self.sessions.opened,
                "closed": self.sessions.closed,
                "rejected": self.sessions.rejected,
                "tenants": self.sessions.tenant_counts(),
            },
            "admission": {
                "committed_rate_bps": self.admission.committed_rate_bps,
                "available_rate_bps": self.admission.available_rate_bps,
                "admitted": self.admission.admitted_count,
            },
            "buffer": {
                "occupancy": self.system.buffer.occupancy,
                "capacity": self.system.buffer.capacity,
                "high_watermark": self.system.buffer.high_watermark,
                "drops": self.system.buffer.drop_count,
            },
            "backpressure": self.backpressure.describe(),
            "fabric": {
                "backlog": len(fabric),
                "occupancies": fabric.occupancies(),
                "pushes": fabric.pushes,
                "pops": fabric.pops,
                "cancels": fabric.cancels,
                "repins": fabric.repins,
                "spills": fabric.manager.spill_count,
                "rebalances": fabric.manager.rebalance_count,
                "flows_moved": fabric.manager.flows_moved,
                "entries_migrated": fabric.manager.entries_migrated,
            },
            "table": {
                "active": self.table.active_sessions,
                "evictions": self.table.evictions,
            },
        }

    def snapshot(self) -> str:
        """Write one exact snapshot; returns its path."""
        state = lifecycle.capture_state(self)
        lifecycle.write_snapshot(self.config.snapshot_path, state)
        return self.config.snapshot_path

    def restore(self, state: Dict[str, Any]) -> None:
        """Adopt a snapshot (engine must be freshly constructed)."""
        lifecycle.restore_state(self, state)

    def close(self) -> None:
        """Close the serve log, if one is open."""
        if self._serve_log is not None:
            self._serve_log.close()
            self._serve_log = None


#: the answer to a request line longer than LINE_LIMIT (it carries no
#: ``id``: the line was never parsed)
OVERSIZED_LINE_RESPONSE = {
    "ok": False,
    "reason": f"request line longer than {LINE_LIMIT} bytes",
}


async def _skip_rest_of_line(
    reader: asyncio.StreamReader, overrun: ValueError
) -> bool:
    """Discard the unread rest of an over-limit line; False at EOF.

    ``StreamReader.readline`` has already dropped the whole line when
    its newline was buffered ("Separator is found, ...").  Otherwise
    ("Separator is not found, ...") it dropped only the buffered part,
    and the rest of the line — itself possibly over the limit — is
    still to come.  ``readline`` keeps no other trace of which case
    hit, so the test reads asyncio's wording; a test in
    ``tests/serve/test_server.py`` pins that wording.
    """
    while "not found" in str(overrun):
        try:
            rest = await reader.readline()
        except ValueError as again:
            overrun = again
            continue
        return bool(rest)
    return True


class WfqServer:
    """The asyncio front end around one :class:`ServeEngine`."""

    def __init__(self, engine: ServeEngine) -> None:
        self.engine = engine
        self.config = engine.config
        self._server: Optional[asyncio.AbstractServer] = None
        # Created inside serve(): pre-3.10 asyncio primitives bind the
        # loop that exists at construction time, which may not be the
        # loop the server ends up running on.
        self._shutdown: Optional[asyncio.Event] = None
        self._shutdown_flag = False
        self._snapshot_policy = lifecycle.SnapshotPolicy(
            self.config.snapshot_interval_ops
        )
        self.port: Optional[int] = None
        self._harness: Optional[RunHarness] = None
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Graceful stop: triggered by SIGTERM/SIGINT or the verb."""
        self._shutdown_flag = True
        if self._shutdown is not None:
            self._shutdown.set()

    @property
    def _stopping(self) -> bool:
        return self._shutdown_flag

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except ValueError as overrun:
                    # Over LINE_LIMIT: one error answer per line, then
                    # skip whatever of it is still to come.
                    writer.write(encode(OVERSIZED_LINE_RESPONSE))
                    await writer.drain()
                    if not await _skip_rest_of_line(reader, overrun):
                        break
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = decode_line(line)
                except ProtocolDecodeError as exc:
                    writer.write(encode({"ok": False, "reason": str(exc)}))
                    await writer.drain()
                    continue
                response = self.engine.handle_request(request)
                writer.write(encode(response))
                await writer.drain()
                if request.get("op") in self.engine.MUTATING:
                    self._maybe_snapshot()
                if self.engine.shutdown_requested:
                    self.request_shutdown()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _maybe_snapshot(self) -> None:
        if (
            self.config.snapshot_path is not None
            and self._snapshot_policy.due()
        ):
            self.engine.snapshot()
            self._snapshot_policy.mark_taken()

    async def _paced_drain(self) -> None:
        """Serve the schedule at ``pace_multiplier ×`` line rate.

        A token-bucket pacer against the wall clock: every tick it
        serves what the elapsed time's bit budget covers.  Each drain
        call takes as many packets as the remaining budget pays for at
        the largest size an enqueue accepts (at least one), so a tick
        overdraws by at most one packet, and the overdraw is carried
        into the next tick as debt.  An idle schedule banks at most one
        tick of budget.  Pacing affects only *when* packets pop, never
        in what order — the schedule itself is wall-clock free.
        """
        rate = self.config.link_rate_bps * self.config.pace_multiplier
        max_packet_bits = MAX_WIRE_PACKET_BYTES * 8
        store = self.engine.system.store
        budget_bits = 0.0
        last = time.monotonic()
        while not self._stopping:
            await asyncio.sleep(0.005)
            now = time.monotonic()
            budget_bits += (now - last) * rate
            last = now
            while budget_bits > 0 and len(store):
                count = max(1, int(budget_bits // max_packet_bits))
                for record in self.engine.drain(count):
                    budget_bits -= record["size"] * 8
            if not len(store):
                budget_bits = min(budget_bits, rate * 0.005)

    # ------------------------------------------------------------------

    def _status(self) -> Dict[str, Any]:
        """The serve block of the live plane's ``/health``."""
        engine = self.engine
        return {
            "serve": {
                "sessions": engine.sessions.count,
                "served_seq": engine.served_seq,
                "enqueued": engine.counters["enqueued"],
                "backpressure": {
                    "marked": engine.backpressure.marked,
                    "rejected": engine.backpressure.rejected,
                },
                "buffer_high_watermark": engine.system.buffer.high_watermark,
                "vnow": engine.vnow,
            }
        }

    @property
    def metrics_port(self) -> Optional[int]:
        """The live plane's bound port (``None`` without ``metrics_port``)."""
        plane = self._harness.plane if self._harness is not None else None
        return plane.port if plane is not None else None

    @property
    def monitors_ok(self) -> bool:
        """Whether the attached invariant monitors are all clean."""
        return self._harness is None or not self._harness.failures()

    # ------------------------------------------------------------------

    async def serve(self) -> int:
        """Run until shutdown; returns the process exit status.

        With ``metrics_port`` the run harness traces the fabric through
        the invariant monitors (and the flight recorder, with
        ``flight_path``) and serves the live plane; the status is 1 when
        a monitor fired.
        """
        self._shutdown = asyncio.Event()
        if self._shutdown_flag:
            self._shutdown.set()
        fabric = self.engine.system.store
        self._harness = RunHarness(
            fabric,
            header=dict(
                seed=0,
                mode="per_op",
                config=fabric.stores[0].describe(),
                ops=0,
                purpose="serve",
                engine=self.config.mode,
            ),
            traced=self.config.metrics_port is not None,
            trace_sink=self.config.trace_path,
            monitor=True,
            flight_path=self.config.flight_path,
            serve_port=self.config.metrics_port,
            serve_host=self.config.metrics_host,
            live_interval=self.config.live_interval,
            watchdog_timeout=self.config.watchdog_timeout,
            extra_status=self._status,
        )
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-POSIX loop, or running off the main thread (tests
                # embed the server that way): signals are the embedding
                # process's business then.
                pass
        try:
            # The live plane starts once the port is bound, just before
            # the announce line.
            with self._harness:
                await self._serve_until_shutdown()
        finally:
            self.engine.close()
        return 0 if self.monitors_ok else 1

    async def _serve_until_shutdown(self) -> None:
        announce = {
            "listening": self.config.host,
            "port": self.port,
            "protocol": PROTOCOL_VERSION,
        }
        if self.metrics_port is not None:
            announce["metrics_port"] = self.metrics_port
        print(json.dumps(announce), flush=True)
        if self.config.drain_mode == "paced":
            self._drain_task = asyncio.ensure_future(self._paced_drain())
        try:
            await self._shutdown.wait()
        finally:
            if self._drain_task is not None:
                self._drain_task.cancel()
            self._server.close()
            await self._server.wait_closed()
            if self.config.snapshot_path is not None:
                self.engine.snapshot()


# ----------------------------------------------------------------------
# CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the WFQ scheduling server: line-delimited JSON over "
            "TCP in front of the tag-sorting fabric."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--rate", type=float, default=40e9, help="link rate, bits/s"
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--buffer", type=int, default=8192, help="shared buffer slots"
    )
    parser.add_argument(
        "--table", type=int, default=8192, help="session table records"
    )
    parser.add_argument(
        "--min-rate",
        type=float,
        default=1e6,
        help="admission rate floor, bits/s (sizes the tag quantum)",
    )
    parser.add_argument("--utilization", type=float, default=0.95)
    add_flags(parser, "--mode", mode={"default": "turbo"})
    parser.add_argument("--scheme", choices=SCHEMES, default="shared")
    parser.add_argument("--mark-fraction", type=float, default=0.65)
    parser.add_argument("--reject-fraction", type=float, default=0.9)
    parser.add_argument("--per-queue-mark", type=int, default=64)
    parser.add_argument(
        "--drain",
        choices=("manual", "paced"),
        default="manual",
        help="manual: clients drain; paced: serve at line rate",
    )
    parser.add_argument("--pace-multiplier", type=float, default=1.0)
    parser.add_argument(
        "--snapshot", metavar="FILE", help="snapshot path (enables lifecycle)"
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=0,
        metavar="OPS",
        help="also snapshot every N mutating ops (0: shutdown only)",
    )
    parser.add_argument(
        "--restore",
        metavar="FILE",
        help="restore this snapshot before serving",
    )
    parser.add_argument(
        "--serve-log", metavar="FILE", help="append served packets here"
    )
    parser.add_argument(
        "--metrics",
        type=int,
        metavar="PORT",
        help="attach the live plane (/metrics /health) on this port",
    )
    parser.add_argument("--metrics-host", default="127.0.0.1")
    add_flags(parser, "--live-interval", "--watchdog", "--trace", "--flight")
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        link_rate_bps=args.rate,
        shards=args.shards,
        buffer_capacity=args.buffer,
        table_capacity=args.table,
        min_rate_bps=args.min_rate,
        utilization_limit=args.utilization,
        mode=args.mode,
        scheme=args.scheme,
        mark_fraction=args.mark_fraction,
        reject_fraction=args.reject_fraction,
        per_queue_mark=args.per_queue_mark,
        host=args.host,
        port=args.port,
        drain_mode=args.drain,
        pace_multiplier=args.pace_multiplier,
        snapshot_path=args.snapshot,
        snapshot_interval_ops=args.snapshot_interval,
        serve_log=args.serve_log,
        metrics_port=args.metrics,
        metrics_host=args.metrics_host,
        live_interval=args.live_interval,
        watchdog_timeout=args.watchdog,
        trace_path=args.trace,
        flight_path=args.flight,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    state = None
    if args.restore:
        state = lifecycle.read_snapshot(args.restore)
        # The snapshot's scheduling fields win: a restored server must
        # resume exactly the system it snapshotted.
        config.adopt_scheduling_fields(state["config"])
    engine = ServeEngine(config)
    if state is not None:
        engine.restore(state)
    server = WfqServer(engine)
    try:
        return asyncio.run(server.serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
