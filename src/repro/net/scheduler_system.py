"""The complete hardware WFQ scheduler of paper Fig. 1.

Three blocks in one data flow:

1. **WFQ tag computation** (ref. [8]) — the
   :class:`~repro.sched.virtual_time.VirtualClock` produces a finishing
   tag per arriving packet (eq. (1) machinery included);
2. **shared packet buffer** (ref. [9]) — packets are parked in
   :class:`~repro.net.buffer.SharedPacketBuffer` and only their pointers
   move through the scheduler;
3. **tag sort/retrieve circuit** — the
   :class:`~repro.net.hardware_store.HardwareTagStore` keeps (tag,
   pointer) pairs sorted so egress always pops the smallest tag's pointer
   in fixed time.

The class implements :class:`~repro.sched.base.PacketScheduler`, so the
same :func:`~repro.sched.base.simulate` loop that drives the software
policies drives the full hardware system — which is how the QoS
benchmarks compare hardware-quantized WFQ against exact WFQ, and how the
throughput benchmark converts circuit cycles into the paper's
packets-per-second and line-rate figures.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..hwsim.errors import ConfigurationError, ProtocolError
from ..sched.base import PacketScheduler
from ..sched.packet import Packet
from ..sched.virtual_time import VirtualClock
from .buffer import SharedPacketBuffer
from .hardware_store import HardwareTagStore
from ..core.engine import resolve_mode
from ..core.words import PAPER_FORMAT, WordFormat

#: Post-layout clock target: 35.8 Mpps at 4 cycles/operation (Section IV).
DEFAULT_CLOCK_HZ = 143.2e6


class HardwareWFQSystem(PacketScheduler):
    """WFQ tag computation + packet buffer + sort/retrieve circuit."""

    name = "hw_wfq"

    def __init__(
        self,
        rate_bps: float,
        *,
        fmt: WordFormat = PAPER_FORMAT,
        granularity: Optional[float] = None,
        buffer_capacity: int = 8192,
        clock_hz: float = DEFAULT_CLOCK_HZ,
        mode: Optional[str] = None,
        tracer=None,
    ) -> None:
        super().__init__(rate_bps)
        if clock_hz <= 0:
            raise ConfigurationError("clock frequency must be positive")
        self.clock_hz = clock_hz
        self.clock = VirtualClock(rate_bps)
        self.buffer = SharedPacketBuffer(buffer_capacity)
        self._fmt = fmt
        self._buffer_capacity = buffer_capacity
        self._explicit_granularity = granularity
        self._mode = resolve_mode(mode)
        self._tracer = tracer
        self._store: Optional[HardwareTagStore] = None
        self.dropped = 0

    #: packets of worst-case tag increment half the tag space must cover
    AUTO_GRANULARITY_HEADROOM = 128
    #: maximum packet size assumed by the auto granularity rule
    AUTO_GRANULARITY_MAX_BYTES = 1500

    @property
    def store(self) -> HardwareTagStore:
        """The sort/retrieve circuit adapter (created on first use).

        When no explicit ``granularity`` was given, the quantum is sized
        from the registered weights so that
        :data:`AUTO_GRANULARITY_HEADROOM` worst-case per-packet tag
        increments (a maximum-size packet on the lightest flow) fit in
        half the tag space — the sequence-number window the wrap logic
        needs.
        """
        if self._store is None:
            self._store = HardwareTagStore(
                fmt=self._fmt,
                granularity=self._resolve_granularity(),
                capacity=self._buffer_capacity,
                mode=self._mode,
                tracer=self._tracer,
            )
        return self._store

    def _resolve_granularity(self) -> float:
        """The tag quantum: explicit, or auto-sized from the flow table."""
        if self._explicit_granularity is not None:
            return self._explicit_granularity
        min_weight = min((flow.weight for flow in self.flows), default=1.0)
        worst_increment = self.AUTO_GRANULARITY_MAX_BYTES * 8 / min_weight
        half_space = self._fmt.capacity // 2
        return self.AUTO_GRANULARITY_HEADROOM * worst_increment / half_space

    def attach_tracer(self, tracer) -> None:
        """Trace the underlying store/circuit (applies on store creation
        too, so it can be called before the first enqueue)."""
        self._tracer = tracer
        if self._store is not None:
            self._store.attach_tracer(tracer)

    def detach_tracer(self) -> None:
        """Stop tracing the underlying store/circuit."""
        self._tracer = None
        if self._store is not None:
            self._store.detach_tracer()

    # ------------------------------------------------------------------
    # PacketScheduler interface

    def add_flow(self, flow_id: int, weight: float = 1.0, **kwargs) -> None:
        if self._store is not None and self._explicit_granularity is None:
            if self._store.operations > 0 or len(self._store) > 0:
                raise ConfigurationError(
                    f"cannot register flow {flow_id}: tags are already "
                    "live in the sort/retrieve circuit, so the frozen tag "
                    "quantum cannot be resized; register every flow before "
                    "the first enqueue, or pass an explicit granularity"
                )
            # The store was instantiated early (a `backlog` probe or an
            # enqueue-before-registration) with a quantum sized from an
            # incomplete flow table.  No tag has passed through it yet,
            # so drop it and let the next access re-derive the auto
            # granularity from the full weight set.
            self._store = None
        super().add_flow(flow_id, weight, **kwargs)
        self.clock.register(flow_id, weight)

    def set_flow_weight(
        self,
        flow_id: int,
        weight: float,
        *,
        guaranteed_rate_bps: Optional[float] = None,
    ) -> None:
        """Renegotiate a live flow's weight.

        Requires an explicit ``granularity`` once tags are live: the
        quantum is frozen with the circuit, so an auto-sized quantum
        derived from the old weight set cannot be trusted to cover a
        renegotiated (possibly lighter) flow's tag increments.
        """
        if (
            self._explicit_granularity is None
            and self._store is not None
            and (self._store.operations > 0 or len(self._store) > 0)
        ):
            raise ConfigurationError(
                f"cannot renegotiate flow {flow_id}: the auto-sized tag "
                "quantum is frozen while tags are live; construct the "
                "system with an explicit granularity to allow live "
                "weight changes"
            )
        super().set_flow_weight(
            flow_id, weight, guaranteed_rate_bps=guaranteed_rate_bps
        )
        self.clock.register(flow_id, weight)

    @property
    def backlog(self) -> int:
        return len(self.store)

    def enqueue(self, packet: Packet, now: float) -> Optional[int]:
        """Admit one arrival; returns its cancel handle (None if dropped).

        The handle is the sort/retrieve circuit's storage address and
        stays valid until the packet is served, cancelled, or repinned.
        """
        tags = self.clock.on_arrival(packet.flow_id, packet.size_bits, now)
        packet.start_tag = tags.start_tag
        packet.finish_tag = tags.finish_tag
        pointer = self.buffer.try_store(packet)
        if pointer is None:
            self.dropped += 1
            return None
        try:
            return self.store.push(tags.finish_tag, pointer)
        except ProtocolError:
            # The circuit refused the tag (span guard): release the
            # buffer slot so a rejected admission cannot leak storage,
            # and take the arrival back so the flow keeps its service
            # position.
            self.buffer.fetch(pointer)
            self.clock.undo_arrival()
            raise

    def select_next(self, now: float) -> Optional[Packet]:
        if len(self.store) == 0:
            return None
        self.clock.advance_to(now)
        _, pointer = self.store.pop_min()
        return self.buffer.fetch(pointer)

    # ------------------------------------------------------------------
    # dynamic updates

    def cancel(self, handle: int) -> Packet:
        """Withdraw a queued packet by its :meth:`enqueue` handle.

        The (tag, pointer) pair is unlinked from the sort/retrieve
        circuit in place — the rest of the schedule is untouched — and
        the packet's buffer slot is released.  Returns the withdrawn
        packet.  A stale handle (already served or cancelled) raises
        :class:`~repro.hwsim.errors.ProtocolError`.
        """
        _, pointer = self.store.remove(handle)
        return self.buffer.fetch(pointer)

    def reschedule(self, handle: int, new_finish_tag: float) -> int:
        """Move a queued packet to a new finishing tag (repin).

        The packet stays parked in the buffer; only its (tag, pointer)
        pair moves inside the circuit, under the same quantization and
        wrap discipline as a fresh enqueue.  Returns the new handle.
        """
        new_handle = self.store.retag(handle, new_finish_tag)
        pointer = self.store.circuit.handle_payload(new_handle)[1]
        packet = self.buffer.peek(pointer)
        if packet is not None:
            packet.finish_tag = new_finish_tag
        return new_handle

    # ------------------------------------------------------------------
    # batched soak paths

    def enqueue_batch(self, packets: Iterable[Packet]) -> int:
        """Accept a run of arrivals in one amortized store operation.

        Tag computation stays per-packet (the virtual clock is a serial
        recurrence), but the quantize/wrap/insert work lands in a single
        :meth:`HardwareTagStore.push_batch`.  Service order matches
        per-packet :meth:`enqueue` calls.  Returns how many packets were
        admitted (the rest incremented :attr:`dropped`).
        """
        pushes = []
        for packet in packets:
            tags = self.clock.on_arrival(
                packet.flow_id, packet.size_bits, packet.arrival_time
            )
            packet.start_tag = tags.start_tag
            packet.finish_tag = tags.finish_tag
            pointer = self.buffer.try_store(packet)
            if pointer is None:
                self.dropped += 1
                continue
            pushes.append((tags.finish_tag, pointer))
        self.store.push_batch(pushes)
        return len(pushes)

    def select_batch(self, count: int, now: float) -> List[Packet]:
        """Serve up to ``count`` packets in one amortized store operation."""
        available = min(count, len(self.store))
        if available <= 0:
            return []
        self.clock.advance_to(now)
        pairs = self.store.pop_batch(available)
        return [self.buffer.fetch(pointer) for _, pointer in pairs]

    # ------------------------------------------------------------------
    # throughput model (Section IV)

    @property
    def circuit_busy_seconds(self) -> float:
        """Wall-clock time the circuit spent at ``clock_hz``."""
        return self.store.cycles / self.clock_hz

    def sustained_packets_per_second(self) -> float:
        """One operation per four cycles: the paper's 35.8 Mpps figure."""
        return self.clock_hz / 4.0

    def sustained_line_rate_bps(self, mean_packet_bytes: float) -> float:
        """Line speed supported at a given mean packet size (40 Gb/s at
        the paper's conservative 140-byte average)."""
        if mean_packet_bytes <= 0:
            raise ConfigurationError("mean packet size must be positive")
        return self.sustained_packets_per_second() * mean_packet_bytes * 8

    # ------------------------------------------------------------------
    # checkpoint / restore (service-plane snapshots)

    def to_state(self) -> dict:
        """Exact serializable snapshot of the whole scheduler system.

        Covers the GPS reference clock, the shared packet buffer (with
        parked packets), the sort/retrieve circuit (or fabric) state and
        the flow table — everything needed for a restored system to
        continue event-for-event identical service.
        """
        return {
            "kind": "hw_wfq_system",
            "rate_bps": self.rate_bps,
            "clock": self.clock.to_state(),
            "buffer": self.buffer.to_state(),
            "store": self.store.to_state(),
            "flows": [
                {
                    "flow_id": flow.flow_id,
                    "weight": flow.weight,
                    "guaranteed_rate_bps": flow.guaranteed_rate_bps,
                    "last_finish_tag": flow.last_finish_tag,
                }
                for flow in self.flows
            ],
            "dropped": self.dropped,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance.

        The instance must have been constructed with the same link rate
        and store configuration (format, granularity, capacity) as the
        one that was snapshotted; the store's own ``load_state``
        validates its half of that contract.
        """
        if state.get("kind") != "hw_wfq_system":
            raise ConfigurationError(
                f"not a scheduler system snapshot: kind={state.get('kind')!r}"
            )
        if state["rate_bps"] != self.rate_bps:
            raise ConfigurationError(
                f"snapshot link rate {state['rate_bps']} != {self.rate_bps}"
            )
        for record in state["flows"]:
            flow_id = int(record["flow_id"])
            if flow_id in self.flows:
                flow = self.flows.set_weight(
                    flow_id,
                    record["weight"],
                    guaranteed_rate_bps=record.get("guaranteed_rate_bps"),
                )
            else:
                flow = self.flows.add(
                    flow_id,
                    record["weight"],
                    guaranteed_rate_bps=record.get("guaranteed_rate_bps"),
                )
            flow.last_finish_tag = record.get("last_finish_tag", 0.0)
            self.clock.register(flow_id, record["weight"])
        self.clock.load_state(state["clock"])
        self.buffer.load_state(state["buffer"])
        self.store.load_state(state["store"])
        self.dropped = int(state.get("dropped", 0))
