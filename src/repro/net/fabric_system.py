"""The scale-out variant of the Fig. 1 system: a fabric behind the WFQ.

:class:`FabricSchedulerSystem` swaps the single sort/retrieve circuit of
:class:`~repro.net.scheduler_system.HardwareWFQSystem` for a
:class:`~repro.fabric.fabric.ScheduleFabric` of N circuits.  Everything
else — tag computation, shared packet buffer, the
:class:`~repro.sched.base.PacketScheduler` interface, the batched soak
paths — is inherited unchanged: only the enqueue paths are overridden,
because the fabric routes on the *flow id* (which the bare tag store
never needed) and carries the buffer pointer as opaque payload.

With ``shards=1`` the system is service-order identical to the parent
(the fabric's one shard is a plain :class:`HardwareTagStore`; the
tournament degenerates to a wire), which is the property the fabric
equivalence tests pin down.

Timing model: :attr:`circuit_busy_seconds` inherits the parent's
``store.cycles / clock_hz`` definition, and the fabric reports *makespan*
cycles (its shards are parallel hardware), so an N-way balanced fabric
shows ~N× the sustained enqueue throughput of one circuit — the number
the bench fabric phase checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..core.words import PAPER_FORMAT, WordFormat
from ..hwsim.errors import ConfigurationError, ProtocolError
from ..sched.packet import Packet
from .scheduler_system import DEFAULT_CLOCK_HZ, HardwareWFQSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fabric.fabric import ScheduleFabric
    from ..fabric.manager import FabricPolicy

#: Smallest per-shard circuit: keeps tiny buffer/shard ratios workable.
MIN_SHARD_CAPACITY = 64


class FabricSchedulerSystem(HardwareWFQSystem):
    """WFQ tag computation + packet buffer + sharded scheduling fabric."""

    name = "hw_wfq_fabric"

    def __init__(
        self,
        rate_bps: float,
        *,
        shards: int = 4,
        fmt: WordFormat = PAPER_FORMAT,
        granularity: Optional[float] = None,
        buffer_capacity: int = 8192,
        clock_hz: float = DEFAULT_CLOCK_HZ,
        mode: Optional[str] = None,
        partition_policy: str = "hash",
        flow_space: int = 1024,
        policy: Optional["FabricPolicy"] = None,
        tracer=None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("fabric system needs at least one shard")
        super().__init__(
            rate_bps,
            fmt=fmt,
            granularity=granularity,
            buffer_capacity=buffer_capacity,
            clock_hz=clock_hz,
            mode=mode,
            tracer=tracer,
        )
        self.shards = shards
        self._partition_policy = partition_policy
        self._flow_space = flow_space
        self._policy = policy

    @property
    def store(self) -> "ScheduleFabric":  # type: ignore[override]
        """The scheduling fabric (created on first use).

        Per-shard circuit capacity is the buffer's share per shard (with
        a small floor): the shards *together* cover the packet buffer,
        and skew beyond a shard's share is the spill mechanism's job.
        The auto-granularity rule is the parent's, unchanged — every
        shard quantizes against the same flow table.
        """
        if self._store is None:
            # Imported here, not at module top: repro.fabric itself pulls
            # in the net layer (its shards are HardwareTagStores), so an
            # eager import would be circular whichever package loads
            # first.
            from ..fabric.fabric import ScheduleFabric
            capacity = max(
                MIN_SHARD_CAPACITY, self._buffer_capacity // self.shards
            )
            fabric = ScheduleFabric(
                shards=self.shards,
                fmt=self._fmt,
                granularity=self._resolve_granularity(),
                capacity_per_shard=capacity,
                mode=self._mode,
                partition_policy=self._partition_policy,
                flow_space=self._flow_space,
                policy=self._policy,
                tracer=self._tracer,
            )
            self._store = fabric  # type: ignore[assignment]
        return self._store  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # enqueue paths (the fabric routes on flow id; pointer is payload)

    def enqueue(self, packet: Packet, now: float) -> Optional[int]:
        """Admit one arrival; returns its fabric cancel handle.

        The handle encodes the routed shard and the shard-local circuit
        address, and works with the inherited :meth:`cancel` and the
        fabric-aware :meth:`reschedule` until the packet is served.
        """
        flow_id = packet.flow_id
        start_tag, finish_tag = self.clock.on_arrival(
            flow_id, packet.size_bytes * 8, now
        )
        packet.start_tag = start_tag
        packet.finish_tag = finish_tag
        pointer = self.buffer.try_store(packet)
        if pointer is None:
            self.dropped += 1
            return None
        try:
            return self.store.push(finish_tag, flow_id, pointer)
        except ProtocolError:
            # Span-guard refusal: release the slot, keep the buffer's
            # occupancy accounting exact (no orphaned packets), and take
            # the arrival back so the flow keeps its service position.
            self.buffer.fetch(pointer)
            self.clock.undo_arrival()
            raise

    # cancel() is inherited: ScheduleFabric.remove matches the store
    # contract, handing back (finish_tag, pointer) for the buffer fetch.

    def add_relocation_listener(self, listener) -> None:
        """Subscribe to fabric handle relocations (backlog migration).

        Handle-holding layers above the system (timer wheels, service
        sessions) register here; see
        :meth:`~repro.fabric.fabric.ScheduleFabric.add_relocation_listener`.
        """
        self.store.add_relocation_listener(listener)

    def reschedule(self, handle: int, new_finish_tag: float) -> int:
        """Repin a queued packet on its shard; returns the new handle."""
        new_handle = self.store.retag(handle, new_finish_tag)
        shard, local = self.store.handle_location(new_handle)
        circuit = self.store.stores[shard].circuit
        _, (_flow_id, pointer) = circuit.handle_payload(local)
        packet = self.buffer.peek(pointer)
        if packet is not None:
            packet.finish_tag = new_finish_tag
        return new_handle

    def enqueue_batch(self, packets: Iterable[Packet]) -> int:
        """Batched arrivals; service order matches per-packet enqueues."""
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
            pushes.append((tags.finish_tag, packet.flow_id, pointer))
        self.store.push_batch(pushes)
        return len(pushes)

    # select_next / select_batch are inherited: the fabric's pop paths
    # return (finish_tag, pointer) exactly like the bare tag store.

    # ------------------------------------------------------------------
    # throughput model

    def sustained_packets_per_second(self) -> float:
        """Aggregate peak: N circuits each retiring one op per 4 cycles.

        Reached only when the partition keeps every shard busy; the
        bench fabric phase measures how close a hashed workload gets via
        makespan cycles.
        """
        return self.shards * self.clock_hz / 4.0
