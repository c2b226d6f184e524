"""The shared packet buffer of Fig. 1 — ref. [9].

Packets live in a shared memory pool; the scheduler passes *pointers*
around (they ride in the sort/retrieve circuit's linked-list payloads) and
the egress side redeems a pointer for the stored packet.  The paper's
buffer is a shared-memory gigabit-switch design; this model keeps its
essential properties — bounded capacity, pointer-based access, accounting
— over a Python free-list.

Occupancy is also the service plane's backpressure signal: the wfq.cc /
prio_wfq.cc exemplars mark ECN against buffer thresholds, and
:meth:`SharedPacketBuffer.mark_threshold` is the single source of truth
both the :mod:`repro.serve.backpressure` controller and the live plane
read, so a scraped gauge and a marking decision can never disagree about
where the threshold sits.
"""

from __future__ import annotations

from typing import List, Optional

from ..hwsim.errors import CapacityError, ConfigurationError
from ..hwsim.stats import AccessStats
from ..sched.packet import Packet


class SharedPacketBuffer:
    """Bounded pointer-addressed packet store."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be positive")
        self.capacity = capacity
        self.stats = AccessStats()
        self._slots: List[Optional[Packet]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self.peak_occupancy = 0
        self.drop_count = 0

    @property
    def occupancy(self) -> int:
        """Packets currently stored."""
        return self.capacity - len(self._free)

    @property
    def occupancy_fraction(self) -> float:
        """Fill level in [0, 1] — the backpressure controller's input."""
        return self.occupancy / self.capacity

    @property
    def high_watermark(self) -> int:
        """Highest occupancy ever reached (gauge for the live plane).

        Alias of :attr:`peak_occupancy` under the conventional gauge
        name; one number feeds both ``/metrics`` and capacity planning.
        """
        return self.peak_occupancy

    @property
    def is_full(self) -> bool:
        """True when no slot is free."""
        return not self._free

    def mark_threshold(self, fraction: float) -> int:
        """Occupancy (in packets) at which a ``fraction`` threshold arms.

        The ECN-style marking and rejection thresholds of the service
        plane are configured as fractions of capacity; this converts one
        to the integral occupancy the comparison runs against (at least
        1, so a threshold can never arm on an empty buffer).
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                "mark threshold fraction must be in (0, 1]"
            )
        return max(1, int(self.capacity * fraction))

    def store(self, packet: Packet) -> int:
        """Place a packet, returning its pointer (slot index).

        Raises :class:`~repro.hwsim.errors.CapacityError` when full; use
        :meth:`try_store` for drop-counting ingress behaviour.
        """
        if not self._free:
            raise CapacityError("shared packet buffer full")
        pointer = self._free.pop()
        self._slots[pointer] = packet
        self.stats.record_write()
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        return pointer

    def try_store(self, packet: Packet) -> Optional[int]:
        """Store if space allows; otherwise count the reject and return None.

        A rejected arrival is not silent: it increments
        :attr:`drop_count` *and* books the occupancy-check read in
        :attr:`stats` (the full test reads the free-list head register;
        an accepted store fuses that check into its write), so the
        access registry still accounts for every ingress decision.
        """
        free = self._free
        if not free:
            self.drop_count += 1
            self.stats.record_read()
            return None
        # The same bookkeeping as store(): one write, the peak kept.
        pointer = free.pop()
        self._slots[pointer] = packet
        self.stats.writes += 1
        occupancy = self.capacity - len(free)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return pointer

    def fetch(self, pointer: int) -> Packet:
        """Redeem a pointer: remove and return the packet."""
        if not 0 <= pointer < self.capacity:
            raise ConfigurationError(f"pointer {pointer} out of range")
        packet = self._slots[pointer]
        if packet is None:
            raise ConfigurationError(f"pointer {pointer} is not occupied")
        self._slots[pointer] = None
        self._free.append(pointer)
        self.stats.record_read()
        return packet

    def peek(self, pointer: int) -> Optional[Packet]:
        """Inspect a slot without freeing it (debug)."""
        if not 0 <= pointer < self.capacity:
            raise ConfigurationError(f"pointer {pointer} out of range")
        return self._slots[pointer]

    # ------------------------------------------------------------------
    # checkpoint / restore (service-plane snapshots)

    def to_state(self) -> dict:
        """Exact serializable snapshot: slots, free list, counters.

        Pointer identity is part of the scheduler's state (the circuit
        payloads hold slot indices), so the free list is serialized in
        order — a restored buffer hands out the same pointers in the
        same sequence.
        """
        return {
            "kind": "shared_packet_buffer",
            "capacity": self.capacity,
            "free": list(self._free),
            "slots": [
                [pointer, packet.to_dict()]
                for pointer, packet in enumerate(self._slots)
                if packet is not None
            ],
            "peak_occupancy": self.peak_occupancy,
            "drop_count": self.drop_count,
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "shared_packet_buffer":
            raise ConfigurationError(
                f"not a packet buffer snapshot: kind={state.get('kind')!r}"
            )
        if state["capacity"] != self.capacity:
            raise ConfigurationError(
                f"snapshot capacity {state['capacity']} != {self.capacity}"
            )
        self._slots = [None] * self.capacity
        for pointer, record in state["slots"]:
            self._slots[int(pointer)] = Packet.from_dict(record)
        self._free = [int(pointer) for pointer in state["free"]]
        self.peak_occupancy = state["peak_occupancy"]
        self.drop_count = state["drop_count"]
        stats = state.get("stats", {})
        self.stats = AccessStats(
            reads=int(stats.get("reads", 0)),
            writes=int(stats.get("writes", 0)),
        )

    @classmethod
    def from_state(cls, state: dict) -> "SharedPacketBuffer":
        """Reconstruct a buffer from a :meth:`to_state` snapshot."""
        buffer = cls(state["capacity"])
        buffer.load_state(state)
        return buffer
