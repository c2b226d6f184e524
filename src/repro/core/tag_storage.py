"""The tag storage memory: a linked list in flat SRAM (Section III-C).

Every *link* stores a tag value, a pointer to the next-larger link, and a
payload (the packet-buffer pointer of Fig. 1).  Links are kept sorted by
tag value, so the head of the list is always the smallest tag — the next
packet to serve — and service is a fixed-cost head removal, never a
search.

Free-space management follows Fig. 10: an initialization counter hands
out addresses 0..M-1 first; links freed by service join an *empty list*
threaded through the same memory, and once the counter is exhausted all
allocations pop the empty list.

Two fidelity notes relative to the paper's prose:

* Each link also carries the *tag of its successor* (``next_tag``).  This
  costs no extra memory accesses (the successor tag is always in hand
  when a link is written) and lets a head removal learn the new minimum
  tag from the single read of the departing link — which is how the
  combined insert+dequeue fits the four-access budget of Fig. 9.
* The paper frees a link by "leaving the link and its pointer unchanged",
  relying on stale pointers to thread the empty list.  That shortcut is
  only sound if no insertion ever lands between a served tag and its
  successor before the successor is itself served; since WFQ permits such
  insertions, this implementation writes the freed link onto the empty
  list explicitly (one write, inside the same four-cycle budget).

Insert cost is exactly the Fig. 9 sequence — two reads and two writes —
and the simultaneous insert+dequeue of Section III-C reuses the departing
head's slot within the same four accesses.

:class:`TagStorageMemory` is the gate-accurate reference (every access
through :class:`~repro.hwsim.memory.SinglePortSRAM`);
:class:`FusedTagStorageMemory` (the turbo engine's flavour) overrides
the per-operation methods with in-place versions that charge the same
accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..hwsim.counters import SaturatingCounter
from ..hwsim.errors import (
    CapacityError,
    ConfigurationError,
    EmptyStructureError,
    HardwareSimulationError,
)
from ..hwsim.memory import SinglePortSRAM
from ..hwsim.stats import AccessStats

#: The fixed clock budget of one storage operation (2 reads + 2 writes).
CYCLES_PER_OPERATION = 4


class StorageCorruptionError(HardwareSimulationError):
    """The linked-list structure lost consistency (a simulator bug)."""


@dataclass
class Link:
    """One linked-list entry in the tag storage memory."""

    tag: int
    next_address: Optional[int]
    next_tag: Optional[int]
    payload: Any = None


class TagStorageMemory:
    """Sorted linked list of tags with an empty list and init counter.

    With ``modular=True`` the list is sorted in *logical* (wrapped) tag
    order rather than raw order: raw values may wrap once within the live
    window (Fig. 6's cyclical tag space), so the raw-order assertions are
    relaxed to "at most one descent along the list".  The caller (the
    sort/retrieve circuit) is responsible for computing wrap-correct
    predecessors.
    """

    def __init__(
        self, capacity: int, *, word_bits: int = 64, modular: bool = False
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        self.capacity = capacity
        self.modular = modular
        self._memory = SinglePortSRAM(
            capacity,
            name="tag_storage",
            word_bits=word_bits,
            enforce_port=False,
        )
        self._init_counter = SaturatingCounter(capacity)
        self._empty_head: Optional[int] = None
        self._head_address: Optional[int] = None
        self._head_tag: Optional[int] = None
        self._count = 0

    # ------------------------------------------------------------------
    # registers and accounting

    @property
    def stats(self) -> AccessStats:
        """Access counters of the storage SRAM."""
        return self._memory.stats

    @property
    def count(self) -> int:
        """Live tags currently stored."""
        return self._count

    @property
    def is_empty(self) -> bool:
        """True when no tags are stored."""
        return self._count == 0

    @property
    def is_full(self) -> bool:
        """True when every memory location holds a live tag."""
        return self._count == self.capacity

    @property
    def head_address(self) -> Optional[int]:
        """Physical address of the smallest tag (a register in hardware)."""
        return self._head_address

    @property
    def min_tag(self) -> Optional[int]:
        """The smallest stored tag (register; zero-cost to read)."""
        return self._head_tag

    @property
    def allocations_remaining_in_counter(self) -> int:
        """Fresh addresses the init counter can still hand out (Fig. 10)."""
        return self.capacity - self._init_counter.value

    def peek_head(self) -> Optional[Tuple[int, Any, int]]:
        """The head link's ``(tag, payload, address)``, at zero cost.

        Hardware latches the full head link in registers whenever a link
        becomes the head (it was read by the very operation that promoted
        it), so observing the head costs no memory access and no port.
        Returns None when the memory is empty.
        """
        if self._head_address is None:
            return None
        link = self._memory.peek(self._head_address)
        return link.tag, link.payload, self._head_address

    # ------------------------------------------------------------------
    # free-space management (Fig. 10)

    def _allocate(self) -> int:
        """Next free address: init counter first, then the empty list."""
        if self._count >= self.capacity:
            raise CapacityError(
                f"tag storage full ({self.capacity} links in use)"
            )
        if not self._init_counter.saturated:
            return self._init_counter.take()
        if self._empty_head is None:
            raise StorageCorruptionError(
                "counter exhausted and empty list empty, but count < capacity"
            )
        address = self._empty_head
        link = self._memory.read(address)
        self._empty_head = link.next_address
        return address

    def _free(self, address: int, *, reuse: bool = False) -> None:
        """Return ``address`` to the empty list (skipped when reused)."""
        if reuse:
            return
        self._memory.write(
            address,
            Link(tag=-1, next_address=self._empty_head, next_tag=None),
        )
        self._empty_head = address

    def empty_list_addresses(self) -> List[int]:
        """Walk the empty list (debug view matching Fig. 10)."""
        addresses = []
        cursor = self._empty_head
        while cursor is not None:
            addresses.append(cursor)
            link = self._memory.peek(cursor)
            cursor = link.next_address
            if len(addresses) > self.capacity:
                raise StorageCorruptionError("empty list contains a cycle")
        return addresses

    # ------------------------------------------------------------------
    # insertion (Fig. 9)

    def insert_first(self, tag: int, payload: Any = None) -> int:
        """Insert into an empty memory (initialization mode)."""
        if not self.is_empty:
            raise ConfigurationError("insert_first requires an empty memory")
        address = self._allocate()
        self._memory.write(
            address, Link(tag=tag, next_address=None, next_tag=None, payload=payload)
        )
        self._head_address = address
        self._head_tag = tag
        self._count += 1
        return address

    def insert_at_head(self, tag: int, payload: Any = None) -> int:
        """Insert a tag smaller than (or equal to) the current minimum.

        Not needed under WFQ (new tags are never below the current
        minimum) but required for general priority-queue use.
        """
        if self.is_empty:
            return self.insert_first(tag, payload)
        if self._head_tag is not None and tag > self._head_tag:
            raise ConfigurationError(
                f"insert_at_head: tag {tag} exceeds current minimum "
                f"{self._head_tag}"
            )
        address = self._allocate()
        self._memory.write(
            address,
            Link(
                tag=tag,
                next_address=self._head_address,
                next_tag=self._head_tag,
                payload=payload,
            ),
        )
        self._head_address = address
        self._head_tag = tag
        self._count += 1
        return address

    def insert_after(
        self, predecessor_address: int, tag: int, payload: Any = None
    ) -> int:
        """The Fig. 9 insert: link ``tag`` directly after a predecessor.

        The four accesses are (1) read a free location, (2) read the
        predecessor, (3) write the predecessor with a pointer to the new
        link, (4) write the new link pointing at the predecessor's old
        successor.
        """
        address = self._allocate()  # access 1 (a read when from empty list)
        predecessor = self._memory.read(predecessor_address)  # access 2
        if predecessor.tag > tag and not self.modular:
            raise ConfigurationError(
                f"sorted-order violation: inserting {tag} after "
                f"{predecessor.tag}"
            )
        new_link = Link(
            tag=tag,
            next_address=predecessor.next_address,
            next_tag=predecessor.next_tag,
            payload=payload,
        )
        self._memory.write(  # access 3
            predecessor_address,
            Link(
                tag=predecessor.tag,
                next_address=address,
                next_tag=tag,
                payload=predecessor.payload,
            ),
        )
        self._memory.write(address, new_link)  # access 4
        self._count += 1
        return address

    def insert_monotone_batch(
        self,
        entries: List[Tuple[int, Any]],
        predecessor_address: Optional[int],
        *,
        key=None,
    ) -> List[int]:
        """Insert a nondecreasing run of ``(tag, payload)`` links.

        The amortized fast path: instead of one search per link, the
        caller supplies the predecessor of the *first* entry (one tree
        search for the whole run) and the insert finger then walks the
        list forward — each link it passes is read once, and each insert
        costs the same two writes as the per-op Fig. 9 sequence.  Over a
        monotone run the walk telescopes, so the batch costs
        O(run length + links skipped) accesses instead of one full
        search per link.

        ``entries`` must be nondecreasing under ``key`` (identity by
        default; modular callers pass a wrap-aware key) and every entry
        must belong at or after the predecessor link.  Pass
        ``predecessor_address=None`` only when the memory is empty.
        Equal tags are appended after existing duplicates, preserving
        the per-op FCFS discipline.  Accounting is flushed to the SRAM
        stats once per batch.  Returns the new addresses in entry order.
        """
        if not entries:
            return []
        if self._count + len(entries) > self.capacity:
            raise CapacityError(
                f"batch of {len(entries)} links overflows tag storage "
                f"({self._count} of {self.capacity} in use)"
            )
        if key is None:
            key = lambda value: value  # noqa: E731 - identity key
        cells = self._memory._cells
        reads = 0
        writes = 0

        def allocate() -> int:
            nonlocal reads
            if not self._init_counter.saturated:
                return self._init_counter.take()
            address = self._empty_head
            if address is None:
                raise StorageCorruptionError(
                    "counter exhausted and empty list empty, "
                    "but count < capacity"
                )
            link = cells[address]
            reads += 1
            self._empty_head = link.next_address
            return address

        addresses: List[int] = []
        start = 0
        if predecessor_address is None:
            if not self.is_empty:
                raise ConfigurationError(
                    "insert_monotone_batch without a predecessor requires "
                    "an empty memory"
                )
            tag, payload = entries[0]
            address = allocate()
            finger = Link(
                tag=tag, next_address=None, next_tag=None, payload=payload
            )
            cells[address] = finger
            writes += 1
            self._head_address = address
            self._head_tag = tag
            self._count += 1
            addresses.append(address)
            finger_address = address
            start = 1
        else:
            finger_address = predecessor_address
            finger = cells[finger_address]
            reads += 1  # the predecessor read of the per-op sequence
            if key(finger.tag) > key(entries[0][0]):
                raise ConfigurationError(
                    f"sorted-order violation: inserting {entries[0][0]} "
                    f"after {finger.tag}"
                )

        for tag, payload in entries[start:]:
            target = key(tag)
            while (
                finger.next_address is not None
                and key(finger.next_tag) <= target
            ):
                finger_address = finger.next_address
                finger = cells[finger_address]
                reads += 1
            address = allocate()
            new_link = Link(
                tag=tag,
                next_address=finger.next_address,
                next_tag=finger.next_tag,
                payload=payload,
            )
            cells[finger_address] = Link(
                tag=finger.tag,
                next_address=address,
                next_tag=tag,
                payload=finger.payload,
            )
            cells[address] = new_link
            writes += 2
            self._count += 1
            addresses.append(address)
            finger_address = address
            finger = new_link

        self._memory.stats.record_bulk(reads=reads, writes=writes)
        return addresses

    # ------------------------------------------------------------------
    # service (head removal)

    def dequeue_min(self) -> Tuple[int, Any, int]:
        """Remove and return the smallest tag.

        Returns ``(tag, payload, address)``; the freed address joins the
        empty list.  One read (the departing link, which carries the new
        head's tag) plus one write (threading the empty list).
        """
        if self.is_empty:
            raise EmptyStructureError("dequeue from an empty tag storage")
        address = self._head_address
        link = self._memory.read(address)
        self._head_address = link.next_address
        self._head_tag = link.next_tag
        self._free(address)
        self._count -= 1
        return link.tag, link.payload, address

    def peek_tags(self, count: int) -> List[int]:
        """The tags of the first ``count`` links, head first (peek-only).

        A walk along ``next_address`` from the head register over the
        raw cells: nothing moves and no access is counted, like
        :meth:`walk`.  Over-asking raises :class:`EmptyStructureError`
        before any cell is read, the :meth:`dequeue_batch` contract.
        """
        if count < 0:
            raise ConfigurationError("peek count must be non-negative")
        if count > self._count:
            raise EmptyStructureError(
                f"peek_tags({count}) from a storage holding {self._count}"
            )
        cells = self._memory._cells
        tags: List[int] = []
        address = self._head_address
        for _ in range(count):
            link = cells[address]
            tags.append(link.tag)
            address = link.next_address
        return tags

    def dequeue_batch(self, count: int) -> List[Tuple[int, Any, int]]:
        """Remove the ``count`` smallest tags in one amortized pass.

        Retire discipline and costs match ``count`` per-op head removals
        — one read (the departing link) plus one write (threading the
        empty list) each, and freed links join the empty list in the
        same LIFO order — but the accounting is flushed once per batch.
        Returns ``(tag, payload, address)`` triples in service order.

        **Over-ask contract (raise-before-mutate):** when ``count``
        exceeds the current occupancy the call raises
        :class:`EmptyStructureError` *before touching the list* — no
        link is served and no slot is freed.  This deliberately differs
        from ``count`` literal :meth:`dequeue_min` calls, which would
        serve the remaining occupancy before raising on the first empty
        pop.  The batch layers at both storage and circuit level share
        this all-or-nothing contract.
        """
        if count < 0:
            raise ConfigurationError("dequeue count must be non-negative")
        if count > self._count:
            raise EmptyStructureError(
                f"dequeue_batch({count}) from a storage holding {self._count}"
            )
        if count == 0:
            return []
        cells = self._memory._cells
        served: List[Tuple[int, Any, int]] = []
        address = self._head_address
        next_address = address
        next_tag = self._head_tag
        for _ in range(count):
            link = cells[address]
            served.append((link.tag, link.payload, address))
            next_address = link.next_address
            next_tag = link.next_tag
            # Recycle the resident Link in place — the same free-list
            # discipline as ``_free`` and the fused ``dequeue_min`` — so
            # batch and per-op retire paths thread identical cell objects.
            link.tag = -1
            link.next_address = self._empty_head
            link.next_tag = None
            link.payload = None
            self._empty_head = address
            address = next_address
        self._head_address = next_address
        self._head_tag = next_tag
        self._count -= count
        self._memory.stats.record_bulk(reads=count, writes=count)
        return served

    def replace_min(
        self, predecessor_address: Optional[int], tag: int, payload: Any = None
    ) -> Tuple[int, Any, int, int]:
        """Simultaneous insert + dequeue within one four-access window.

        The departing head's slot is reused for the incoming tag instead
        of cycling through the empty list (Section III-C).  Returns
        ``(served_tag, served_payload, served_address, new_address)``.

        ``predecessor_address`` is the linked-list position the tree
        search produced for the incoming tag; pass None when the new tag
        belongs at the head.  When the predecessor *is* the departing
        head, the insert is re-anchored to the new head.
        """
        if self.is_empty:
            raise EmptyStructureError("replace_min on an empty tag storage")
        head_address = self._head_address
        head = self._memory.read(head_address)  # access 1: serves + frees
        served = (head.tag, head.payload, head_address)
        self._head_address = head.next_address
        self._head_tag = head.next_tag
        self._count -= 1

        if self.is_empty:
            # The memory emptied; the incoming tag restarts the list in
            # the reused slot.
            self._memory.write(
                head_address,
                Link(tag=tag, next_address=None, next_tag=None, payload=payload),
            )
            self._head_address = head_address
            self._head_tag = tag
            self._count += 1
            return served[0], served[1], served[2], head_address

        if predecessor_address == head_address or predecessor_address is None:
            if self._head_tag is not None and tag <= self._head_tag:
                # New head in the reused slot.
                self._memory.write(
                    head_address,
                    Link(
                        tag=tag,
                        next_address=self._head_address,
                        next_tag=self._head_tag,
                        payload=payload,
                    ),
                )
                self._head_address = head_address
                self._head_tag = tag
                self._count += 1
                return served[0], served[1], served[2], head_address
            # The served head was the predecessor; the new tag now follows
            # the new head instead.
            predecessor_address = self._head_address

        predecessor = self._memory.read(predecessor_address)  # access 2
        if predecessor.tag > tag and not self.modular:
            raise ConfigurationError(
                f"sorted-order violation: inserting {tag} after "
                f"{predecessor.tag}"
            )
        new_link = Link(
            tag=tag,
            next_address=predecessor.next_address,
            next_tag=predecessor.next_tag,
            payload=payload,
        )
        self._memory.write(  # access 3
            predecessor_address,
            Link(
                tag=predecessor.tag,
                next_address=head_address,
                next_tag=tag,
                payload=predecessor.payload,
            ),
        )
        self._memory.write(head_address, new_link)  # access 4 (slot reuse)
        self._count += 1
        return served[0], served[1], served[2], head_address

    # ------------------------------------------------------------------
    # dynamic updates (unlink by address)

    def remove_at(
        self, address: int, predecessor_address: Optional[int]
    ) -> Tuple[int, Any]:
        """Unlink the link at ``address`` and return its slot to the
        empty list.

        ``predecessor_address`` names the link immediately before the
        victim; pass None when the victim *is* the head.  Head removal
        is exactly :meth:`dequeue_min` (one read + one write); mid-list
        removal costs two reads (predecessor + victim) and two writes
        (splicing the predecessor past the victim, then threading the
        empty list) — the same four-access budget as a Fig. 9 insert.
        The predecessor's ``next_tag`` is rewritten from the victim's,
        so the successor-tag channel stays exact.  Returns
        ``(tag, payload)``.
        """
        if self.is_empty:
            raise EmptyStructureError("remove from an empty tag storage")
        if predecessor_address is None:
            if address != self._head_address:
                raise ConfigurationError(
                    f"remove_at: address {address} is not the head but no "
                    "predecessor was supplied"
                )
            tag, payload, _ = self.dequeue_min()
            return tag, payload
        predecessor = self._memory.read(predecessor_address)  # access 1
        if predecessor.next_address != address:
            raise ConfigurationError(
                f"remove_at: link {predecessor_address} does not precede "
                f"{address}"
            )
        victim = self._memory.read(address)  # access 2
        self._memory.write(  # access 3: splice past the victim
            predecessor_address,
            Link(
                tag=predecessor.tag,
                next_address=victim.next_address,
                next_tag=victim.next_tag,
                payload=predecessor.payload,
            ),
        )
        self._free(address)  # access 4: thread the empty list
        self._count -= 1
        return victim.tag, victim.payload

    def unlink(
        self, address: int, start_address: int
    ) -> Tuple[int, Any, int, int, int]:
        """Walk from ``start_address`` to the link preceding ``address``,
        splice the victim out, and thread its slot onto the empty list.

        The caller supplies a walk anchor at or before the victim's
        position — the newest link of the closest smaller value, or the
        head when the victim shares the minimum tag.  Each walked link
        costs one read; the unlink then adds the victim read plus two
        writes, so an immediate predecessor lands exactly on the Fig. 9
        four-access budget (2R + 2W) and each extra duplicate walked
        adds one read.  The head cannot be removed this way (it has no
        predecessor); use :meth:`remove_at` with ``predecessor_address=
        None``.  Returns ``(tag, payload, predecessor_address,
        predecessor_tag, reads)``.
        """
        if self.is_empty:
            raise EmptyStructureError("remove from an empty tag storage")
        if address == self._head_address or address == start_address:
            raise ConfigurationError(
                f"unlink needs a strict predecessor anchor for address "
                f"{address} (got start {start_address})"
            )
        reads = 0
        cursor = start_address
        predecessor = self._memory.read(cursor)
        reads += 1
        while predecessor.next_address != address:
            if predecessor.next_address is None or reads > self.capacity:
                raise StorageCorruptionError(
                    f"address {address} not reachable from {start_address}"
                )
            cursor = predecessor.next_address
            predecessor = self._memory.read(cursor)
            reads += 1
        victim = self._memory.read(address)
        reads += 1
        self._memory.write(
            cursor,
            Link(
                tag=predecessor.tag,
                next_address=victim.next_address,
                next_tag=victim.next_tag,
                payload=predecessor.payload,
            ),
        )
        self._free(address)
        self._count -= 1
        return victim.tag, victim.payload, cursor, predecessor.tag, reads

    # ------------------------------------------------------------------
    # checkpoint / restore

    def to_state(self) -> dict:
        """Exact serializable snapshot of the storage memory.

        Captures everything needed to resume mid-stream with identical
        behaviour *and* identical accounting: the full cell array (live
        links and the threaded empty list, Fig. 10), the initialization
        counter, the head registers, and the SRAM access stats.  The
        result is a plain dict of JSON-compatible values (payloads that
        are themselves JSON-compatible survive a JSON round trip; any
        picklable payload survives pickling).
        """
        cells: List[Optional[list]] = []
        for cell in self._memory._cells:
            if cell is None:
                cells.append(None)
            else:
                cells.append(
                    [cell.tag, cell.next_address, cell.next_tag, cell.payload]
                )
        return {
            "kind": "tag_storage",
            "capacity": self.capacity,
            "modular": self.modular,
            "word_bits": self._memory.word_bits,
            "cells": cells,
            "init_counter": self._init_counter.value,
            "empty_head": self._empty_head,
            "head_address": self._head_address,
            "head_tag": self._head_tag,
            "count": self._count,
            "stats": self._memory.stats.to_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance.

        The instance must have been constructed with the same capacity
        and mode; the existing :class:`AccessStats` object is mutated in
        place so external registrations (a circuit's stats registry)
        stay live across the restore.
        """
        if state.get("kind") != "tag_storage":
            raise ConfigurationError(
                f"not a tag storage snapshot: kind={state.get('kind')!r}"
            )
        if state["capacity"] != self.capacity:
            raise ConfigurationError(
                f"snapshot capacity {state['capacity']} != {self.capacity}"
            )
        if bool(state["modular"]) != self.modular:
            raise ConfigurationError("snapshot modular mode mismatch")
        counter_value = state["init_counter"]
        if not 0 <= counter_value <= self.capacity:
            raise ConfigurationError(
                f"init counter value {counter_value} outside "
                f"[0, {self.capacity}]"
            )
        cells = self._memory._cells
        for address, cell in enumerate(state["cells"]):
            if cell is None:
                cells[address] = None
            else:
                tag, next_address, next_tag, payload = cell
                cells[address] = Link(
                    tag=tag,
                    next_address=next_address,
                    next_tag=next_tag,
                    payload=payload,
                )
        self._init_counter.value = counter_value
        self._empty_head = state["empty_head"]
        self._head_address = state["head_address"]
        self._head_tag = state["head_tag"]
        self._count = state["count"]
        self._memory.stats.reads = state["stats"]["reads"]
        self._memory.stats.writes = state["stats"]["writes"]

    @classmethod
    def from_state(cls, state: dict) -> "TagStorageMemory":
        """Reconstruct a storage memory from a :meth:`to_state` snapshot."""
        memory = cls(
            state["capacity"],
            word_bits=state.get("word_bits", 64),
            modular=bool(state["modular"]),
        )
        memory.load_state(state)
        return memory

    # ------------------------------------------------------------------
    # verification helpers

    def walk(self) -> List[Tuple[int, int]]:
        """The live list as ``(tag, address)`` pairs, head first (debug)."""
        out = []
        cursor = self._head_address
        while cursor is not None:
            link = self._memory.peek(cursor)
            out.append((link.tag, cursor))
            cursor = link.next_address
            if len(out) > self.capacity:
                raise StorageCorruptionError("live list contains a cycle")
        return out

    def check_invariants(self) -> None:
        """Verify sortedness, counts, and pointer consistency."""
        live = self.walk()
        if len(live) != self._count:
            raise StorageCorruptionError(
                f"live count {self._count} != walked length {len(live)}"
            )
        tags = [tag for tag, _ in live]
        if self.modular:
            descents = sum(
                1 for a, b in zip(tags, tags[1:]) if b < a
            )
            if descents > 1:
                raise StorageCorruptionError(
                    f"modular list wraps more than once: {tags}"
                )
        elif tags != sorted(tags):
            raise StorageCorruptionError(f"list out of order: {tags}")
        if live:
            if self._head_tag != tags[0]:
                raise StorageCorruptionError(
                    f"head tag register {self._head_tag} != actual {tags[0]}"
                )
            cursor = self._head_address
            while cursor is not None:
                link = self._memory.peek(cursor)
                if link.next_address is not None:
                    successor = self._memory.peek(link.next_address)
                    if link.next_tag != successor.tag:
                        raise StorageCorruptionError(
                            f"stale next_tag at address {cursor}: "
                            f"{link.next_tag} != {successor.tag}"
                        )
                cursor = link.next_address
        free = len(self.empty_list_addresses())
        unallocated = self.capacity - self._init_counter.value
        if free + unallocated + self._count != self.capacity:
            raise StorageCorruptionError(
                f"slot accounting broken: {free} free + {unallocated} "
                f"unallocated + {self._count} live != {self.capacity}"
            )

class FusedTagStorageMemory(TagStorageMemory):
    """The storage's per-operation methods fused (``--mode turbo``).

    Each override performs the exact same linked-list transition as the
    reference method and charges the exact same reads and writes to the
    same :class:`AccessStats` counter; it skips the per-access memory
    object (address check, port claim, ``record_read``/``record_write``
    calls) and rewrites the resident :class:`Link` objects in place
    instead of allocating fresh ones.  Nothing aliases a cell-resident
    link (``peek``/``walk`` return or copy fields, and the reference
    methods always *replace* cells), so in-place mutation is
    observationally identical.
    """

    def insert_after(
        self, predecessor_address: int, tag: int, payload: Any = None
    ) -> int:
        """Fused :meth:`TagStorageMemory.insert_after`:
        same Fig. 9 accounting."""
        if self._count >= self.capacity:
            raise CapacityError(
                f"tag storage full ({self.capacity} links in use)"
            )
        cells = self._memory._cells
        reads = 1  # the predecessor read (access 2)
        recycled = None
        if not self._init_counter.saturated:
            address = self._init_counter.take()  # access 1: counter, free
        else:
            address = self._empty_head
            if address is None:
                raise StorageCorruptionError(
                    "counter exhausted and empty list empty, "
                    "but count < capacity"
                )
            reads += 1  # access 1: read a free location
            recycled = cells[address]
            self._empty_head = recycled.next_address
        predecessor = cells[predecessor_address]
        if predecessor.tag > tag and not self.modular:
            raise ConfigurationError(
                f"sorted-order violation: inserting {tag} after "
                f"{predecessor.tag}"
            )
        if recycled is None:
            cells[address] = Link(
                tag=tag,
                next_address=predecessor.next_address,
                next_tag=predecessor.next_tag,
                payload=payload,
            )
        else:
            # Free-list slots keep their resident Link object: nothing
            # aliases a freed link, so rewriting it in place is the
            # hardware's access-4 cell write without an allocation.
            recycled.tag = tag
            recycled.next_address = predecessor.next_address
            recycled.next_tag = predecessor.next_tag
            recycled.payload = payload
        predecessor.next_address = address  # access 3 (in-place rewrite)
        predecessor.next_tag = tag
        stats = self._memory.stats
        stats.reads += reads
        stats.writes += 2  # accesses 3 and 4
        self._count += 1
        return address

    def dequeue_min(self) -> Tuple[int, Any, int]:
        """Fused :meth:`TagStorageMemory.dequeue_min`:
        one read + one write."""
        if self._count == 0:
            raise EmptyStructureError("dequeue from an empty tag storage")
        address = self._head_address
        link = self._memory._cells[address]
        served = (link.tag, link.payload, address)
        self._head_address = link.next_address
        self._head_tag = link.next_tag
        # Thread the freed slot onto the empty list by rewriting the
        # departing link in place (the gate path writes a fresh Link).
        link.tag = -1
        link.next_address = self._empty_head
        link.next_tag = None
        link.payload = None
        self._empty_head = address
        stats = self._memory.stats
        stats.reads += 1
        stats.writes += 1
        self._count -= 1
        return served

    def replace_min(
        self, predecessor_address: Optional[int], tag: int, payload: Any = None
    ) -> Tuple[int, Any, int, int]:
        """Fused :meth:`TagStorageMemory.replace_min`:
        same branch-by-branch costs."""
        if self._count == 0:
            raise EmptyStructureError("replace_min on an empty tag storage")
        cells = self._memory._cells
        stats = self._memory.stats
        head_address = self._head_address
        head = cells[head_address]
        stats.reads += 1  # access 1: serves + frees
        served = (head.tag, head.payload, head_address)
        self._head_address = head.next_address
        self._head_tag = head.next_tag
        self._count -= 1

        if self._count == 0:
            # The memory emptied; the incoming tag restarts the list in
            # the reused slot.
            head.tag = tag
            head.next_address = None
            head.next_tag = None
            head.payload = payload
            stats.writes += 1
            self._head_address = head_address
            self._head_tag = tag
            self._count += 1
            return served[0], served[1], served[2], head_address

        if predecessor_address == head_address or predecessor_address is None:
            if self._head_tag is not None and tag <= self._head_tag:
                # New head in the reused slot.
                head.tag = tag
                head.next_address = self._head_address
                head.next_tag = self._head_tag
                head.payload = payload
                stats.writes += 1
                self._head_address = head_address
                self._head_tag = tag
                self._count += 1
                return served[0], served[1], served[2], head_address
            # The served head was the predecessor; the new tag now follows
            # the new head instead.
            predecessor_address = self._head_address

        predecessor = cells[predecessor_address]
        stats.reads += 1  # access 2
        if predecessor.tag > tag and not self.modular:
            raise ConfigurationError(
                f"sorted-order violation: inserting {tag} after "
                f"{predecessor.tag}"
            )
        # Reuse the departing head's slot for the new link (access 4),
        # then splice the predecessor onto it (access 3).
        head.tag = tag
        head.next_address = predecessor.next_address
        head.next_tag = predecessor.next_tag
        head.payload = payload
        predecessor.next_address = head_address
        predecessor.next_tag = tag
        stats.writes += 2
        self._count += 1
        return served[0], served[1], served[2], head_address

    def remove_at(
        self, address: int, predecessor_address: Optional[int]
    ) -> Tuple[int, Any]:
        """Fused :meth:`TagStorageMemory.remove_at`:
        same branch-by-branch costs."""
        if self._count == 0:
            raise EmptyStructureError("remove from an empty tag storage")
        if predecessor_address is None:
            if address != self._head_address:
                raise ConfigurationError(
                    f"remove_at: address {address} is not the head but no "
                    "predecessor was supplied"
                )
            tag, payload, _ = self.dequeue_min()
            return tag, payload
        cells = self._memory._cells
        stats = self._memory.stats
        predecessor = cells[predecessor_address]
        if predecessor.next_address != address:
            raise ConfigurationError(
                f"remove_at: link {predecessor_address} does not precede "
                f"{address}"
            )
        victim = cells[address]
        removed = (victim.tag, victim.payload)
        predecessor.next_address = victim.next_address  # access 3
        predecessor.next_tag = victim.next_tag
        # Access 4: recycle the victim's resident Link onto the empty list.
        victim.tag = -1
        victim.next_address = self._empty_head
        victim.next_tag = None
        victim.payload = None
        self._empty_head = address
        stats.reads += 2  # accesses 1 and 2
        stats.writes += 2
        self._count -= 1
        return removed

    def unlink(
        self, address: int, start_address: int
    ) -> Tuple[int, Any, int, int, int]:
        """Fused :meth:`TagStorageMemory.unlink`:
        same walk and splice costs."""
        if self._count == 0:
            raise EmptyStructureError("remove from an empty tag storage")
        if address == self._head_address or address == start_address:
            raise ConfigurationError(
                f"unlink needs a strict predecessor anchor for address "
                f"{address} (got start {start_address})"
            )
        cells = self._memory._cells
        stats = self._memory.stats
        reads = 0
        cursor = start_address
        predecessor = cells[cursor]
        reads += 1
        while predecessor.next_address != address:
            if predecessor.next_address is None or reads > self.capacity:
                raise StorageCorruptionError(
                    f"address {address} not reachable from {start_address}"
                )
            cursor = predecessor.next_address
            predecessor = cells[cursor]
            reads += 1
        victim = cells[address]
        reads += 1
        removed_tag = victim.tag
        removed_payload = victim.payload
        predecessor_tag = predecessor.tag
        predecessor.next_address = victim.next_address
        predecessor.next_tag = victim.next_tag
        # Recycle the victim's resident Link onto the empty list.
        victim.tag = -1
        victim.next_address = self._empty_head
        victim.next_tag = None
        victim.payload = None
        self._empty_head = address
        stats.reads += reads
        stats.writes += 2
        self._count -= 1
        return removed_tag, removed_payload, cursor, predecessor_tag, reads
