"""The tag sort/retrieve circuit: tree + translation table + tag storage.

This is the paper's contribution (Fig. 3): an associative memory that
stores every finishing tag in the scheduler **in sorted order** and serves
the smallest within a guaranteed fixed time.  Inserting conforms to the
*sort model* of Section II-C — the lookup happens at the input, so a
dequeue never searches: it is a fixed-cost head removal.

Operation timing follows Section III-A: the three-level tree plus the
translation table throughput one tag in four clock cycles, matched to the
four-cycle (two-read, two-write) insert of the tag storage memory, so the
whole circuit sustains one operation — insert, dequeue, or a simultaneous
insert+dequeue — every :data:`FIXED_OP_CYCLES` cycles.

Marker lifetime has two modes:

* **Deferred (paper mode, default).**  A dequeue touches only the tag
  storage; tree markers and translation entries go *stale* instead of
  being removed.  Under the WFQ invariant — a new tag is never smaller
  than the current minimum — a stale marker is always shadowed by the
  live minimum's marker and can never be returned by a search, so this is
  sound and is exactly why the paper can bulk-delete stale sections only
  when the wrapping tag space comes back around (Fig. 6,
  :meth:`TagSortRetrieveCircuit.clear_stale_section`).
* **Eager.**  A dequeue that retires the last tag of a value removes the
  marker and translation entry immediately.  This drops the WFQ
  monotonicity requirement, making the circuit a general-purpose
  priority queue (used as such in the Table I comparisons).

Besides the per-operation methods, the circuit offers **batched fast
paths** (:meth:`TagSortRetrieveCircuit.insert_batch`,
:meth:`TagSortRetrieveCircuit.dequeue_batch`,
:meth:`TagSortRetrieveCircuit.run_mixed`) that amortize per-op
bookkeeping across a run of operations: one tree search anchors a whole
monotone insert run (the storage finger walks forward from it), tree
markers reuse the previous value's path as a node-register cache, and
stats land in the :class:`~repro.hwsim.stats.StatsRegistry` as one bulk
update per batch.  Batches produce the same service order, the same
linked-list state, and the same cycle accounting as the per-op loop.

**One circuit, two structure flavours.**  Each operation is written
once, here, over the three structures' primitives.
:class:`TagSortRetrieveCircuit` builds the gate-accurate reference
structures (every access through the
:class:`~repro.hwsim.memory.SinglePortSRAM` models, every search through
the matcher circuits) and is the oracle the paper experiments and the
parity suites check against.  :class:`FusedSortRetrieveCircuit` (``--mode
turbo``) builds the fused flavours, which override only the hot
primitives and charge the identical accesses, so cycles, access
counters, served order and snapshots are equal between the two.

**One surface for every engine.**  :class:`CircuitSurface` holds what
every engine (gate, turbo and the numpy
:class:`~repro.core.vector.VectorSortRetrieveCircuit`) shares above its
operations: telemetry, the :class:`FaultInjection` hook,
:meth:`~CircuitSurface.run_mixed`, :meth:`~CircuitSurface.describe`,
:meth:`~CircuitSurface.from_state` and the WFQ window check.  It is
written once over the engine-neutral observers, so an engine implements
only the operations and the registers they read.

**Telemetry** is opt-in via :meth:`CircuitSurface.attach_tracer`: every
operation then emits a structured :class:`~repro.obs.events.TraceEvent`
(tag, cycles, occupancy, backup-path activation, per-structure
read/write deltas; the batched paths wrap their per-op events in an
attributing span).  The traced variants are bound as instance attributes
only while a tracer is attached, so the default untraced circuit runs
the unmodified hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as _as_index
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..hwsim.errors import (
    CapacityError,
    ConfigurationError,
    EmptyStructureError,
    ProtocolError,
)
from ..hwsim.stats import AccessStats, StatsRegistry
from ..obs.tracer import NULL_TRACER
from .matching import DEFAULT_MATCHER
from .tag_storage import FusedTagStorageMemory, TagStorageMemory
from .translation import FusedTranslationTable, TranslationTable
from .tree import FusedMultiBitTree, MultiBitTree
from .words import PAPER_FORMAT, WordFormat

#: Clock cycles consumed by any single circuit operation (Section III-A).
FIXED_OP_CYCLES = 4


class ServedTag(NamedTuple):
    """A tag retrieved from the circuit.

    A named tuple: one is allocated per dequeue, so construction speed
    is hot-path overhead.  ``tuple.__new__`` (reachable in bulk as
    ``map(ServedTag._make, zip(...))``) builds instances without a
    Python frame per serve, which the vector engine's batch drain
    leans on; immutability and value equality/hashing come with the
    tuple for free.
    """

    tag: int
    payload: Any = None
    address: int = 0


def handle_index(handle: Any) -> Optional[int]:
    """``handle`` as a storage address, or None when it cannot be one.

    A handle is an integer.  A bool is an int to Python but never a
    handle, and anything :func:`operator.index` rejects (a float equal
    to a live address, a string) names no entry either, so every
    engine's ``is_live_handle`` is false for both and the handle-taking
    operations refuse them before any state moves.
    """
    if type(handle) is int:
        return handle
    if isinstance(handle, bool):
        return None
    try:
        return _as_index(handle)
    except TypeError:
        return None


def _event_handle(handle: Any) -> Any:
    """``handle`` as an operation and its trace event carry it.

    A Python int wherever :func:`handle_index` reads one, so a numpy
    integer handle reaches the JSONL sink as a number; anything else
    stays as given, for the refusal to name.
    """
    address = handle_index(handle)
    return handle if address is None else address


@dataclass
class FaultInjection:
    """Seeded faults for exercising the online invariant monitors.

    A test hook, consulted **only by the traced wrappers** — an untraced
    circuit never looks at it, so the production hot paths carry no
    guard.  Every fault perturbs the *telemetry* (accounting deltas or
    reported tags), never the circuit's actual linked-list state, so a
    faulted run still serves the correct sequence; what breaks is the
    evidence stream the monitors screen, which is exactly what each
    monitor must catch:

    * ``extra_insert_writes`` — phantom tag-storage writes charged to
      every insert (breaks the Fig. 9 2R+2W budget).
    * ``extra_dequeue_reads`` — phantom tag-storage reads charged to
      every dequeue (breaks the fixed head-removal bound).
    * ``skip_free_release`` — un-counts the empty-list threading write
      of every dequeue (breaks Fig. 10 free-list conservation).
    * ``misreport_serve_offset`` — shifts every *reported* served tag by
      the offset (wrapped in modular mode).  A large negative offset
      makes service appear to go backwards (breaks WFQ monotonicity); a
      positive offset lands on values that were never inserted (breaks
      translation/marker coverage).
    * ``misreport_remove_handle`` — shifts the *reported* handle of
      every remove/retag event by the offset, so the event names an
      address that is dead or holds a different tag (breaks handle
      liveness).
    * ``skip_removal_release`` — un-counts the empty-list threading
      write of every remove (breaks Fig. 10 slot conservation under
      removal).
    """

    extra_insert_writes: int = 0
    extra_dequeue_reads: int = 0
    skip_free_release: bool = False
    misreport_serve_offset: int = 0
    misreport_remove_handle: int = 0
    skip_removal_release: bool = False

    def _after_insert(self, circuit: "CircuitSurface", count: int = 1) -> None:
        if self.extra_insert_writes:
            circuit.storage.stats.record_write(self.extra_insert_writes * count)

    def _after_dequeue(self, circuit: "CircuitSurface", count: int = 1) -> None:
        if self.extra_dequeue_reads:
            circuit.storage.stats.record_read(self.extra_dequeue_reads * count)
        if self.skip_free_release:
            circuit.storage.stats.writes -= count

    def _reported_tag(self, circuit: "CircuitSurface", tag: int) -> int:
        if not self.misreport_serve_offset:
            return tag
        if circuit.modular:
            return (tag + self.misreport_serve_offset) % circuit.fmt.capacity
        return tag + self.misreport_serve_offset

    def _after_remove(self, circuit: "CircuitSurface", count: int = 1) -> None:
        if self.skip_removal_release:
            circuit.storage.stats.writes -= count

    def _reported_handle(self, handle: int) -> int:
        return handle + self.misreport_remove_handle


class CircuitSurface:
    """What every engine shares above its own operations.

    An engine implements the operations named in :attr:`_TRACED_OPS`,
    the observers and handle checks of
    :class:`~repro.core.engine.DataPlaneEngine`, ``to_state`` /
    ``load_state`` and ``check_invariants``, over its own registers.
    It inherits the rest, written here once over those observers
    (``count``, ``free_list_depth``, ``peek_head``, ``handle_tag``) and
    the ``registry``, ``fmt``, ``modular`` and ``storage.stats``
    attributes every engine carries:

    * telemetry — :meth:`attach_tracer`, :meth:`detach_tracer` and one
      traced wrapper per operation, each calling the engine's own
      untraced operation through ``type(self)``;
    * the :class:`FaultInjection` hook those wrappers consult;
    * :meth:`run_mixed`, :meth:`describe`, :meth:`from_state`,
      :meth:`total_stats` and the WFQ window check.

    The one engine-specific telemetry input is
    :meth:`_take_used_backup`.
    """

    #: Seeded telemetry faults (:class:`FaultInjection`) — a test hook
    #: read only by the traced wrappers; ``None`` (the class default)
    #: costs nothing on any path.
    fault_injection: Optional[FaultInjection] = None

    #: the operations a tracer wraps (``_traced_<name>`` each)
    _TRACED_OPS = (
        "insert",
        "dequeue_min",
        "insert_and_dequeue",
        "insert_batch",
        "dequeue_batch",
        "remove",
        "retag",
        "clear_stale_section",
        "flush_stale_markers",
    )

    def total_stats(self) -> AccessStats:
        """Summed memory traffic across every internal structure."""
        return self.registry.total()

    def describe(self) -> dict:
        """Machine-readable configuration snapshot.

        The canonical ``config`` block of a JSONL trace header, the
        snapshot interchange key, and the source the invariant monitors
        derive their architectural bounds from (tree depth, tag-space
        size, marker mode).  It names no engine.
        """
        return {
            "levels": self.fmt.levels,
            "literal_bits": self.fmt.literal_bits,
            "word_bits": self.fmt.word_bits,
            "branching_factor": self.fmt.branching_factor,
            "tag_space": self.fmt.capacity,
            "capacity": self.storage.capacity,
            "modular": self.modular,
            "eager_marker_removal": self.eager_marker_removal,
        }

    def _check_monotone_against(self, tag: int, minimum: Optional[int]) -> None:
        """Enforce the WFQ invariant against an explicit minimum.

        New tags never precede the minimum.  In modular mode the
        comparison is sequence-number style: the forward (wrapped)
        distance from the minimum to the new tag must be under half the
        tag space, the standard serial-number rule that makes the
        wrapped window unambiguous.  Each engine's ``_check_monotone``
        passes its head register; a retag passes the *post-removal*
        minimum so an illegal new tag is rejected before the old entry
        is unlinked.
        """
        if minimum is None:
            return
        if self.modular:
            distance = (tag - minimum) % self._tag_space
            if distance >= self._half_space:
                raise ProtocolError(
                    f"tag {tag} is behind the window minimum {minimum} "
                    f"(wrapped distance {distance})"
                )
        elif tag < minimum:
            raise ProtocolError(
                f"WFQ invariant violated: tag {tag} below current "
                f"minimum {minimum} (use eager_marker_removal=True for "
                "general priority-queue workloads)"
            )

    _MIXED_KINDS = frozenset(("insert", "dequeue", "remove", "retag"))

    def run_mixed(self, operations: Iterable[Tuple]) -> List[ServedTag]:
        """Execute a mixed op stream, coalescing runs into batch calls.

        ``operations`` yields ``("insert", tag[, payload])``,
        ``("dequeue",)``, ``("remove", handle)``, and ``("retag",
        handle, new_tag)`` tuples.  Consecutive inserts and dequeues
        are grouped into one :meth:`insert_batch` /
        :meth:`dequeue_batch` call, so bursty streams (the common WFQ
        arrival pattern) pay per-batch instead of per-op overhead;
        dynamic updates flush any pending batch (stream order is
        preserved) and execute per-op.  Returns every *served* tag in
        service order — identical to executing the stream one operation
        at a time; removed entries are not served and are not returned.

        The whole stream is validated for known op kinds **before any
        operation executes**, so an invalid stream raises
        :class:`ConfigurationError` with the circuit untouched — no
        partially applied prefix.
        """
        ops = [tuple(operation) for operation in operations]
        for operation in ops:
            if not operation or operation[0] not in self._MIXED_KINDS:
                kind = operation[0] if operation else None
                raise ConfigurationError(
                    f"unknown mixed operation kind {kind!r}"
                )
        served: List[ServedTag] = []
        pending_inserts: List[Tuple[int, Any]] = []
        pending_dequeues = 0

        def flush() -> None:
            nonlocal pending_inserts, pending_dequeues
            if pending_inserts:
                self.insert_batch(
                    [tag for tag, _ in pending_inserts],
                    [payload for _, payload in pending_inserts],
                )
                pending_inserts = []
            if pending_dequeues:
                served.extend(self.dequeue_batch(pending_dequeues))
                pending_dequeues = 0

        # At most one kind is pending at a time, so switching kinds
        # flushes only the other one.
        for operation in ops:
            kind = operation[0]
            if kind == "insert":
                if pending_dequeues:
                    flush()
                payload = operation[2] if len(operation) > 2 else None
                pending_inserts.append((operation[1], payload))
            elif kind == "dequeue":
                if pending_inserts:
                    flush()
                pending_dequeues += 1
            elif kind == "remove":
                flush()
                self.remove(operation[1])
            else:  # retag
                flush()
                self.retag(operation[1], operation[2])
        flush()
        return served

    @classmethod
    def from_state(
        cls, state: dict, *, tracer=None, **options
    ) -> "CircuitSurface":
        """Reconstruct a circuit from a :meth:`to_state` snapshot.

        The class picks the engine: snapshots are engine-neutral, so
        ``FusedSortRetrieveCircuit.from_state`` restores any snapshot
        under turbo and ``VectorSortRetrieveCircuit.from_state`` under
        vector.  ``options`` go to the constructor: behaviour that is
        not state, such as a scalar engine's ``matcher_factory`` (the
        constructor's default when omitted).  A ``tracer`` may be
        attached to the restored circuit directly.
        """
        config = state["config"]
        fmt = WordFormat(
            levels=config["levels"], literal_bits=config["literal_bits"]
        )
        circuit = cls(
            fmt,
            capacity=config["capacity"],
            eager_marker_removal=config["eager_marker_removal"],
            modular=config["modular"],
            **options,
        )
        circuit.load_state(state)
        if tracer is not None:
            circuit.attach_tracer(tracer)
        return circuit

    # ------------------------------------------------------------------
    # telemetry (opt-in; zero-cost when disabled)

    def attach_tracer(self, tracer) -> None:
        """Start emitting structured telemetry events to ``tracer``.

        The traced variants of the operation methods are bound as
        *instance* attributes, shadowing the plain class methods — so an
        untraced circuit runs the exact pre-telemetry hot paths with no
        per-operation guard, and :meth:`detach_tracer` restores them by
        deleting the shadows.  Passing a disabled tracer (or ``None``)
        detaches.
        """
        if tracer is None or not getattr(tracer, "enabled", False):
            self.detach_tracer()
            return
        self.tracer = tracer
        for name in self._TRACED_OPS:
            setattr(self, name, getattr(self, f"_traced_{name}"))

    def detach_tracer(self) -> None:
        """Stop tracing and restore the uninstrumented hot paths."""
        self.tracer = NULL_TRACER
        for name in self._TRACED_OPS:
            self.__dict__.pop(name, None)

    def _take_used_backup(self) -> bool:
        """Whether the last tree search used its backup path; clears it.

        The traced wrappers call it before an insert (to drop a stale
        answer) and after it.  An engine whose search does not model
        the backup path (vector) keeps this default and reports False.
        """
        return False

    def _op_attrs(self) -> dict:
        """Shared register-derived attributes of a per-op event."""
        return {
            "cycles": FIXED_OP_CYCLES,
            "occupancy": self.count,
            "free_list_depth": self.free_list_depth,
        }

    def _trace_failure(
        self, kind: str, before: dict, error: BaseException, **attrs
    ) -> None:
        """The event of an operation that raised: its partial deltas."""
        self.tracer.event(
            kind,
            deltas=self.registry.deltas_since(before),
            **attrs,
            failed=True,
            error=type(error).__name__,
        )

    def _traced_insert(self, tag: int, payload: Any = None) -> int:
        before = self.registry.snapshot_all()
        self._take_used_backup()
        try:
            address = type(self).insert(self, tag, payload)
        except BaseException as error:
            self._trace_failure("insert", before, error, tag=tag)
            raise
        used_backup = self._take_used_backup()
        fault = self.fault_injection
        if fault is not None:
            fault._after_insert(self)
        self.tracer.event(
            "insert",
            deltas=self.registry.deltas_since(before),
            tag=tag,
            address=address,
            used_backup=used_backup,
            **self._op_attrs(),
        )
        return address

    def _traced_dequeue_min(self) -> ServedTag:
        before = self.registry.snapshot_all()
        try:
            served = type(self).dequeue_min(self)
        except BaseException as error:
            self._trace_failure("dequeue", before, error)
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_dequeue(self)
        self.tracer.event(
            "dequeue",
            deltas=self.registry.deltas_since(before),
            tag=(
                served.tag
                if fault is None
                else fault._reported_tag(self, served.tag)
            ),
            address=served.address,
            **self._op_attrs(),
        )
        return served

    def _traced_insert_and_dequeue(
        self, tag: int, payload: Any = None
    ) -> Tuple[ServedTag, int]:
        before = self.registry.snapshot_all()
        self._take_used_backup()
        try:
            served, address = type(self).insert_and_dequeue(
                self, tag, payload
            )
        except BaseException as error:
            self._trace_failure("insert_dequeue", before, error, tag=tag)
            raise
        used_backup = self._take_used_backup()
        fault = self.fault_injection
        if fault is not None:
            fault._after_insert(self)
        self.tracer.event(
            "insert_dequeue",
            deltas=self.registry.deltas_since(before),
            tag=tag,
            address=address,
            served_tag=(
                served.tag
                if fault is None
                else fault._reported_tag(self, served.tag)
            ),
            served_address=served.address,
            used_backup=used_backup,
            **self._op_attrs(),
        )
        return served, address

    def _traced_insert_batch(
        self,
        tags: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        tags = list(tags)
        if self.eager_marker_removal:
            # The eager path falls back to per-op inserts, whose traced
            # wrappers already emit one event each.
            return type(self).insert_batch(self, tags, payloads)
        tracer = self.tracer
        start = self.count
        with tracer.span(
            "insert_batch", registry=self.registry, count=len(tags)
        ):
            self._take_used_backup()
            addresses = type(self).insert_batch(self, tags, payloads)
            used_backup = self._take_used_backup()
            fault = self.fault_injection
            if fault is not None:
                fault._after_insert(self, count=len(tags))
            # One event per logical operation, in input order, so the
            # batched stream is event-for-event comparable to per-op
            # mode; the memory-traffic deltas live on the enclosing
            # span (the batch amortizes them across the run).
            for index, (tag, address) in enumerate(zip(tags, addresses)):
                tracer.event(
                    "insert",
                    tag=tag,
                    address=address,
                    cycles=FIXED_OP_CYCLES,
                    occupancy=start + index + 1,
                    used_backup=used_backup and index == 0,
                    batched=True,
                )
        return addresses

    def _traced_dequeue_batch(self, count: int) -> List[ServedTag]:
        tracer = self.tracer
        start = self.count
        with tracer.span(
            "dequeue_batch", registry=self.registry, count=count
        ):
            served = type(self).dequeue_batch(self, count)
            fault = self.fault_injection
            if fault is not None:
                fault._after_dequeue(self, count=count)
            for index, entry in enumerate(served):
                tracer.event(
                    "dequeue",
                    tag=(
                        entry.tag
                        if fault is None
                        else fault._reported_tag(self, entry.tag)
                    ),
                    address=entry.address,
                    cycles=FIXED_OP_CYCLES,
                    occupancy=start - index - 1,
                    batched=True,
                )
        return served

    def _traced_remove(self, handle: int) -> ServedTag:
        handle = _event_handle(handle)
        before = self.registry.snapshot_all()
        cycles_before = self.cycles
        head = self.peek_head()
        was_head = head is not None and handle == head.address
        try:
            removed = type(self).remove(self, handle)
        except BaseException as error:
            self._trace_failure("remove", before, error, address=handle)
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_remove(self)
        self.tracer.event(
            "remove",
            deltas=self.registry.deltas_since(before),
            tag=removed.tag,
            address=(
                handle if fault is None else fault._reported_handle(handle)
            ),
            head=was_head,
            cycles=self.cycles - cycles_before,
            occupancy=self.count,
            free_list_depth=self.free_list_depth,
        )
        return removed

    def _traced_retag(self, handle: int, new_tag: int) -> int:
        handle = _event_handle(handle)
        before = self.registry.snapshot_all()
        cycles_before = self.cycles
        old_tag = self.handle_tag(handle)
        try:
            address = type(self).retag(self, handle, new_tag)
        except BaseException as error:
            self._trace_failure(
                "retag", before, error, address=handle, new_tag=new_tag
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_remove(self)
        self.tracer.event(
            "retag",
            deltas=self.registry.deltas_since(before),
            tag=old_tag,
            new_tag=new_tag,
            address=(
                handle if fault is None else fault._reported_handle(handle)
            ),
            new_address=address,
            cycles=self.cycles - cycles_before,
            occupancy=self.count,
            free_list_depth=self.free_list_depth,
        )
        return address

    def _traced_clear_stale_section(self, root_literal: int) -> int:
        before = self.registry.snapshot_all()
        try:
            purged = type(self).clear_stale_section(self, root_literal)
        except BaseException as error:
            self._trace_failure(
                "section_clear", before, error, root_literal=root_literal
            )
            raise
        self.tracer.event(
            "section_clear",
            deltas=self.registry.deltas_since(before),
            root_literal=root_literal,
            purged=purged,
        )
        return purged

    def _traced_flush_stale_markers(self) -> None:
        before = self.registry.snapshot_all()
        type(self).flush_stale_markers(self)
        self.tracer.event(
            "marker_flush", deltas=self.registry.deltas_since(before)
        )


class TagSortRetrieveCircuit(CircuitSurface):
    """The complete tag sort/retrieve circuit of paper Fig. 3.

    Built over the gate-accurate reference structures (``--mode gate``);
    :class:`FusedSortRetrieveCircuit` swaps in the fused flavours.
    Telemetry, :meth:`run_mixed`, :meth:`describe` and
    :meth:`from_state` come from :class:`CircuitSurface`.
    """

    #: the ``--mode`` name of this flavour
    mode = "gate"
    #: the structure classes the operations run on
    tree_class = MultiBitTree
    translation_class = TranslationTable
    storage_class = TagStorageMemory

    def __init__(
        self,
        fmt: WordFormat = PAPER_FORMAT,
        *,
        capacity: int = 4096,
        matcher_factory=DEFAULT_MATCHER,
        eager_marker_removal: bool = False,
        modular: bool = False,
        tracer=None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        if modular and eager_marker_removal:
            raise ConfigurationError(
                "modular (wrapping) mode relies on deferred marker removal"
            )
        self.fmt = fmt
        self.eager_marker_removal = eager_marker_removal
        self.modular = modular
        # Tag-space scalars cached off the word-format property chain
        # (consulted on every insert's range and monotonicity checks).
        self._max_tag = fmt.max_value
        self._tag_space = fmt.capacity
        self._half_space = fmt.capacity // 2
        self.tree = self.tree_class(fmt, matcher_factory=matcher_factory)
        self.translation = self.translation_class(fmt)
        self.storage = self.storage_class(capacity, modular=modular)
        self.cycles = 0
        self.operations = 0
        #: handle registry: live storage address -> tag.  Hardware keeps
        #: a valid bit per slot; this map is that bit plus the tag the
        #: handle was issued for, and is what makes :meth:`remove` /
        #: :meth:`retag` safe against stale handles.
        #: :meth:`check_invariants` compares it against the storage walk.
        self._handles: Dict[int, int] = {}
        #: live tags per root-literal section; backs the Fig. 6
        #: stale-section guard.
        self._section_bits = fmt.word_bits - fmt.literal_bits
        self._section_live = [0] * fmt.branching_factor
        self.registry = StatsRegistry()
        self.registry.register("translation_table", self.translation.stats)
        self.registry.register("tag_storage", self.storage.stats)
        for level in range(fmt.levels):
            self.registry.register(
                f"tree_level_{level}", self.tree.level_stats(level)
            )
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # observers

    @property
    def count(self) -> int:
        """Number of tags currently stored."""
        return self.storage.count

    @property
    def is_empty(self) -> bool:
        """True when the circuit holds no tags."""
        return self.storage.is_empty

    def peek_min(self) -> Optional[int]:
        """The smallest stored tag, from the head register (zero cost)."""
        return self.storage.min_tag

    def peek_head(self) -> Optional[ServedTag]:
        """The head entry without dequeuing it, from registers (zero cost).

        Returns None when the circuit is empty.  No memory access or
        stats traffic: the head link is latched by the operation that
        made it the head (:meth:`TagStorageMemory.peek_head`).
        """
        head = self.storage.peek_head()
        if head is None:
            return None
        tag, payload, address = head
        return ServedTag(tag=tag, payload=payload, address=address)

    def peek_tags(self, count: int) -> List[int]:
        """The raw tags of the next ``count`` entries, in service order.

        A link walk from the head over the storage cells: nothing moves
        and nothing is accounted, like :meth:`peek_head`.  Over-asking
        raises before anything is read, as :meth:`dequeue_batch` does.
        """
        return self.storage.peek_tags(count)

    def _check_monotone(self, tag: int) -> None:
        """Enforce the WFQ invariant: new tags never precede the minimum."""
        # min_tag, skipping the property
        self._check_monotone_against(tag, self.storage._head_tag)

    # ------------------------------------------------------------------
    # insert (sort-model input-side lookup)

    def insert(self, tag: int, payload: Any = None) -> int:
        """Sort ``tag`` into the circuit; returns its storage address.

        One fixed four-cycle operation: the tree finds the closest
        existing tag at or below ``tag`` (Figs. 4/5), the translation
        table converts it to a linked-list address, and the storage
        memory splices the new link in (Fig. 9).
        """
        if not (type(tag) is int and 0 <= tag <= self._max_tag):
            self.fmt.check_value(tag)  # raises the canonical error
        if not self.eager_marker_removal:
            self._check_monotone(tag)
        storage = self.storage
        if storage.is_empty:
            # Initialization mode (Section III-A).  In deferred-marker
            # mode the tree still holds stale markers from the busy
            # period that just drained; the next busy period may start
            # at *lower* tag values, which would make those stale
            # markers reachable again, so the initialization reset
            # flushes them.
            if not self.eager_marker_removal and not self.tree.is_empty:
                self.tree.clear_all()
            address = storage.insert_first(tag, payload)
        else:
            predecessor = self._locate_predecessor(tag)
            if predecessor is None:
                if self.modular:
                    raise ProtocolError(
                        f"no predecessor for wrapped tag {tag}: the "
                        "sections below it were not cleared before reuse"
                    )
                address = storage.insert_at_head(tag, payload)
            else:
                address = storage.insert_after(predecessor, tag, payload)
        self.tree.insert_marker(tag)
        self.translation.record(tag, address)
        self._handles[address] = tag
        self._section_live[tag >> self._section_bits] += 1
        self.cycles += FIXED_OP_CYCLES
        self.operations += 1
        return address

    def _locate_predecessor(self, tag: int) -> Optional[int]:
        """Tree search + translation lookup -> predecessor link address.

        In modular mode a raw-search miss means the tag is the logically
        smallest value of the *new lap* (it wrapped past zero while older
        tags are still live near the top of the range); its logical
        predecessor is then the largest marked value of the old lap — the
        raw maximum, found by following maximum bits down the tree.

        A traced run takes the reference :meth:`~MultiBitTree.search`,
        whose :class:`~repro.core.tree.SearchOutcome` reports backup-path
        use; it charges the same reads as either flavour's
        ``closest_at_most``.
        """
        tree = self.tree
        if self.tracer.enabled:
            closest = tree.search(tag).result
        else:
            closest = tree.closest_at_most(tag)
        if closest is None and self.modular and not tree.is_empty:
            closest = tree.max_marked()
        if closest is None:
            return None
        address = self.translation.lookup(closest)
        if address is None:
            raise ProtocolError(
                f"tree returned value {closest} with no translation entry"
            )
        return address

    # ------------------------------------------------------------------
    # dequeue (fixed-time head removal)

    def dequeue_min(self) -> ServedTag:
        """Remove and return the smallest tag in fixed time."""
        if self.storage.is_empty:
            raise EmptyStructureError("dequeue from an empty circuit")
        tag, payload, address = self.storage.dequeue_min()
        self._retire(tag, address)
        self.cycles += FIXED_OP_CYCLES
        self.operations += 1
        return ServedTag(tag, payload, address)

    def insert_and_dequeue(
        self, tag: int, payload: Any = None
    ) -> Tuple[ServedTag, int]:
        """Simultaneous insert + dequeue in one four-cycle operation.

        Models the Section III-C case where a store request and a service
        request arrive together: the departing head's slot is reused for
        the incoming tag.  Returns ``(served, new_address)``.
        """
        if not (type(tag) is int and 0 <= tag <= self._max_tag):
            self.fmt.check_value(tag)  # raises the canonical error
        if self.storage.is_empty:
            raise EmptyStructureError("insert_and_dequeue on an empty circuit")
        if not self.eager_marker_removal:
            self._check_monotone(tag)
        predecessor = self._locate_predecessor(tag)
        served_tag, served_payload, served_address, new_address = (
            self.storage.replace_min(predecessor, tag, payload)
        )
        self._retire(served_tag, served_address)
        self.tree.insert_marker(tag)
        self.translation.record(tag, new_address)
        self._handles[new_address] = tag
        self._section_live[tag >> self._section_bits] += 1
        self.cycles += FIXED_OP_CYCLES
        self.operations += 1
        served = ServedTag(served_tag, served_payload, served_address)
        return served, new_address

    def _retire(self, tag: int, address: int) -> None:
        self._handles.pop(address, None)
        self._section_live[tag >> self._section_bits] -= 1
        if self.eager_marker_removal:
            if self.translation.invalidate_if_points_to(tag, address):
                self.tree.remove_marker(tag)

    # ------------------------------------------------------------------
    # batched fast paths

    def insert_batch(
        self,
        tags: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        """Sort a whole run of tags with amortized bookkeeping.

        Service order and cycle accounting are identical to inserting
        per-op in the given order (equal tags keep their FCFS order
        because the internal sort is stable; physical addresses may
        differ since allocation follows sorted order), but the cost is
        one tree search for the entire run: the storage finger walks
        forward from the first predecessor, the tree marker pass reuses
        the previous value's path as a node-register cache, and stats
        are flushed in bulk.  Validation runs up front, so a rejected
        batch leaves the circuit untouched.  Eager-marker mode falls
        back to per-op inserts (its retire work is per-tag anyway).
        Returns storage addresses aligned with the input order.
        """
        tags = list(tags)
        count = len(tags)
        if payloads is None:
            payloads = [None] * count
        else:
            payloads = list(payloads)
            if len(payloads) != count:
                raise ConfigurationError(
                    f"{count} tags but {len(payloads)} payloads"
                )
        if count == 0:
            return []
        if self.eager_marker_removal:
            return [
                self.insert(tag, payload)
                for tag, payload in zip(tags, payloads)
            ]
        for tag in tags:
            self.fmt.check_value(tag)
        if self.storage.count + count > self.storage.capacity:
            raise CapacityError(
                f"batch of {count} tags overflows tag storage "
                f"({self.storage.count} of {self.storage.capacity} in use)"
            )
        minimum = self.storage.min_tag
        reference = minimum if minimum is not None else tags[0]
        if self.modular:
            space = self.fmt.capacity
            half = space // 2
            key = lambda value: (value - reference) % space  # noqa: E731
            for tag in tags:
                if key(tag) >= half:
                    raise ProtocolError(
                        f"tag {tag} is behind the window minimum "
                        f"{reference} (wrapped distance {key(tag)})"
                    )
            sort_key = key
        else:
            for tag in tags:
                if tag < reference:
                    raise ProtocolError(
                        f"WFQ invariant violated: tag {tag} below current "
                        f"minimum {reference} (use eager_marker_removal="
                        "True for general priority-queue workloads)"
                    )
            key = None
            sort_key = lambda value: value  # noqa: E731

        order = sorted(range(count), key=lambda i: sort_key(tags[i]))
        entries = [(tags[i], payloads[i]) for i in order]

        if self.storage.is_empty:
            # Initialization mode: flush stale markers exactly as the
            # per-op path does on the first insert of a busy period.
            self.flush_stale_markers()
            predecessor = None
        else:
            predecessor = self._locate_predecessor(entries[0][0])
            if predecessor is None and self.modular:
                raise ProtocolError(
                    f"no predecessor for wrapped tag {entries[0][0]}: the "
                    "sections below it were not cleared before reuse"
                )
        sorted_addresses = self.storage.insert_monotone_batch(
            entries, predecessor, key=key
        )
        self.tree.insert_markers(tag for tag, _ in entries)
        handles = self._handles
        for index in range(count):
            tag = entries[index][0]
            handles[sorted_addresses[index]] = tag
            if index + 1 == count or entries[index + 1][0] != tag:
                # Only the newest duplicate's address must be recorded.
                self.translation.record(tag, sorted_addresses[index])
        section_live = self._section_live
        shift = self._section_bits
        for tag in tags:
            section_live[tag >> shift] += 1
        self.cycles += FIXED_OP_CYCLES * count
        self.operations += count
        addresses: List[int] = [0] * count
        for position, index in enumerate(order):
            addresses[index] = sorted_addresses[position]
        return addresses

    def dequeue_batch(self, count: int) -> List[ServedTag]:
        """Serve the ``count`` smallest tags with amortized bookkeeping.

        For ``count`` within the current occupancy this matches
        ``count`` calls of :meth:`dequeue_min` — same service order,
        same empty-list state, same cycle accounting — with the storage
        reads/writes flushed once per batch.

        **Over-ask contract (raise-before-mutate):** when ``count``
        exceeds the occupancy the call raises
        :class:`EmptyStructureError` *before serving anything* — the
        circuit is left untouched.  This deliberately differs from the
        per-op loop, which would serve the remaining entries before
        raising on the first empty pop; the storage layer
        (:meth:`TagStorageMemory.dequeue_batch`) shares the same
        all-or-nothing contract.
        """
        if count < 0:
            raise ConfigurationError("dequeue count must be non-negative")
        if count > self.count:
            raise EmptyStructureError(
                f"dequeue_batch({count}) from a circuit holding {self.count}"
            )
        if count == 0:
            return []
        triples = self.storage.dequeue_batch(count)
        served = [
            ServedTag(tag=tag, payload=payload, address=address)
            for tag, payload, address in triples
        ]
        for entry in served:
            self._retire(entry.tag, entry.address)
        self.cycles += FIXED_OP_CYCLES * count
        self.operations += count
        return served

    # ------------------------------------------------------------------
    # dynamic updates (remove-by-handle, retag)

    def is_live_handle(self, handle: int) -> bool:
        """Whether ``handle`` names a live (not yet retired) entry.

        False for a bool or a non-integer (:func:`handle_index`), so the
        handle-taking operations below refuse one before any access.
        """
        address = handle_index(handle)
        return address is not None and address in self._handles

    def handle_tag(self, handle: int) -> Optional[int]:
        """The tag a live handle was issued for (None when stale)."""
        return self._handles[handle] if self.is_live_handle(handle) else None

    def handle_payload(self, handle: int) -> Any:
        """A live handle's payload (debug peek, no access accounting)."""
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        return self.storage._memory.peek(handle).payload

    @property
    def live_handles(self) -> int:
        """Number of live handles (equals :attr:`count` by invariant)."""
        return len(self._handles)

    def remove(self, handle: int) -> ServedTag:
        """Unlink the live entry at ``handle``, wherever it sits.

        ``handle`` is the storage address an insert returned.  The entry
        is spliced out of the linked list and its slot returned to the
        Fig. 10 empty list; the value's tree marker and translation
        entry are cleaned up eagerly when (and only when) the removed
        link was the last of its value — a removed value must never be
        findable again, in either marker mode.  A stale handle (already
        served, removed, or never issued) raises :class:`ProtocolError`
        without touching anything.

        Access budget: removing the head is exactly a head removal
        (1R + 1W); removing mid-list costs one tree search (one read
        per level) plus one translation read to anchor the walk, one
        read per link walked through the duplicate run, and the
        four-access unlink window (2R + 2W when the anchor is the
        immediate predecessor).  Cycles: :data:`FIXED_OP_CYCLES` plus
        one per extra duplicate-run read beyond the fixed window.
        Returns the removed entry as a :class:`ServedTag`.
        """
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        handle = handle_index(handle)  # a numpy integer → a Python int
        tag = self._handles[handle]
        storage = self.storage
        translation = self.translation
        extra_cycles = 0
        predecessor_address: Optional[int] = None
        predecessor_tag: Optional[int] = None
        if handle == storage._head_address:
            removed_tag, payload = storage.remove_at(handle, None)
        else:
            if tag == storage._head_tag:
                # The victim shares the minimum tag: its run starts at
                # the head, so the walk anchors there (a register; no
                # tree search — a search below the minimum could land
                # on a stale marker in deferred mode).
                start = storage._head_address
            else:
                tree = self.tree
                closest = tree.closest_at_most(tag - 1) if tag > 0 else None
                if closest is None and self.modular and not tree.is_empty:
                    closest = tree.max_marked()
                if closest is None:
                    raise ProtocolError(
                        f"no predecessor value below live tag {tag}"
                    )
                start = translation.lookup(closest)
                if start is None:
                    raise ProtocolError(
                        f"tree returned value {closest} with no "
                        f"translation entry"
                    )
            (
                removed_tag,
                payload,
                predecessor_address,
                predecessor_tag,
                reads,
            ) = storage.unlink(handle, start)
            # The fixed window covers two reads (anchor + victim); each
            # extra duplicate walked costs one more cycle.
            extra_cycles = max(0, reads - 2)
        if removed_tag != tag:
            raise ProtocolError(
                f"handle {handle} registered tag {tag} but storage held "
                f"{removed_tag}"
            )
        del self._handles[handle]
        self._section_live[tag >> self._section_bits] -= 1
        # Translation/marker maintenance is eager in *both* marker
        # modes: unlike a dequeue (whose stale markers stay shadowed by
        # the live minimum), an arbitrary removal can leave a stale
        # marker above the minimum, where a later search would find it.
        if translation.lookup(tag) == handle:
            if predecessor_tag == tag:
                # Older duplicates remain: the immediate predecessor is
                # the new newest link of this value.
                translation.record(tag, predecessor_address)
            else:
                # Last link of its value: entry and marker both go.
                translation.invalidate(tag)
                self.tree.remove_marker(tag)
        self.cycles += FIXED_OP_CYCLES + extra_cycles
        self.operations += 1
        return ServedTag(tag, payload, handle)

    def retag(self, handle: int, new_tag: int) -> int:
        """Move the live entry at ``handle`` to ``new_tag`` (repin).

        A compound remove + insert: the entry keeps its payload, the
        old handle dies, and the returned address is the new handle.
        Costs and accounting are exactly one :meth:`remove` plus one
        :meth:`insert` (two operations).  Validation — value range and,
        in deferred-marker mode, WFQ monotonicity against the
        *post-removal* minimum — runs before anything mutates, so a
        rejected retag leaves the circuit untouched.
        """
        self._validate_retag(handle, new_tag)
        # Class-qualified, so a traced circuit emits one retag event
        # rather than a remove and an insert event as well.
        removed = TagSortRetrieveCircuit.remove(self, handle)
        return TagSortRetrieveCircuit.insert(self, new_tag, removed.payload)

    def _validate_retag(self, handle: int, new_tag: int) -> None:
        """Reject an illegal retag before any state changes."""
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        self.fmt.check_value(new_tag)
        if not self.eager_marker_removal:
            storage = self.storage
            minimum = storage._head_tag
            if handle == storage._head_address:
                # Removing the head promotes its successor; the head
                # link (and its successor tag) is latched in registers.
                minimum = storage._memory.peek(handle).next_tag
            self._check_monotone_against(new_tag, minimum)

    # ------------------------------------------------------------------
    # telemetry inputs

    @property
    def free_list_depth(self) -> int:
        """Links currently threaded on the storage empty list (Fig. 10).

        Addresses handed out by the init counter and later freed; a
        register-derived quantity (no memory access).
        """
        storage = self.storage
        return (
            storage.capacity
            - storage.count
            - storage.allocations_remaining_in_counter
        )

    def _take_used_backup(self) -> bool:
        """Read and clear the tree's last search probe.

        A traced insert searches with the reference
        :meth:`~MultiBitTree.search` (see :meth:`_locate_predecessor`),
        which leaves its :class:`~repro.core.tree.SearchOutcome` behind.
        """
        tree = self.tree
        outcome = tree.last_outcome
        tree.last_outcome = None
        return bool(outcome.used_backup) if outcome else False

    # ------------------------------------------------------------------
    # stale-section maintenance (Fig. 6)

    def flush_stale_markers(self) -> None:
        """Initialization-mode reset: wipe last busy period's markers.

        Only meaningful while the storage is empty (Section III-A): with
        no live tags, every marker in the tree is stale, and the next
        busy period may start at lower values that would otherwise find
        them.  The per-op and batched insert paths both perform this
        flush automatically on the first insert of a busy period; wrap
        managers call it directly when they need the flush to precede
        their own section maintenance.  No-op in eager-marker mode (no
        stale markers exist) or when the tree is already clean.
        """
        if not self.storage.is_empty:
            raise ProtocolError(
                f"cannot flush markers with {self.storage.count} live "
                "tags in storage"
            )
        if not self.eager_marker_removal and not self.tree.is_empty:
            self.tree.clear_all()

    def clear_stale_section(self, root_literal: int) -> int:
        """Bulk-delete the markers of one vacated sixteenth of tag space.

        Called by the scheduler as the wrapping tag window advances past a
        root-literal section (Fig. 6).  Refuses to clear a section that
        still holds live tags.  Returns the number of stale marker values
        deleted.
        """
        if not 0 <= root_literal < self.fmt.branching_factor:
            raise ConfigurationError(
                f"root literal {root_literal} outside "
                f"[0, {self.fmt.branching_factor})"
            )
        if self._section_live[root_literal]:
            # The per-section occupancy counters guard the clear; the
            # handle registry names an offender.
            example = min(
                tag
                for tag in self._handles.values()
                if tag >> self._section_bits == root_literal
            )
            raise ProtocolError(
                f"section {root_literal} still holds "
                f"{self._section_live[root_literal]} live "
                f"tags (e.g. {example}); cannot clear"
            )
        return self.tree.clear_root_section(root_literal)

    # ------------------------------------------------------------------
    # checkpoint / restore (snapshots and shard migration)

    def to_state(self) -> dict:
        """Exact serializable snapshot of the whole circuit.

        Bundles the three structures' snapshots (tree markers,
        translation entries, linked-list storage including the threaded
        free list) with the circuit-level registers: cycle/operation
        accounting, the handle registry, and the Fig. 6 per-section
        occupancy counters.  Restoring the snapshot — into this process
        or another — resumes the exact service order, accounting, and
        invariant state.  Tracer attachment is deliberately *not* part
        of the state: telemetry is a property of the hosting process.
        """
        return {
            "kind": "sort_retrieve_circuit",
            "config": self.describe(),
            "cycles": self.cycles,
            "operations": self.operations,
            "handles": sorted(self._handles.items()),
            "section_live": list(self._section_live),
            "tree": self.tree.to_state(),
            "translation": self.translation.to_state(),
            "storage": self.storage.to_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance.

        The circuit must have been constructed with the same
        configuration (:meth:`describe` must match the snapshot's, once
        the keys older writers emitted are dropped — see
        :func:`~repro.core.engine.read_legacy_keys`).  The engine is a
        hosting-process choice, like tracer attachment, so any flavour
        restores any flavour's snapshot.  Internal :class:`AccessStats`
        objects are mutated in place, so the stats registry and any
        attached tracer stay live.
        """
        from .engine import read_legacy_keys  # noqa: PLC0415 - import cycle

        if state.get("kind") != "sort_retrieve_circuit":
            raise ConfigurationError(
                f"not a circuit snapshot: kind={state.get('kind')!r}"
            )
        _, snapshot_config = read_legacy_keys(state["config"])
        if snapshot_config != self.describe():
            raise ConfigurationError(
                f"snapshot config {state['config']} does not match this "
                f"circuit's {self.describe()}"
            )
        self.tree.load_state(state["tree"])
        self.translation.load_state(state["translation"])
        self.storage.load_state(state["storage"])
        self.cycles = state["cycles"]
        self.operations = state["operations"]
        handles = state.get("handles")
        if handles is None:
            # Pre-dynamic-update snapshot: rebuild the handle registry
            # from the authoritative storage walk (peek-only, no
            # accounting traffic).
            self._handles = {
                address: tag for tag, address in self.storage.walk()
            }
        else:
            self._handles = {
                int(address): tag for address, tag in handles
            }
        self._section_live = list(state["section_live"])

    # ------------------------------------------------------------------
    # verification

    def check_invariants(self) -> None:
        """Deep-verify tree, storage, and cross-structure consistency.

        Everything is checked against the authoritative storage walk:
        the structure invariants, the handle registry (address -> tag,
        which implies the stored tag multiset), marker coverage, the
        section occupancy counters, and the newest-duplicate translation
        pointers.
        """
        self.storage.check_invariants()
        self.tree.check_invariants()
        walked = self.storage.walk()
        stored = [tag for tag, _ in walked]
        expected_handles = {address: tag for tag, address in walked}
        if self._handles != expected_handles:
            extra = sorted(set(self._handles) - set(expected_handles))
            missing = sorted(set(expected_handles) - set(self._handles))
            raise ProtocolError(
                f"handle registry diverged from storage: "
                f"{len(self._handles)} registered vs {len(expected_handles)} "
                f"live (stale={extra[:4]}, missing={missing[:4]})"
            )
        stored_values = set(stored)
        marked = set(self.tree.marked_values())
        for value in stored_values:
            if value not in marked:
                raise ProtocolError(f"live tag {value} lost its tree marker")
        if self.eager_marker_removal:
            for value in marked:
                if value not in stored_values:
                    raise ProtocolError(
                        f"eager mode left a stale marker for {value}"
                    )
        sections = [0] * self.fmt.branching_factor
        for tag in stored:
            sections[tag >> self._section_bits] += 1
        if sections != self._section_live:
            raise ProtocolError(
                f"section occupancy counters diverged from storage: "
                f"{self._section_live} vs {sections}"
            )
        # Every live value's translation entry must point at its newest
        # duplicate, which is the last of its equal-valued run in the list.
        newest = {}
        for tag, address in walked:
            newest[tag] = address
        for value, address in newest.items():
            recorded = self.translation.lookup(value)
            if recorded != address:
                raise ProtocolError(
                    f"translation entry for {value} points at {recorded}, "
                    f"newest duplicate is at {address}"
                )


class FusedSortRetrieveCircuit(TagSortRetrieveCircuit):
    """The turbo engine: the same circuit over the fused structures.

    Every operation is :class:`TagSortRetrieveCircuit`'s own; only the
    structure primitives differ.  :class:`~repro.core.tree.FusedMultiBitTree`,
    :class:`~repro.core.translation.FusedTranslationTable` and
    :class:`~repro.core.tag_storage.FusedTagStorageMemory` override the
    per-operation methods with raw-cell versions that charge the same
    reads and writes, so cycles, access counters, served order and
    snapshots equal the gate reference's.
    """

    mode = "turbo"
    tree_class = FusedMultiBitTree
    translation_class = FusedTranslationTable
    storage_class = FusedTagStorageMemory
