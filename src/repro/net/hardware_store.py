"""The hardware sort/retrieve circuit as a WFQ tag store.

This is the glue of paper Fig. 1: the WFQ tag-computation block produces
*real-valued* virtual finishing tags, while the circuit sorts fixed-width
integers.  :class:`HardwareTagStore` quantizes each tag to the circuit's
word format, manages the cyclical tag space of Fig. 6, and plugs into
:class:`~repro.sched.wfq.WFQScheduler` through the
:class:`~repro.sched.wfq.TagStore` protocol.

Wrap management follows the paper's Fig. 6 discipline.  Tags are tracked
*unwrapped* (a monotone integer); the circuit stores them modulo the tag
space.  A **clear frontier** sweeps ahead of the inserts: before the first
insert whose unwrapped value enters a new root-literal section, every
section between the frontier and it is bulk-cleared of the previous lap's
stale markers (:meth:`~repro.core.sort_retrieve.TagSortRetrieveCircuit.clear_stale_section`),
so a raw closest-match search can never land on a stale marker across the
wrap boundary.  A **span guard** enforces the sequence-number condition
that makes the wrapped window unambiguous: the live tag span must stay
under half the tag space, or the configured ``granularity`` is too fine
for the workload and a :class:`~repro.hwsim.errors.ProtocolError` reports
it.

Quantization effects are first-class: two tags in the same quantum are
served FCFS, and the resulting QoS degradation versus the exact software
sorter is what the granularity benchmarks measure.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..core.engine import make_circuit, read_legacy_keys, resolve_mode
from ..core.words import PAPER_FORMAT, WordFormat
from ..hwsim.errors import ConfigurationError, ProtocolError


class HardwareTagStore:
    """Quantizing, wrap-managing adapter over the sort/retrieve circuit."""

    def __init__(
        self,
        *,
        fmt: WordFormat = PAPER_FORMAT,
        granularity: float = 1.0,
        capacity: int = 4096,
        mode: Optional[str] = None,
        tracer=None,
    ) -> None:
        if granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        self.fmt = fmt
        self.granularity = granularity
        self.mode = resolve_mode(mode)
        self.circuit = make_circuit(
            fmt,
            mode=self.mode,
            capacity=capacity,
            modular=True,
            tracer=tracer,
        )
        self._section_span = fmt.capacity // fmt.branching_factor
        # Tag-space scalars cached off the word-format property chain:
        # the per-op adapter paths consult them several times per push.
        self._tag_space = fmt.capacity
        self._half_space = fmt.capacity // 2
        self._branching = fmt.branching_factor
        #: highest unwrapped section index ever prepared for inserts
        self._frontier: Optional[int] = None
        self._last_served_unwrapped: Optional[int] = None
        self._min_inserted_unwrapped: Optional[int] = None
        self.sections_cleared = 0
        self.markers_purged = 0
        self.clamped_inserts = 0
        self.clamp_error_quanta = 0

    def describe(self) -> dict:
        """Machine-readable configuration (circuit config + granularity).

        The canonical ``config`` block for JSONL trace headers produced
        by runs driven through this store.
        """
        config = self.circuit.describe()
        config["granularity"] = self.granularity
        return config

    # ------------------------------------------------------------------
    # quantization and wrap management

    def quantize(self, finish_tag: float) -> int:
        """Unwrapped (monotone, unbounded) integer tag."""
        return int(finish_tag / self.granularity)

    def _span_floor(self) -> Optional[int]:
        """A lower bound on the smallest live unwrapped tag.

        Service is monotone, so the last served tag bounds every live tag
        from below; before any service, the smallest insert does.
        """
        if self._last_served_unwrapped is not None:
            return self._last_served_unwrapped
        return self._min_inserted_unwrapped

    def _prepare_sections(self, unwrapped: int) -> None:
        """Advance the clear frontier to the target unwrapped section.

        Every section the frontier passes is bulk-cleared of the previous
        lap's stale markers (the Fig. 6 maintenance step).  On the first
        lap the clears are no-ops because the tree starts empty.
        """
        target = unwrapped // self._section_span
        if self._frontier is None:
            self._frontier = target
            return
        while self._frontier < target:
            self._frontier += 1
            section = self._frontier % self._branching
            purged = self.circuit.clear_stale_section(section)
            if purged:
                self.markers_purged += purged
                self.sections_cleared += 1

    def _is_behind_minimum(self, raw: int) -> bool:
        minimum = self.circuit.storage._head_tag  # peek_min register
        if minimum is None:
            return False
        distance = (raw - minimum) % self._tag_space
        return distance >= self._half_space

    # ------------------------------------------------------------------
    # TagStore protocol

    def push(self, finish_tag: float, flow_id: int, payload=None) -> int:
        """Quantize and insert one tag; payload carries the exact tag.

        ``payload`` defaults to ``flow_id``; the circuit keeps
        ``(finish_tag, payload)``.  One circuit routes nothing, so
        ``flow_id`` is otherwise unused: this is the call a
        :class:`~repro.fabric.fabric.ScheduleFabric` takes too.  Returns
        the circuit handle (storage address) of the inserted entry,
        usable with :meth:`remove` / :meth:`retag` until the entry is
        served.  Callers driving the plain
        :class:`~repro.sched.wfq.TagStore` protocol may ignore it.

        The paper asserts that "the WFQ algorithm always produces tags
        larger than, or equal to, the smallest tag already in the system"
        (Section III-A) — the property its deferred marker deletion rests
        on.  Exact WFQ violates it occasionally: a newly busy high-weight
        session can receive a finishing tag *below* the current minimum
        (its tag starts from virtual time, which trails the minimum
        outstanding tag).  The hardware must resolve this with registers
        only, so such a tag is **clamped to the current minimum's
        quantum**: it is served FCFS alongside the minimum instead of
        strictly before it.  ``clamped_inserts`` / ``clamp_error_quanta``
        quantify how often and by how much, and the granularity benchmark
        sweeps the resulting QoS error.  Clamping also keeps circuit
        service monotone in raw tag order, which is exactly what makes
        stale markers unreachable (they are all at or below the last
        served value).
        """
        if payload is None:
            payload = flow_id
        circuit = self.circuit
        storage = circuit.storage
        if storage._count == 0:  # len(self), minus two hops
            # The scheduler drained: the circuit re-enters initialization
            # mode (stale markers flush), so lap/frontier bookkeeping
            # restarts as a fresh epoch, with no span floor and no live
            # minimum to clamp to.
            self._frontier = None
            self._last_served_unwrapped = None
            self._min_inserted_unwrapped = None
            floor = minimum = None
        else:
            floor = self._last_served_unwrapped  # _span_floor()
            if floor is None:
                floor = self._min_inserted_unwrapped
            minimum = storage._head_tag  # peek_min register
        unwrapped = int(finish_tag / self.granularity)  # quantize()
        raw = unwrapped % self._tag_space
        regressed = False
        if floor is not None:
            # The span guard must precede the behind-minimum test: a raw
            # value more than half the space *ahead* is indistinguishable
            # from one behind under serial-number comparison, and only
            # the unwrapped value can tell the two apart.
            if unwrapped - floor >= self._half_space:
                raise ProtocolError(
                    f"live tag span {unwrapped - floor} quanta exceeds half "
                    f"the {self._tag_space}-value tag space; increase "
                    f"granularity (currently {self.granularity}) or widen "
                    f"the word format"
                )
            regressed = unwrapped < floor
        # A regression bigger than half the space aliases as "forward"
        # under raw serial-number comparison, so the unwrapped check must
        # come first; the raw check then covers within-window reordering.
        if regressed or (
            minimum is not None
            and (raw - minimum) % self._tag_space >= self._half_space
        ):
            # Clamp to the live minimum's quantum.
            quanta = floor - unwrapped if regressed else 0
            self.clamp_error_quanta += quanta
            self.clamped_inserts += 1
            tracer = circuit.tracer
            if tracer.enabled:
                # The clamp is the store's backup path: the tag could
                # not be inserted where WFQ wanted it.
                tracer.event(
                    "clamp", unwrapped=unwrapped, raw=minimum, quanta=quanta
                )
            return circuit.insert(minimum, payload=(finish_tag, payload))
        frontier = self._frontier
        if frontier is None or frontier < unwrapped // self._section_span:
            self._prepare_sections(unwrapped)
        min_inserted = self._min_inserted_unwrapped
        if min_inserted is None or unwrapped < min_inserted:
            self._min_inserted_unwrapped = unwrapped
        return circuit.insert(raw, payload=(finish_tag, payload))

    def push_batch(self, items: Iterable[Sequence]) -> None:
        """Quantize and insert a run of :meth:`push` argument tuples.

        Items are ``(finish_tag, flow_id)`` or ``(finish_tag, flow_id,
        payload)``, as the fabric takes them: the payload is the last
        element.  Service-order equivalent to calling :meth:`push` per
        item, with the whole wrap discipline — span guard, clamping, frontier
        advance — evaluated in one scalar pass over the quantized tags
        before a single :meth:`TagSortRetrieveCircuit.insert_batch`
        call touches the circuit.  Validation therefore runs up front:
        a span-guard violation raises *before* any insert, leaving the
        store untouched (the per-op loop would stop mid-run instead).
        """
        items = list(items)
        if not items:
            return
        fresh_epoch = len(self) == 0
        if fresh_epoch:
            self._frontier = None
            self._last_served_unwrapped = None
            self._min_inserted_unwrapped = None
        space = self.fmt.capacity
        half = space // 2
        last_served = self._last_served_unwrapped
        min_inserted = self._min_inserted_unwrapped
        # The live minimum in unwrapped terms: it can only rise during a
        # pure-insert run (anything logically below it is clamped), so a
        # scalar mirror of the circuit's head register suffices.
        min_live: Optional[int] = None
        raw_min = self.circuit.peek_min()
        if raw_min is not None:
            base = last_served if last_served is not None else min_inserted
            if base is None:
                base = 0
            min_live = base + ((raw_min - base) % space)
        raws: List[int] = []
        payloads: List[Tuple[float, int]] = []
        clamped = 0
        clamp_quanta = 0
        first_section: Optional[int] = None
        prepare_target: Optional[int] = None
        for item in items:
            finish_tag = item[0]
            unwrapped = self.quantize(finish_tag)
            floor = last_served if last_served is not None else min_inserted
            if floor is not None and unwrapped - floor >= half:
                raise ProtocolError(
                    f"live tag span {unwrapped - floor} quanta exceeds half "
                    f"the {space}-value tag space; increase granularity "
                    f"(currently {self.granularity}) or widen the word format"
                )
            raw = unwrapped % space
            regressed = floor is not None and unwrapped < floor
            behind = (
                min_live is not None
                and (raw - min_live) % space >= half
            )
            if regressed or behind:
                raw = min_live % space
                raws.append(raw)
                quanta = max(0, floor - unwrapped) if floor is not None else 0
                clamp_quanta += quanta
                clamped += 1
                tracer = self.circuit.tracer
                if tracer.enabled:
                    tracer.event(
                        "clamp", unwrapped=unwrapped, raw=raw, quanta=quanta
                    )
            else:
                if first_section is None:
                    first_section = unwrapped // self._section_span
                if prepare_target is None or unwrapped > prepare_target:
                    prepare_target = unwrapped
                if min_inserted is None or unwrapped < min_inserted:
                    min_inserted = unwrapped
                if min_live is None or unwrapped < min_live:
                    min_live = unwrapped
                raws.append(raw)
            payloads.append((finish_tag, item[-1]))
        if prepare_target is not None:
            if fresh_epoch:
                # The circuit re-enters initialization mode, so per-op
                # pushes would flush the whole tree at the first insert
                # — *before* any frontier clear of this busy period.
                # Flush here for the same effect; otherwise the clears
                # below would purge (and count) stale markers the flush
                # is about to wipe anyway.
                self.circuit.flush_stale_markers()
            if self._frontier is None:
                # Mirror the per-op discipline: the first prepared
                # section of an epoch anchors the frontier (no clears);
                # the advance to the batch maximum then clears every
                # section it passes.
                self._frontier = first_section
            self._prepare_sections(prepare_target)
        self._min_inserted_unwrapped = min_inserted
        self.circuit.insert_batch(raws, payloads)
        self.clamped_inserts += clamped
        self.clamp_error_quanta += clamp_quanta

    def pop_batch(self, count: int) -> List[Tuple[float, int]]:
        """Serve the ``count`` smallest tags; exact (float) tags back.

        Equivalent to ``count`` calls of :meth:`pop_min`, with the
        circuit-side bookkeeping amortized by
        :meth:`TagSortRetrieveCircuit.dequeue_batch`.  Service is
        monotone, so the last served tag alone sets the new service
        floor: it is derived once per batch, not once per entry.
        """
        served = self.circuit.dequeue_batch(count)
        if served:
            base = self._span_floor()
            if base is None:
                base = 0
            unwrapped = base + ((served[-1].tag - base) % self._tag_space)
            if (
                self._last_served_unwrapped is None
                or unwrapped > self._last_served_unwrapped
            ):
                self._last_served_unwrapped = unwrapped
        # tuple(): a restored payload is a JSON list; pop_min hands
        # back a pair either way.
        return [tuple(entry.payload) for entry in served]

    def pop_min(self) -> Tuple[float, Any]:
        """Serve the smallest tag; returns the exact (float) tag."""
        served = self.circuit.dequeue_min()
        finish_tag, payload = served.payload
        # Reconstruct the unwrapped value of the served raw tag: service
        # is monotone, so it is the smallest consistent value at or above
        # the previous floor.
        base = self._span_floor()
        if base is None:
            base = 0
        unwrapped = base + ((served.tag - base) % self._tag_space)
        if (
            self._last_served_unwrapped is None
            or unwrapped > self._last_served_unwrapped
        ):
            self._last_served_unwrapped = unwrapped
        return finish_tag, payload

    # ------------------------------------------------------------------
    # dynamic updates (timer cancel / deadline repin)

    def remove(self, handle: int) -> Tuple[float, Any]:
        """Cancel the live entry at ``handle``; exact (tag, payload) back.

        ``handle`` is the value :meth:`push` returned.  The entry is
        unlinked wherever it sits (no drain-and-refill) and its exact
        payload returned.  Wrap bookkeeping is untouched: the service
        floor only tracks *served* tags, and a cancelled entry was never
        served.  A stale handle raises
        :class:`~repro.hwsim.errors.ProtocolError` without touching
        anything.
        """
        removed = self.circuit.remove(handle)
        return removed.payload

    def retag(self, handle: int, new_finish_tag: float) -> int:
        """Repin the live entry at ``handle`` to a new finishing tag.

        A cancel plus a re-push under the full wrap discipline — span
        guard, behind-minimum clamping, frontier advance — so the moved
        entry lands exactly where a fresh :meth:`push` of
        ``new_finish_tag`` with the same payload would.  Returns the
        entry's new handle.

        The new tag comes from outside, so it must first lie in the live
        window: less than half the tag space ahead of *or behind* the
        span floor.  A tag far behind would otherwise, when the entry is
        its store's only one, empty the store at the removal and open a
        fresh epoch at that quantum, dragging the span floor with it.
        The check runs before the removal, so a rejected repin leaves
        the store untouched, and its message names the tag as sent,
        never its quantized offset (hundreds of digits for ``1e308``).
        """
        floor = self._span_floor()
        if floor is not None:
            offset = self.quantize(new_finish_tag) - floor
            if not -self._half_space < offset < self._half_space:
                side = "ahead of" if offset > 0 else "behind"
                raise ProtocolError(
                    f"tag {new_finish_tag!r} lies {side} the live window: "
                    f"a repin tag must stay within {self._half_space - 1} "
                    f"quanta of the span floor (half the "
                    f"{self._tag_space}-value tag space at granularity "
                    f"{self.granularity})"
                )
        _, payload = self.circuit.remove(handle).payload
        return self.push(new_finish_tag, payload)

    def handle_payload(self, handle: int) -> Tuple[float, Any]:
        """A live handle's exact ``(finish_tag, payload)`` (no access
        accounting; a stale handle raises ProtocolError)."""
        finish_tag, payload = self.circuit.handle_payload(handle)
        return finish_tag, payload

    def owner_head(self, handle: int) -> Optional[Tuple[float, Any]]:
        """The head of the circuit holding ``handle`` — the one circuit
        — where a push below it is clamped to."""
        return self.peek_min_exact()

    def add_relocation_listener(self, listener) -> None:
        """Never called: one circuit never moves a live entry."""

    def accepts_without_clamp(self, finish_tag: float) -> bool:
        """Whether a push of ``finish_tag`` lands at its own quantum.

        True when the tag passes the span guard and is not behind the
        live minimum — a push would place it exactly where the sort
        wants it, with no FCFS clamping and no
        :class:`~repro.hwsim.errors.ProtocolError`.  The fabric's
        backlog migration uses this to move only entries the target
        shard can hold without degrading their service position.
        Peek-only: nothing is touched or accounted.
        """
        if self.circuit.storage._count == 0:
            # A push into a drained store opens a fresh epoch: every
            # floor resets, so any tag is accepted at its own quantum.
            return True
        unwrapped = self.quantize(finish_tag)
        floor = self._span_floor()
        if floor is not None:
            if unwrapped - floor >= self._half_space:
                return False
            if unwrapped < floor:
                return False
        return not self._is_behind_minimum(unwrapped % self._tag_space)

    def peek_min_exact(self) -> Optional[Tuple[float, int]]:
        """The head entry's exact (tag, payload) without dequeuing.

        Hardware keeps the head link's contents in registers (it was
        read when it became the head), so this costs no memory access —
        modeled by the head-register accessor
        :meth:`~repro.core.sort_retrieve.TagSortRetrieveCircuit.peek_head`,
        which stays outside the access-stats accounting by contract.
        """
        head = self.circuit.peek_head()
        if head is None:
            return None
        return head.payload

    def __len__(self) -> int:
        return self.circuit.count

    # ------------------------------------------------------------------
    # checkpoint / restore (snapshots and shard migration)

    def to_state(self) -> dict:
        """Exact serializable snapshot: circuit state + wrap bookkeeping.

        Everything the Fig. 6 wrap discipline tracks outside the circuit
        — clear frontier, unwrapped service floor, clamp counters — is
        captured alongside the full circuit snapshot, so a restored
        store resumes mid-lap with identical behaviour and accounting.
        """
        return {
            "kind": "hardware_tag_store",
            "mode": self.mode,
            "granularity": self.granularity,
            "frontier": self._frontier,
            "last_served_unwrapped": self._last_served_unwrapped,
            "min_inserted_unwrapped": self._min_inserted_unwrapped,
            "sections_cleared": self.sections_cleared,
            "markers_purged": self.markers_purged,
            "clamped_inserts": self.clamped_inserts,
            "clamp_error_quanta": self.clamp_error_quanta,
            "circuit": self.circuit.to_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "hardware_tag_store":
            raise ConfigurationError(
                f"not a tag store snapshot: kind={state.get('kind')!r}"
            )
        if state["granularity"] != self.granularity:
            raise ConfigurationError(
                f"snapshot granularity {state['granularity']} != "
                f"{self.granularity}"
            )
        self.circuit.load_state(state["circuit"])
        self._frontier = state["frontier"]
        self._last_served_unwrapped = state["last_served_unwrapped"]
        self._min_inserted_unwrapped = state["min_inserted_unwrapped"]
        self.sections_cleared = state["sections_cleared"]
        self.markers_purged = state["markers_purged"]
        self.clamped_inserts = state["clamped_inserts"]
        self.clamp_error_quanta = state["clamp_error_quanta"]

    @classmethod
    def from_state(
        cls, state: dict, *, mode: Optional[str] = None, tracer=None
    ) -> "HardwareTagStore":
        """Reconstruct a store from a :meth:`to_state` snapshot.

        ``mode`` overrides the engine at restore time (snapshots are
        engine-neutral); when omitted, the snapshot's own ``mode`` key
        — or, for pre-engine snapshots, its circuit's legacy ``turbo``
        flag — picks the engine (:func:`read_legacy_keys`).
        """
        config = state["circuit"]["config"]
        fmt = WordFormat(
            levels=config["levels"], literal_bits=config["literal_bits"]
        )
        if mode is None:
            mode, _ = read_legacy_keys(
                state, default_mode=read_legacy_keys(config)[0]
            )
        store = cls(
            fmt=fmt,
            granularity=state["granularity"],
            capacity=config["capacity"],
            mode=mode,
        )
        store.load_state(state)
        if tracer is not None:
            store.attach_tracer(tracer)
        return store

    # ------------------------------------------------------------------
    # telemetry

    @property
    def tracer(self):
        """The circuit's tracer (the shared :data:`NULL_TRACER` when off)."""
        return self.circuit.tracer

    def attach_tracer(self, tracer) -> None:
        """Start tracing: circuit ops plus the store's clamp events."""
        self.circuit.attach_tracer(tracer)

    def detach_tracer(self) -> None:
        """Stop tracing and restore the uninstrumented hot paths."""
        self.circuit.detach_tracer()

    # ------------------------------------------------------------------
    # introspection for experiments

    @property
    def cycles(self) -> int:
        """Clock cycles the circuit has consumed (4 per operation)."""
        return self.circuit.cycles

    @property
    def operations(self) -> int:
        """Circuit operations performed."""
        return self.circuit.operations
