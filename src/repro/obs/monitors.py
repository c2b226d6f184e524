"""Online invariant monitors: the paper's guarantees, checked live.

Each monitor encodes one guarantee from the paper and watches the event
stream for an operation that breaks it:

===========================  ========================================
monitor                      paper guarantee
===========================  ========================================
``insert_budget``            Fig. 9 / Section III-A: an insert costs at
                             most 2 reads + 2 writes on the tag storage
                             (the fixed four-access window; the
                             init-counter allocation and the first
                             insert into an empty memory come in
                             *under* budget).
``dequeue_bound``            Section II-C sort model: a dequeue is a
                             fixed-cost head removal — no search.  In
                             deferred-marker (paper) mode it touches
                             the tag storage only (1R + 1W); eager mode
                             adds the marker/translation removal, still
                             bounded by the W/k tree depth.
``free_list_conservation``   Fig. 10: link slots are conserved —
                             occupancy moves by exactly +1 per insert,
                             −1 per dequeue, 0 per combined
                             insert+dequeue, and every dequeue threads
                             its freed link back onto the empty list
                             (an explicit storage write; the combined
                             op reuses the slot instead).
``handle_liveness``          Dynamic updates: a remove/retag names a
                             handle that is live per the event stream —
                             issued by an insert, not yet served,
                             removed, or retagged — and the tag it
                             reports matches the tag the handle was
                             issued for.
``free_list_removal``        Fig. 10 under removal: an arbitrary unlink
                             returns exactly one slot to the empty list
                             (occupancy −1, free-list depth +1) and
                             performs the empty-list threading write
                             (two storage writes mid-list: the splice
                             and the release; one at the head).
``serve_monotonic``          Section II-B WFQ invariant: served tags
                             are non-decreasing (wrap-aware in modular
                             mode) until the circuit drains and a new
                             busy period may legitimately restart
                             lower.
``coverage``                 Figs. 6/11 consistency: only live (still
                             inserted) values are ever served, a
                             stale-section clear never hits a section
                             holding live tags, and a marker flush only
                             happens with the storage empty.
``fabric_tournament_order``  Fabric (``repro.fabric``) k-way merge: a
                             shard serves only while no other shard
                             holds a live tag preceding it (ties to the
                             lower shard index).  Inert outside fabric
                             traces.
``fabric_balance``           Fabric routing bookkeeping: the occupancy
                             vector each ``rebalance`` event reports
                             matches the per-shard event streams.
===========================  ========================================

Stateful monitors key their reference state by the event's
``component`` attribute, so a fabric trace interleaving N shards is
screened as N independent stores plus the two cross-shard checks; a
single-circuit trace (no ``component``) collapses to one key and
behaves exactly as before.

A :class:`MonitorSuite` is a :class:`~repro.obs.tracer.Tracer` observer:
attach it and every emitted event is screened *while the soak runs*.
Violations are recorded on the suite and — when the suite knows its
tracer — re-emitted as structured
:data:`~repro.obs.events.INVARIANT_KIND` events so they land in the
trace itself.

**Claim ordering.**  Monitors are evaluated in a fixed priority order
and the first one to flag an event *claims* it: later monitors do not
re-flag the same operation, so one faulty op produces exactly one
violation — the most specific diagnosis.  The claiming monitor never
absorbs the event into its own reference state (a misreported served
tag must not corrupt the monotonicity watermark and indict every later,
correct serve; it only *resyncs* where a ledger would otherwise drift),
while every other monitor still tracks the event normally so their
reference state follows reality through a fault someone else already
diagnosed.

The same monitors run offline over a loaded trace via
:func:`check_trace` — the engine behind ``repro analyze check``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from .events import INVARIANT_KIND, SPAN_KIND, TraceEvent

#: Registry name of the linked-list tag storage (paper Figs. 9/10).
STORAGE = "tag_storage"

#: Component label prefix of shard-local events in fabric traces.
_SHARD_PREFIX = "shard"


def _component(event: TraceEvent) -> str:
    """The emitting component: ``"shardN"`` in fabric traces, else ``""``.

    Stateful monitors key their reference state (occupancy ledger,
    serve watermark, live-tag sets) by component, so interleaved
    multi-store traces are screened per store — a single-circuit trace
    collapses to the one ``""`` key and behaves exactly as before.
    """
    return event.attrs.get("component", "")


def _shard_index(component: str) -> Optional[int]:
    """Parse ``"shardN"`` → ``N`` (None for non-shard components)."""
    if component.startswith(_SHARD_PREFIX):
        suffix = component[len(_SHARD_PREFIX):]
        if suffix.isdigit():
            return int(suffix)
    return None


@dataclass(frozen=True)
class MonitorConfig:
    """Architectural parameters the monitor bounds derive from."""

    levels: int = 3
    tag_space: int = 4096
    modular: bool = True
    eager_marker_removal: bool = False
    section_bits: int = 8
    branching_factor: int = 16

    @classmethod
    def from_circuit_config(cls, config: Dict[str, Any]) -> "MonitorConfig":
        """Build from a :meth:`TagSortRetrieveCircuit.describe` dict.

        Tolerates missing keys (older trace headers) by falling back to
        the paper-format defaults.
        """
        word_bits = int(config.get("word_bits", 12))
        literal_bits = int(config.get("literal_bits", 4))
        return cls(
            levels=int(config.get("levels", 3)),
            tag_space=int(config.get("tag_space", 1 << word_bits)),
            modular=bool(config.get("modular", True)),
            eager_marker_removal=bool(
                config.get("eager_marker_removal", False)
            ),
            section_bits=word_bits - literal_bits,
            branching_factor=int(
                config.get("branching_factor", 1 << literal_bits)
            ),
        )

    @property
    def dequeue_access_bound(self) -> int:
        """Worst-case accesses of one dequeue, from the architecture.

        Deferred (paper) mode: the head removal's 1R + 1W on the tag
        storage, nothing else.  Eager mode adds the translation-table
        invalidation (1R + 1W) and the marker removal's walk down the
        W/k-level tree (one read + one write per level).
        """
        bound = 2
        if self.eager_marker_removal:
            bound += 2 + 2 * self.levels
        return bound


@dataclass(frozen=True)
class Violation:
    """One observed break of a paper guarantee."""

    monitor: str
    seq: int
    kind: str
    message: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "seq": self.seq,
            "kind": self.kind,
            "message": self.message,
            "attrs": dict(self.attrs),
        }

    def __str__(self) -> str:
        return f"[{self.monitor}] event #{self.seq} ({self.kind}): {self.message}"


def _storage_delta(event: TraceEvent):
    return event.deltas.get(STORAGE)


def _is_failed(event: TraceEvent) -> bool:
    return bool(event.attrs.get("failed"))


class _Monitor:
    """One invariant: a pure ``check`` plus a state-committing ``update``.

    The suite calls every monitor's :meth:`check` first; only when *no*
    monitor objects does any monitor :meth:`update` — a violating event
    never perturbs monitor state (see the claim-ordering note in the
    module docstring).
    """

    name = "monitor"

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config

    def check(self, event: TraceEvent) -> Optional[str]:
        """Return a violation message, or None when the event conforms."""
        raise NotImplementedError

    def update(self, event: TraceEvent) -> None:
        """Absorb a conforming event into the monitor's state."""

    def on_violation(self, event: TraceEvent) -> None:
        """Resynchronize after claiming ``event`` (never absorb it).

        The default keeps the pre-violation state, so one glitch cannot
        poison the monitor's reference and indict later, correct
        operations.
        """


class InsertBudgetMonitor(_Monitor):
    """Fig. 9: insert ≤ 2 reads + 2 writes on the tag storage."""

    name = "insert_budget"

    def check(self, event: TraceEvent) -> Optional[str]:
        if event.kind in ("insert", "insert_dequeue") and event.deltas:
            delta = _storage_delta(event)
            if delta is None:
                return None
            if delta.reads > 2 or delta.writes > 2:
                return (
                    f"insert cost {delta.reads}R+{delta.writes}W on tag "
                    f"storage exceeds the fixed 2R+2W budget (Fig. 9)"
                )
        elif event.kind == SPAN_KIND and event.name == "insert_batch":
            # A batched run amortizes the finger walk's *reads* across
            # data-dependent distances, but the write budget is exact:
            # at most two storage writes per inserted tag.
            count = int(event.attrs.get("count", 0))
            delta = _storage_delta(event)
            if count and delta is not None and delta.writes > 2 * count:
                return (
                    f"insert_batch of {count} cost {delta.writes} storage "
                    f"writes, over the 2 writes/insert budget (Fig. 9)"
                )
        return None


class DequeueBoundMonitor(_Monitor):
    """Sort model: a dequeue is a bounded head removal, never a search."""

    name = "dequeue_bound"

    def check(self, event: TraceEvent) -> Optional[str]:
        bound = self.config.dequeue_access_bound
        if event.kind == "dequeue" and event.deltas:
            total = event.delta_total
            if total > bound:
                return (
                    f"dequeue cost {total} accesses, over the architectural "
                    f"bound of {bound} (fixed head removal, W/k tree)"
                )
        elif event.kind == SPAN_KIND and event.name == "dequeue_batch":
            count = int(event.attrs.get("count", 0))
            if count and event.delta_total > bound * count:
                return (
                    f"dequeue_batch of {count} cost {event.delta_total} "
                    f"accesses, over {bound}/dequeue "
                    f"({bound * count} total)"
                )
        return None


class HandleLivenessMonitor(_Monitor):
    """Dynamic updates only touch handles the event stream says are live.

    Tracks the live handle set per component from the op stream (an
    insert issues its address as a handle; a serve, remove, or retag
    retires it; a retag issues the new address).  A remove/retag naming
    an address outside that set is a stale or double-freed handle; one
    whose reported tag differs from the issuing insert's is aliasing a
    reused slot.  A component with no observed inserts yet is left
    unjudged (the trace may have started mid-stream from a restored
    checkpoint).
    """

    name = "handle_liveness"

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        #: per-component handle ledger: address -> tag at issue time
        self._handles: Dict[str, Dict[int, int]] = {}

    def check(self, event: TraceEvent) -> Optional[str]:
        if event.kind not in ("remove", "retag"):
            return None
        address = event.attrs.get("address")
        if address is None:
            return None
        ledger = self._handles.get(_component(event))
        if ledger is None:
            return None
        if address not in ledger:
            return (
                f"{event.kind} named handle {address} with no live "
                f"entry: the handle is stale, double-freed, or was "
                f"never issued"
            )
        tag = event.attrs.get("tag")
        if tag is not None and ledger[address] != tag:
            return (
                f"{event.kind} of handle {address} reported tag {tag} "
                f"but the handle was issued for tag {ledger[address]}: "
                f"a reused slot is being aliased"
            )
        return None

    def _ledger_for(self, event: TraceEvent) -> Dict[int, int]:
        component = _component(event)
        ledger = self._handles.get(component)
        if ledger is None:
            ledger = self._handles[component] = {}
        return ledger

    def update(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind not in (
            "insert",
            "dequeue",
            "insert_dequeue",
            "remove",
            "retag",
        ):
            return
        address = event.attrs.get("address")
        if kind == "insert":
            tag = event.attrs.get("tag")
            if address is not None and tag is not None:
                self._ledger_for(event)[address] = tag
        elif kind == "dequeue":
            if address is not None:
                self._ledger_for(event).pop(address, None)
        elif kind == "insert_dequeue":
            ledger = self._ledger_for(event)
            served_address = event.attrs.get("served_address")
            if served_address is not None:
                ledger.pop(served_address, None)
            tag = event.attrs.get("tag")
            if address is not None and tag is not None:
                ledger[address] = tag
        elif kind == "remove":
            if address is not None:
                self._ledger_for(event).pop(address, None)
        else:  # retag
            ledger = self._ledger_for(event)
            if address is not None:
                ledger.pop(address, None)
            new_address = event.attrs.get("new_address")
            new_tag = event.attrs.get("new_tag")
            if new_address is not None and new_tag is not None:
                ledger[new_address] = new_tag


class RemovalConservationMonitor(_Monitor):
    """Fig. 10 under removal: one slot freed, threading write performed."""

    name = "free_list_removal"

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        #: per-component (occupancy, free_list_depth) after the last
        #: event that reported both; None-dropped when a batched run
        #: (which reports no free-list depth) makes the depth unknown.
        self._state: Dict[str, tuple] = {}

    def check(self, event: TraceEvent) -> Optional[str]:
        if event.kind != "remove":
            return None
        if event.deltas:
            delta = _storage_delta(event)
            # Mid-list: splice + release; head: release only (the
            # departing link itself carries the new head).
            floor = 1 if event.attrs.get("head") else 2
            if delta is not None and delta.writes < floor:
                return (
                    f"remove made {delta.writes} storage write(s), "
                    f"under the {floor} required: the empty-list "
                    f"release was skipped (Fig. 10)"
                )
        previous = self._state.get(_component(event))
        occupancy = event.attrs.get("occupancy")
        depth = event.attrs.get("free_list_depth")
        if previous is not None and occupancy is not None and depth is not None:
            prev_occupancy, prev_depth = previous
            if occupancy != prev_occupancy - 1 or depth != prev_depth + 1:
                return (
                    f"remove moved occupancy {prev_occupancy}→{occupancy} "
                    f"and free-list depth {prev_depth}→{depth}; slot "
                    f"conservation requires −1/+1 (Fig. 10)"
                )
        return None

    def update(self, event: TraceEvent) -> None:
        occupancy = event.attrs.get("occupancy")
        depth = event.attrs.get("free_list_depth")
        component = _component(event)
        if occupancy is not None and depth is not None:
            self._state[component] = (occupancy, depth)
        elif occupancy is not None:
            # Occupancy moved but the free-list depth was not reported
            # (batched per-op events): the depth reference is stale.
            self._state.pop(component, None)

    def on_violation(self, event: TraceEvent) -> None:
        # Resync to the reported pair so one fault is one violation.
        self.update(event)


class FreeListConservationMonitor(_Monitor):
    """Fig. 10: slots conserved; every dequeue releases onto the empty list."""

    name = "free_list_conservation"

    _OCCUPANCY_STEP = {
        "insert": 1,
        "dequeue": -1,
        "insert_dequeue": 0,
        "remove": -1,
        "retag": 0,
    }

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        #: per-component occupancy ledger (fabric traces interleave
        #: shards; each shard's slots are conserved independently)
        self._expected: Dict[str, int] = {}

    def check(self, event: TraceEvent) -> Optional[str]:
        step = self._OCCUPANCY_STEP.get(event.kind)
        if step is not None:
            occupancy = event.attrs.get("occupancy")
            expected = self._expected.get(_component(event))
            if (
                occupancy is not None
                and expected is not None
                and occupancy != expected + step
            ):
                return (
                    f"occupancy {occupancy} after {event.kind}, expected "
                    f"{expected + step} (allocations − releases must "
                    f"equal the occupancy delta, Fig. 10)"
                )
        if event.kind == "dequeue" and event.deltas:
            # The freed link must be written onto the empty list — the
            # head read alone does not release the slot.
            delta = _storage_delta(event)
            if delta is not None and delta.writes < 1:
                return (
                    "dequeue freed a link with no storage write: the "
                    "empty-list release was skipped (Fig. 10)"
                )
        if event.kind == SPAN_KIND and event.name == "dequeue_batch":
            count = int(event.attrs.get("count", 0))
            delta = _storage_delta(event)
            if count and delta is not None and delta.writes < count:
                return (
                    f"dequeue_batch of {count} made only {delta.writes} "
                    f"storage writes: at least one empty-list release was "
                    f"skipped (Fig. 10)"
                )
        return None

    def update(self, event: TraceEvent) -> None:
        step = self._OCCUPANCY_STEP.get(event.kind)
        if step is None:
            return
        occupancy = event.attrs.get("occupancy")
        if occupancy is not None:
            self._expected[_component(event)] = occupancy

    def on_violation(self, event: TraceEvent) -> None:
        # Re-anchor the ledger to the observed occupancy so each later
        # operation is judged on its own delta, not on a flood of
        # mismatches descending from one bad op.
        occupancy = event.attrs.get("occupancy")
        if occupancy is not None:
            self._expected[_component(event)] = occupancy


class MonotonicityMonitor(_Monitor):
    """WFQ: served tags never go backwards between busy periods."""

    name = "serve_monotonic"

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        #: per-component serve watermark (each store in a multi-store
        #: trace serves monotonically on its own; the cross-shard order
        #: is the fabric-order monitor's job)
        self._last: Dict[str, int] = {}
        #: inactive for a non-modular eager circuit: that is the
        #: general-purpose priority-queue configuration, which drops the
        #: WFQ monotonicity requirement by design.
        self._active = config.modular or not config.eager_marker_removal

    def _served_tag(self, event: TraceEvent) -> Optional[int]:
        if event.kind == "dequeue":
            return event.attrs.get("tag")
        if event.kind == "insert_dequeue":
            return event.attrs.get("served_tag")
        return None

    def check(self, event: TraceEvent) -> Optional[str]:
        if not self._active:
            return None
        tag = self._served_tag(event)
        if tag is None:
            return None
        last = self._last.get(_component(event))
        if last is None:
            return None
        if self.config.modular:
            space = self.config.tag_space
            distance = (tag - last) % space
            if distance >= space // 2:
                return (
                    f"served tag {tag} is behind the previous serve "
                    f"{last} (wrapped distance {distance} ≥ "
                    f"{space // 2}): min-tag service went backwards"
                )
        elif tag < last:
            return (
                f"served tag {tag} below the previous serve {last}: "
                f"min-tag service went backwards"
            )
        return None

    def update(self, event: TraceEvent) -> None:
        if not self._active:
            return
        component = _component(event)
        if event.kind == "marker_flush":
            # A flush marks a drained circuit; the next busy period may
            # restart at lower tags.
            self._last.pop(component, None)
            return
        if event.kind == "remove" and event.attrs.get("occupancy") == 0:
            # A removal drained the circuit; like a served drain, the
            # next busy period may legitimately restart lower.
            self._last.pop(component, None)
            return
        tag = self._served_tag(event)
        if tag is not None:
            self._last[component] = tag
            if event.attrs.get("occupancy") == 0:
                # Drained: the watermark no longer binds future serves.
                self._last.pop(component, None)


class CoverageMonitor(_Monitor):
    """Figs. 6/11: serves, clears, and flushes only touch dead values."""

    name = "coverage"

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        #: per-component live-tag multiset (shards hold disjoint storage)
        self._live: Dict[str, Counter] = {}

    def _live_for(self, event: TraceEvent) -> Counter:
        component = _component(event)
        live = self._live.get(component)
        if live is None:
            live = self._live[component] = Counter()
        return live

    def check(self, event: TraceEvent) -> Optional[str]:
        live_tags = self._live_for(event)
        if event.kind == "dequeue":
            tag = event.attrs.get("tag")
            if tag is not None and live_tags[tag] <= 0:
                return (
                    f"served tag {tag} has no live insert: the head link "
                    f"or its translation entry points at a dead value"
                )
        elif event.kind == "insert_dequeue":
            tag = event.attrs.get("served_tag")
            if tag is not None and live_tags[tag] <= 0:
                return (
                    f"served tag {tag} has no live insert: the head link "
                    f"or its translation entry points at a dead value"
                )
        elif event.kind == "section_clear":
            literal = event.attrs.get("root_literal")
            if literal is not None:
                low = literal << self.config.section_bits
                high = low + (1 << self.config.section_bits)
                live = [
                    value
                    for value in live_tags
                    if low <= value < high and live_tags[value] > 0
                ]
                if live:
                    return (
                        f"section {literal} cleared while holding "
                        f"{len(live)} live value(s) (e.g. {min(live)}): "
                        f"the Fig. 6 wrap discipline was broken"
                    )
        elif event.kind == "marker_flush":
            live = sum(live_tags.values())
            if live:
                return (
                    f"marker flush with {live} live tag(s) in storage: "
                    f"initialization-mode reset outside an empty circuit"
                )
        return None

    def update(self, event: TraceEvent) -> None:
        live_tags = self._live_for(event)
        if event.kind == "insert":
            tag = event.attrs.get("tag")
            if tag is not None:
                live_tags[tag] += 1
        elif event.kind == "dequeue":
            tag = event.attrs.get("tag")
            if tag is not None:
                live_tags[tag] -= 1
                if live_tags[tag] <= 0:
                    del live_tags[tag]
        elif event.kind == "insert_dequeue":
            tag = event.attrs.get("tag")
            served = event.attrs.get("served_tag")
            if tag is not None:
                live_tags[tag] += 1
            if served is not None:
                live_tags[served] -= 1
                if live_tags[served] <= 0:
                    del live_tags[served]
        elif event.kind == "remove":
            tag = event.attrs.get("tag")
            if tag is not None:
                live_tags[tag] -= 1
                if live_tags[tag] <= 0:
                    del live_tags[tag]
        elif event.kind == "retag":
            tag = event.attrs.get("tag")
            new_tag = event.attrs.get("new_tag")
            if tag is not None:
                live_tags[tag] -= 1
                if live_tags[tag] <= 0:
                    del live_tags[tag]
            if new_tag is not None:
                live_tags[new_tag] += 1


class FabricOrderMonitor(_Monitor):
    """Fabric tournament correctness: every serve is the global minimum.

    Cross-shard counterpart of ``serve_monotonic``: a dequeue from shard
    X with tag T is legal only when no other shard holds a live tag that
    precedes T — ties allowed only when X has the lower shard index (the
    tournament's deterministic tie rule).  Inert outside fabric traces
    (it watches only events whose ``component`` is a ``shardN`` label),
    and no false positives from late low tags: an insert behind the
    global watermark raises each shard's *live set*, which is exactly
    what the check consults.

    A merged batch drain emits one ``drain_plan`` event, then each
    touched shard's dequeues as one block, so trace order is not
    service order; the plan's ``runs`` (``[[shard, count], ...]``) are.
    The monitor holds the batch's dequeues until the last one arrives,
    then checks them in plan order with the same per-entry rule.  A
    dequeue the plan does not account for, another op on a shard while
    a plan is outstanding, and a plan announced before the previous one
    completed are violations too.
    """

    name = "fabric_tournament_order"

    #: shard ops other than a dequeue, which no drain plan includes
    _OTHER_OPS = ("insert", "insert_dequeue", "remove", "retag")

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        self._live: Dict[str, Counter] = {}
        #: the outstanding drain plan: one shard index per planned serve
        self._plan: Optional[List[int]] = None
        #: planned dequeues not seen yet, per shard
        self._due: Counter = Counter()
        #: the plan's dequeue tags seen so far, per shard, in trace order
        self._held: Dict[int, List[Any]] = {}

    def _precedes(self, a: int, b: int) -> bool:
        if self.config.modular:
            space = self.config.tag_space
            return (a - b) % space >= space // 2
        return a < b

    def _blocker(
        self, shard: int, tag: int, served: Dict[int, Counter]
    ) -> Optional[str]:
        """The per-entry rule, with ``served`` taken off the live sets."""
        for other, live in self._live.items():
            other_shard = _shard_index(other)
            if other_shard is None or other_shard == shard:
                continue
            gone = served.get(other_shard)
            for value, count in live.items():
                if gone:
                    count -= gone[value]
                if count <= 0:
                    continue
                if self._precedes(value, tag) or (
                    value == tag and other_shard < shard
                ):
                    return (
                        f"shard{shard} served tag {tag} while {other} "
                        f"held live tag {value}: the tournament did not "
                        f"select the global minimum"
                    )
        return None

    def _in_plan_order(self, last=None):
        """``(position, shard, tag)`` of the held dequeues, plan order.

        ``last`` is a ``(shard, tag)`` dequeue to count as held too.
        """
        held = self._held
        if last is not None:
            held = dict(held)
            held[last[0]] = held.get(last[0], []) + [last[1]]
        cursor: Counter = Counter()
        for position, shard in enumerate(self._plan):
            tags = held.get(shard, ())
            if cursor[shard] < len(tags):
                yield position, shard, tags[cursor[shard]]
                cursor[shard] += 1

    def _replay(self, last) -> Optional[str]:
        """The per-entry rule over the held serves, in plan order."""
        served: Dict[int, Counter] = {}
        for position, shard, tag in self._in_plan_order(last):
            if tag is None:
                continue
            message = self._blocker(shard, tag, served)
            if message is not None:
                return (
                    f"{message} (serve {position + 1} of a "
                    f"{len(self._plan)}-entry drain plan)"
                )
            served.setdefault(shard, Counter())[tag] += 1
        return None

    def check(self, event: TraceEvent) -> Optional[str]:
        kind = event.kind
        pending = sum(self._due.values())
        if kind == "drain_plan":
            if self._plan is not None:
                return (
                    f"drain plan announced while the previous plan still "
                    f"awaits {pending} dequeue(s)"
                )
            return None
        shard = _shard_index(_component(event))
        if shard is None:
            return None
        tag = event.attrs.get("tag")
        if self._plan is not None:
            if kind in self._OTHER_OPS:
                return (
                    f"{kind} on shard{shard} while a drain plan awaits "
                    f"{pending} dequeue(s)"
                )
            if kind != "dequeue":
                return None
            if not self._due[shard]:
                return (
                    f"shard{shard} served tag {tag}, a dequeue the drain "
                    f"plan does not account for"
                )
            if pending > 1:
                return None
            return self._replay(last=(shard, tag))
        if kind != "dequeue" or tag is None:
            return None
        return self._blocker(shard, tag, {})

    def update(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == "drain_plan":
            self._settle()
            plan = [
                int(shard)
                for shard, count in event.attrs.get("runs") or ()
                for _ in range(int(count))
            ]
            if plan:
                self._plan = plan
                self._due = Counter(plan)
            return
        component = _component(event)
        shard = _shard_index(component)
        if shard is None:
            return
        if self._plan is not None:
            if kind == "dequeue" and self._due[shard]:
                self._held.setdefault(shard, []).append(event.attrs.get("tag"))
                self._due[shard] -= 1
                if not any(self._due.values()):
                    self._settle()
                return
            if kind in self._OTHER_OPS:
                self._settle()
        self._absorb(component, event)

    def on_violation(self, event: TraceEvent) -> None:
        # A lone offending serve stays in its live set, as it always
        # has; anything else, a planned batch included, is absorbed.
        if event.kind == "dequeue" and self._plan is None:
            return
        self.update(event)

    def _settle(self) -> None:
        """Absorb the held dequeues and drop the plan."""
        if self._plan is None:
            return
        for _, shard, tag in self._in_plan_order():
            if tag is None:
                continue
            live = self._live.setdefault(_SHARD_PREFIX + str(shard), Counter())
            live[tag] -= 1
            if live[tag] <= 0:
                del live[tag]
        self._plan = None
        self._due = Counter()
        self._held = {}

    def _absorb(self, component: str, event: TraceEvent) -> None:
        live = self._live.get(component)
        if live is None:
            live = self._live[component] = Counter()
        tag = event.attrs.get("tag")
        if event.kind == "insert":
            if tag is not None:
                live[tag] += 1
        elif event.kind == "dequeue":
            if tag is not None:
                live[tag] -= 1
                if live[tag] <= 0:
                    del live[tag]
        elif event.kind == "insert_dequeue":
            served = event.attrs.get("served_tag")
            if tag is not None:
                live[tag] += 1
            if served is not None:
                live[served] -= 1
                if live[served] <= 0:
                    del live[served]
        elif event.kind == "remove":
            if tag is not None:
                live[tag] -= 1
                if live[tag] <= 0:
                    del live[tag]
        elif event.kind == "retag":
            new_tag = event.attrs.get("new_tag")
            if tag is not None:
                live[tag] -= 1
                if live[tag] <= 0:
                    del live[tag]
            if new_tag is not None:
                live[new_tag] += 1


class FabricBalanceMonitor(_Monitor):
    """Fabric occupancy-balance bookkeeping stays consistent.

    Maintains a per-shard occupancy ledger from the shard-local op
    events and cross-checks the occupancy vector every ``rebalance``
    event reports.  A mismatch means the fabric's balance decisions
    were taken on occupancies that do not match what the shards
    actually did — routing state drift.  Inert outside fabric traces.
    """

    name = "fabric_balance"

    _STEP_KINDS = ("insert", "dequeue", "insert_dequeue", "remove", "retag")

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        self._ledger: Dict[int, int] = {}

    def check(self, event: TraceEvent) -> Optional[str]:
        if event.kind != "rebalance":
            return None
        occupancies = event.attrs.get("occupancies")
        if not occupancies:
            return None
        for shard, occupancy in enumerate(occupancies):
            known = self._ledger.get(shard)
            if known is not None and known != occupancy:
                return (
                    f"rebalance reported occupancy {occupancy} for "
                    f"shard{shard} but its event stream accounts for "
                    f"{known}: balance decisions drifted from shard state"
                )
        return None

    def update(self, event: TraceEvent) -> None:
        if event.kind in self._STEP_KINDS:
            shard = _shard_index(_component(event))
            occupancy = event.attrs.get("occupancy")
            if shard is not None and occupancy is not None:
                self._ledger[shard] = occupancy

    def on_violation(self, event: TraceEvent) -> None:
        # Resync to the reported vector so one drift is one violation.
        occupancies = event.attrs.get("occupancies") or []
        for shard, occupancy in enumerate(occupancies):
            if shard in self._ledger:
                self._ledger[shard] = occupancy


#: Evaluation order: the most specific diagnosis claims the event.
MONITOR_CLASSES = (
    InsertBudgetMonitor,
    DequeueBoundMonitor,
    HandleLivenessMonitor,
    RemovalConservationMonitor,
    FreeListConservationMonitor,
    MonotonicityMonitor,
    CoverageMonitor,
    FabricOrderMonitor,
    FabricBalanceMonitor,
)


class MonitorSuite:
    """All invariant monitors behind one tracer-observer callable.

    Attach to a :class:`~repro.obs.tracer.Tracer` via ``observers=`` (or
    :meth:`Tracer.add_observer`); pass the tracer back via ``tracer=``
    so each violation is also re-emitted into the trace as an
    :data:`~repro.obs.events.INVARIANT_KIND` event.
    """

    def __init__(
        self, config: Optional[MonitorConfig] = None, *, tracer=None
    ) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.monitors: List[_Monitor] = [
            cls(self.config) for cls in MONITOR_CLASSES
        ]
        self.violations: List[Violation] = []
        self.checked = 0
        self._tracer = tracer

    @classmethod
    def for_circuit(cls, circuit, *, tracer=None) -> "MonitorSuite":
        """Configure from a live :class:`TagSortRetrieveCircuit`."""
        return cls(
            MonitorConfig.from_circuit_config(circuit.describe()),
            tracer=tracer,
        )

    @classmethod
    def from_header(
        cls, header: Optional[Dict[str, Any]], *, tracer=None
    ) -> "MonitorSuite":
        """Configure from a JSONL trace-header record (offline checks).

        An absent or config-less header falls back to the paper-format
        defaults.
        """
        config = (header or {}).get("config") or {}
        return cls(MonitorConfig.from_circuit_config(config), tracer=tracer)

    def __call__(self, event: TraceEvent) -> None:
        """Screen one event (the tracer-observer entry point)."""
        if event.kind == INVARIANT_KIND or _is_failed(event):
            # Never re-screen our own reports; an op that raised is a
            # caller protocol error, not a broken hardware guarantee.
            return
        self.checked += 1
        claimer: Optional[_Monitor] = None
        message: Optional[str] = None
        for monitor in self.monitors:
            message = monitor.check(event)
            if message is not None:
                claimer = monitor
                break
        if claimer is not None:
            self._report(claimer, event, message)
        # Every monitor except the claimer absorbs the event: the other
        # guarantees' reference state (occupancy ledger, live-tag set,
        # serve watermark) must track reality even through a fault that
        # one monitor already diagnosed.  The claimer only resyncs.
        for monitor in self.monitors:
            if monitor is claimer:
                monitor.on_violation(event)
            else:
                monitor.update(event)

    def _report(
        self, monitor: _Monitor, event: TraceEvent, message: Optional[str]
    ) -> None:
        assert message is not None
        violation = Violation(
            monitor=monitor.name,
            seq=event.seq,
            kind=event.kind,
            message=message,
            attrs={
                key: event.attrs[key]
                for key in (
                    "tag",
                    "served_tag",
                    "root_literal",
                    "count",
                    "component",
                    "shard",
                    "address",
                    "new_tag",
                    "new_address",
                    "head",
                )
                if key in event.attrs
            },
        )
        self.violations.append(violation)
        if self._tracer is not None:
            extra = {}
            component = event.attrs.get("component")
            if component is not None:
                extra["component"] = component
            self._tracer.event(
                INVARIANT_KIND,
                name=monitor.name,
                monitor=monitor.name,
                offender_seq=event.seq,
                offender_kind=event.kind,
                message=message,
                **extra,
            )

    @property
    def ok(self) -> bool:
        """True while no guarantee has been observed broken."""
        return not self.violations

    def counts_by_monitor(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.monitor] = counts.get(violation.monitor, 0) + 1
        return counts

    def summary(self) -> str:
        """One-paragraph verdict for reports and CLI output."""
        if self.ok:
            return (
                f"invariants OK: {self.checked} events screened by "
                f"{len(self.monitors)} monitors, 0 violations"
            )
        lines = [
            f"invariants VIOLATED: {len(self.violations)} violation(s) "
            f"over {self.checked} screened events"
        ]
        for name, count in sorted(self.counts_by_monitor().items()):
            lines.append(f"  {name}: {count}")
        for violation in self.violations[:10]:
            lines.append(f"  {violation}")
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def check_trace(
    events: Iterable[TraceEvent],
    *,
    header: Optional[Dict[str, Any]] = None,
    config: Optional[MonitorConfig] = None,
) -> MonitorSuite:
    """Replay a loaded trace through a fresh :class:`MonitorSuite`.

    ``config`` wins over ``header``; with neither, paper-format defaults
    apply.  Returns the suite (inspect ``.violations`` / ``.summary()``).
    """
    if config is not None:
        suite = MonitorSuite(config)
    else:
        suite = MonitorSuite.from_header(header)
    for event in events:
        suite(event)
    return suite
