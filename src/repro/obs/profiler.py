"""Cycle/access attribution profiler over span-attributed trace deltas.

The tracer's attribution invariant — every memory access belongs to
exactly one event, spans carry only what their children did not claim —
makes a JSONL trace a complete cost ledger.  This module folds that
ledger three ways:

* **per-component** (:attr:`Profile.components`): reads/writes/total per
  registry structure (``tag_storage``, ``tree_level_0``, ...), i.e.
  where the memory bandwidth went;
* **per-kind** (:attr:`Profile.kinds`): count, self-cost, and cycles per
  event kind/name, i.e. which operations spent it — with *self* vs
  *total* semantics for spans (a ``insert_batch`` span's self-cost is
  its amortized bookkeeping; its total adds every child insert);
* **flamegraph frames** (:attr:`Profile.frames`): ``parent;child``
  semicolon paths with self-cost per frame, directly foldable by
  standard flamegraph tooling;
* **per-shard** (:attr:`Profile.shards`): cost rolled up by each
  event's ``component`` attr (``shard0``, ``shard1``, ``fabric``, ...),
  so a sharded trace answers *which shard* spent the accesses; empty
  for unstamped traces.

Worst-case forensics (:meth:`Profile.worst_cases`) ranks the top-K most
expensive single events and captures each with its surrounding event
window — the paper sells *fixed* per-op cost, so any outlier is either a
batch span (fine: amortized) or a bug, and the window shows what the
circuit was doing around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import SPAN_KIND, TraceEvent


@dataclass
class KindRollup:
    """Aggregated cost of one event kind (or span name)."""

    count: int = 0
    reads: int = 0
    writes: int = 0
    cycles: int = 0
    #: children's claimed accesses (spans only); total = self + children
    child_accesses: int = 0

    @property
    def self_accesses(self) -> int:
        return self.reads + self.writes

    @property
    def total_accesses(self) -> int:
        return self.self_accesses + self.child_accesses

    def to_dict(self) -> Dict[str, int]:
        return {
            "count": self.count,
            "reads": self.reads,
            "writes": self.writes,
            "cycles": self.cycles,
            "self_accesses": self.self_accesses,
            "total_accesses": self.total_accesses,
        }


@dataclass
class WorstCase:
    """One of the top-K most expensive events, with its context window."""

    event: TraceEvent
    cost: int
    rank: int
    window: List[TraceEvent] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"#{self.rank}: event seq={self.event.seq} "
            f"{self.event.kind}/{self.event.name} cost={self.cost} accesses"
        ]
        for key in ("tag", "count", "root_literal", "purged"):
            if key in self.event.attrs:
                lines[0] += f" {key}={self.event.attrs[key]}"
        for neighbor in self.window:
            marker = ">>" if neighbor.seq == self.event.seq else "  "
            summary = _one_line(neighbor)
            lines.append(f"  {marker} {summary}")
        return "\n".join(lines)


def _one_line(event: TraceEvent) -> str:
    bits = [f"seq={event.seq}", event.kind]
    if event.name != event.kind:
        bits.append(event.name)
    for key in ("tag", "served_tag", "count", "root_literal", "occupancy"):
        if key in event.attrs:
            bits.append(f"{key}={event.attrs[key]}")
    if event.deltas:
        bits.append(f"cost={event.delta_total}")
    return " ".join(str(bit) for bit in bits)


class Profile:
    """The folded cost ledger of one trace."""

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events = list(events)
        #: span's own id -> (name, parent span id); from span-close attrs
        self._span_info: Dict[int, Tuple[str, Optional[int]]] = {}
        self.components: Dict[str, Dict[str, int]] = {}
        self.kinds: Dict[str, KindRollup] = {}
        self.frames: Dict[str, KindRollup] = {}
        #: component-stamped cost (``shard0``, ``fabric``, ...); empty
        #: for traces with no component stamps
        self.shards: Dict[str, KindRollup] = {}
        self._fold()

    # ------------------------------------------------------------------
    # folding

    def _fold(self) -> None:
        for event in self.events:
            if event.kind == SPAN_KIND and "span" in event.attrs:
                self._span_info[event.attrs["span"]] = (
                    event.name,
                    event.span_id,
                )
        for event in self.events:
            self._fold_components(event)
            self._fold_kind(event)
            self._fold_frame(event)
            self._fold_shard(event)

    def _fold_components(self, event: TraceEvent) -> None:
        for name, delta in event.deltas.items():
            slot = self.components.setdefault(
                name, {"reads": 0, "writes": 0, "total": 0}
            )
            slot["reads"] += delta.reads
            slot["writes"] += delta.writes
            slot["total"] += delta.total

    def _kind_key(self, event: TraceEvent) -> str:
        if event.kind == SPAN_KIND:
            return f"span:{event.name}"
        return event.kind

    def _fold_kind(self, event: TraceEvent) -> None:
        rollup = self.kinds.setdefault(self._kind_key(event), KindRollup())
        rollup.count += 1
        rollup.reads += event.delta_reads
        rollup.writes += event.delta_writes
        rollup.cycles += int(event.attrs.get("cycles", 0))
        # Charge every event's self-cost up to each enclosing span's
        # *total*, walking the reconstructed span ancestry (a close
        # event's span_id already names its parent).
        cost = event.delta_total
        if cost:
            parent = event.span_id
            seen = set()
            while parent is not None and parent not in seen:
                seen.add(parent)
                info = self._span_info.get(parent)
                if info is None:
                    break
                name, grandparent = info
                enclosing = self.kinds.setdefault(
                    f"span:{name}", KindRollup()
                )
                enclosing.child_accesses += cost
                parent = grandparent

    def _fold_shard(self, event: TraceEvent) -> None:
        component = event.attrs.get("component")
        if component is None:
            return
        rollup = self.shards.setdefault(str(component), KindRollup())
        rollup.count += 1
        rollup.reads += event.delta_reads
        rollup.writes += event.delta_writes
        rollup.cycles += int(event.attrs.get("cycles", 0))

    def _path(self, event: TraceEvent) -> str:
        """Semicolon-joined span ancestry ending at the event's name."""
        parts: List[str] = [event.name]
        parent = event.span_id
        seen = set()
        while parent is not None and parent not in seen:
            seen.add(parent)
            info = self._span_info.get(parent)
            if info is None:
                break
            name, grandparent = info
            parts.append(name)
            parent = grandparent
        return ";".join(reversed(parts))

    def _fold_frame(self, event: TraceEvent) -> None:
        frame = self.frames.setdefault(self._path(event), KindRollup())
        frame.count += 1
        frame.reads += event.delta_reads
        frame.writes += event.delta_writes
        frame.cycles += int(event.attrs.get("cycles", 0))

    # ------------------------------------------------------------------
    # queries

    def worst_cases(self, k: int = 5, *, window: int = 3) -> List[WorstCase]:
        """The top-``k`` most expensive events with ±``window`` context.

        Cost is the event's *self* access delta — exactly the traffic the
        attribution invariant pins on it.
        """
        ranked = sorted(
            (event for event in self.events if event.delta_total),
            key=lambda event: (-event.delta_total, event.seq),
        )[: max(0, k)]
        by_seq = {event.seq: index for index, event in enumerate(self.events)}
        cases: List[WorstCase] = []
        for rank, event in enumerate(ranked, start=1):
            center = by_seq[event.seq]
            lo = max(0, center - window)
            hi = min(len(self.events), center + window + 1)
            cases.append(
                WorstCase(
                    event=event,
                    cost=event.delta_total,
                    rank=rank,
                    window=self.events[lo:hi],
                )
            )
        return cases

    def total_accesses(self) -> int:
        return sum(slot["total"] for slot in self.components.values())

    def total_cycles(self) -> int:
        return sum(rollup.cycles for rollup in self.kinds.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": len(self.events),
            "total_accesses": self.total_accesses(),
            "total_cycles": self.total_cycles(),
            "components": {
                name: dict(slot) for name, slot in self.components.items()
            },
            "kinds": {
                name: rollup.to_dict() for name, rollup in self.kinds.items()
            },
            "frames": {
                path: rollup.to_dict() for path, rollup in self.frames.items()
            },
            "shards": {
                name: rollup.to_dict() for name, rollup in self.shards.items()
            },
        }

    # ------------------------------------------------------------------
    # rendering

    def flamegraph_lines(self) -> List[str]:
        """``path value`` folded-stack lines (flamegraph.pl input).

        The value is the frame's *self* access count, so the rendered
        graph preserves the attribution invariant: frames sum to the
        trace total.
        """
        return [
            f"{path} {rollup.self_accesses}"
            for path, rollup in sorted(self.frames.items())
            if rollup.self_accesses
        ]

    def report(self, *, top_k: int = 5, window: int = 3) -> str:
        """The human-readable profile."""
        lines = [
            f"profile over {len(self.events)} events: "
            f"{self.total_accesses()} accesses, "
            f"{self.total_cycles()} cycles"
        ]

        lines += ["", "per-component memory traffic"]
        lines.append(
            f"  {'structure':<24} {'reads':>10} {'writes':>10} {'total':>10}"
        )
        for name in sorted(
            self.components, key=lambda n: -self.components[n]["total"]
        ):
            slot = self.components[name]
            lines.append(
                f"  {name:<24} {slot['reads']:>10} {slot['writes']:>10} "
                f"{slot['total']:>10}"
            )

        lines += ["", "per-kind cost (self / total accesses)"]
        lines.append(
            f"  {'kind':<24} {'count':>8} {'self':>10} {'total':>10} "
            f"{'cycles':>10} {'self/op':>8}"
        )
        for name in sorted(
            self.kinds, key=lambda n: -self.kinds[n].total_accesses
        ):
            rollup = self.kinds[name]
            per_op = (
                rollup.self_accesses / rollup.count if rollup.count else 0.0
            )
            lines.append(
                f"  {name:<24} {rollup.count:>8} {rollup.self_accesses:>10} "
                f"{rollup.total_accesses:>10} {rollup.cycles:>10} "
                f"{per_op:>8.2f}"
            )

        if self.shards:
            lines += ["", "per-shard cost (component-stamped events)"]
            lines.append(
                f"  {'component':<24} {'count':>8} {'reads':>10} "
                f"{'writes':>10} {'accesses':>10}"
            )
            for name in sorted(self.shards):
                rollup = self.shards[name]
                lines.append(
                    f"  {name:<24} {rollup.count:>8} {rollup.reads:>10} "
                    f"{rollup.writes:>10} {rollup.self_accesses:>10}"
                )

        lines += ["", "flamegraph frames (self accesses)"]
        for line in self.flamegraph_lines():
            lines.append(f"  {line}")

        cases = self.worst_cases(top_k, window=window)
        if cases:
            lines += ["", f"worst-case forensics (top {len(cases)})"]
            for case in cases:
                lines.append("")
                for row in case.describe().splitlines():
                    lines.append(f"  {row}")
        return "\n".join(lines) + "\n"


def profile_events(events: Sequence[TraceEvent]) -> Profile:
    """Fold a loaded event list into a :class:`Profile`."""
    return Profile(events)
