"""Structured trace events — the software logic-analyzer sample format.

One :class:`TraceEvent` is one probe sample: a circuit operation, a
maintenance action (section clear, marker flush, clamp), or a closed
span.  Events carry *per-structure* read/write deltas keyed by the
:class:`~repro.hwsim.stats.StatsRegistry` names, so a trace can be
reconciled exactly against the registry totals (the sum of every event's
deltas over a traced window equals the registry delta over that window —
see :meth:`repro.obs.tracer.Tracer.attributed_totals`).

The JSONL schema (documented in DESIGN.md) is the :meth:`TraceEvent.to_dict`
output: stable keys, no nesting deeper than the ``deltas`` map.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..hwsim.stats import AccessStats

#: Event kinds emitted by the traced circuit / store / scheduler stack.
#: Op kinds (one logical circuit operation each):
OP_KINDS = ("insert", "dequeue", "insert_dequeue")
#: Maintenance kinds (wrap discipline, backup paths):
MAINTENANCE_KINDS = ("section_clear", "marker_flush", "clamp")
#: Structural kind closing a nested span:
SPAN_KIND = "span"
#: Kind emitted by the online invariant monitors when a paper guarantee
#: is observed broken (:mod:`repro.obs.monitors`).
INVARIANT_KIND = "invariant_violation"
#: Kinds emitted by the sharded scheduling fabric (:mod:`repro.fabric`):
#: flow-to-shard routing, tournament winner selection, the service plan
#: of a merged batch drain, online rebalancing (plus the backlog
#: migration it triggers), and overflow spill-to-neighbor.  Shard-local
#: circuit events keep the :data:`OP_KINDS` above and carry a
#: ``component`` attribute naming their shard.
FABRIC_KINDS = (
    "shard_enqueue",
    "tournament_select",
    "drain_plan",
    "rebalance",
    "shard_migrate",
    "spill",
)
#: Kinds emitted by the live observability plane: an SLO rule breached
#: for the first time (:mod:`repro.obs.slo`) and a stall detected by the
#: progress watchdog (:mod:`repro.obs.flight`).  Both are telemetry
#: verdicts like :data:`INVARIANT_KIND` — monitors skip them on replay.
SLO_KIND = "slo_violation"
WATCHDOG_KIND = "watchdog_stall"
LIVE_KINDS = (SLO_KIND, WATCHDOG_KIND)

#: JSONL trace framing records (not :class:`TraceEvent` samples): the
#: header is the first line of a versioned trace and carries the schema
#: version, workload seed, circuit config, and drive mode; the footer is
#: the last line and carries the emitted/dropped totals a reader needs
#: to detect a lossy or truncated file.
HEADER_KIND = "trace_header"
FOOTER_KIND = "trace_footer"
FRAMING_KINDS = (HEADER_KIND, FOOTER_KIND)

#: Version of the JSONL trace framing (header/footer records).  Bump on
#: any incompatible change to the header layout; event records carry no
#: per-line version (readers must tolerate unknown fields instead).
TRACE_SCHEMA = 1


def build_trace_header(
    *,
    seed: int,
    mode: str,
    config: Dict[str, Any],
    **extra: Any,
) -> Dict[str, Any]:
    """The JSONL trace header record (first line of a versioned trace).

    ``mode`` is ``"per_op"`` or ``"batched"``; ``config`` describes the
    traced circuit (word format, capacity, granularity, marker mode) —
    :meth:`repro.net.hardware_store.HardwareTagStore.describe` produces
    the canonical form.  ``extra`` lands verbatim in the record (ops,
    labels); readers must tolerate fields they do not know.
    """
    record: Dict[str, Any] = {
        "kind": HEADER_KIND,
        "schema": TRACE_SCHEMA,
        "seed": seed,
        "mode": mode,
        "config": dict(config),
    }
    record.update(extra)
    return record


class TraceEvent:
    """One telemetry sample.

    A ``__slots__`` plain class rather than a dataclass: one instance is
    allocated per traced circuit operation, so the per-event ``__dict__``
    is measurable overhead on the hot path (and 3.9-compatible
    dataclasses cannot drop it).

    Attributes:
        seq: monotone emission index (0-based, per tracer).
        kind: one of :data:`OP_KINDS`, :data:`MAINTENANCE_KINDS`, or
            :data:`SPAN_KIND`.
        name: human label — the op kind again for ops, the span name for
            spans.
        span_id: id of the enclosing open span, or ``None`` at top level.
        deltas: per-structure memory-traffic attribution for this event
            *alone* (span events carry only traffic not already
            attributed to their children).
        attrs: kind-specific payload (tag, address, cycles, occupancy,
            used_backup, purged, ...).
    """

    __slots__ = ("seq", "kind", "name", "span_id", "deltas", "attrs")

    def __init__(
        self,
        seq: int,
        kind: str,
        name: str,
        span_id: Optional[int] = None,
        deltas: Optional[Dict[str, AccessStats]] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.name = name
        self.span_id = span_id
        self.deltas = {} if deltas is None else deltas
        self.attrs = {} if attrs is None else attrs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__
        )
        return f"TraceEvent({body})"

    @property
    def delta_reads(self) -> int:
        """Summed reads attributed to this event."""
        return sum(delta.reads for delta in self.deltas.values())

    @property
    def delta_writes(self) -> int:
        """Summed writes attributed to this event."""
        return sum(delta.writes for delta in self.deltas.values())

    @property
    def delta_total(self) -> int:
        """Summed accesses (reads + writes) attributed to this event."""
        return self.delta_reads + self.delta_writes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict in the documented JSONL schema."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
        }
        if self.span_id is not None:
            record["span_id"] = self.span_id
        if self.deltas:
            record["deltas"] = {
                name: delta.to_dict() for name, delta in self.deltas.items()
            }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from its :meth:`to_dict` form (JSONL replay).

        Tolerant by design: unknown top-level or delta fields are
        ignored and missing delta counters default to zero, so a reader
        at trace schema N can load traces written at schema N+1.
        """
        deltas = {
            name: AccessStats(
                reads=int(entry.get("reads", 0)),
                writes=int(entry.get("writes", 0)),
            )
            for name, entry in record.get("deltas", {}).items()
        }
        return cls(
            seq=int(record.get("seq", 0)),
            kind=record["kind"],
            name=record.get("name", record["kind"]),
            span_id=record.get("span_id"),
            deltas=deltas,
            attrs=dict(record.get("attrs", {})),
        )

    def to_json(self) -> str:
        """One compact JSON line (the JSONL wire form)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Inverse of :meth:`to_json`, with :meth:`from_dict` tolerance."""
        return cls.from_dict(json.loads(line))
