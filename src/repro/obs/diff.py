"""Differential trace analysis: align two JSONL traces, explain the gap.

Two traces of the *same seeded workload* must serve the same logical
operation sequence — that is the batched-path equivalence claim and the
bench harness's regression premise.  This module checks it and, when the
sequences do diverge, points at the **first divergence** with context,
because everything after the first mismatched op is noise.

Alignment rules:

* Only logical operations align — ``insert`` / ``dequeue`` /
  ``insert_dequeue`` events, in emission order.  Spans, maintenance
  events, and invariant reports are per-trace artifacts (a batched trace
  has spans where a per-op trace has none) and never participate.
* An op's identity is ``(kind, tag)`` — plus the served tag for the
  combined op.  Storage *addresses* are excluded: a batched insert run
  allocates in sorted order, so addresses legitimately differ between
  disciplines serving identical sequences.
* Failed ops (``attrs.failed``) are excluded; they made no state change.

Beyond alignment, the diff reports per-kind access/cycle deltas with the
batch spans folded into their op kind (``insert_batch`` → ``insert``),
so "the regression is 1.7 extra storage accesses per insert" falls
straight out of two traces.

Header gating: traces framed with a header record (PR 3+) are refused
when their workload seeds or circuit configs differ — comparing those is
almost always a mistake — unless ``force=True``.  The *mode* (per-op vs
batched) may always differ; comparing modes is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import OP_KINDS, SPAN_KIND, TraceEvent

#: Span names folded into the op kind they amortize.
_SPAN_FOLD = {"insert_batch": "insert", "dequeue_batch": "dequeue"}

#: Header/config keys that must match for a meaningful diff.  ``mode``
#: (per-op or batched) is deliberately absent, and so is the engine: it
#: lives outside the config block (the header's ``engine``) and only
#: swaps structure flavours with identical service order and
#: accounting — diffing a turbo trace against a gate trace of the same
#: seed is exactly how CI proves the engines are logically equivalent.
#: The ``fast_mode`` and ``turbo`` keys of older traces are not gated
#: either.
_GATED_CONFIG_KEYS = (
    "levels",
    "literal_bits",
    "word_bits",
    "branching_factor",
    "tag_space",
    "capacity",
    "modular",
    "eager_marker_removal",
    "granularity",
)


class TraceCompatibilityError(ValueError):
    """The two traces describe different workloads or circuits."""


@dataclass(frozen=True)
class LogicalOp:
    """One aligned unit: a logical circuit operation."""

    kind: str
    tag: Optional[int]
    served_tag: Optional[int]
    seq: int

    @property
    def key(self) -> Tuple:
        if self.kind == "insert_dequeue":
            return (self.kind, self.tag, self.served_tag)
        return (self.kind, self.tag)

    def __str__(self) -> str:
        if self.kind == "insert_dequeue":
            return (
                f"{self.kind}(tag={self.tag}, served={self.served_tag}) "
                f"@seq={self.seq}"
            )
        return f"{self.kind}(tag={self.tag}) @seq={self.seq}"


def logical_ops(events: Sequence[TraceEvent]) -> List[LogicalOp]:
    """Extract the alignable logical-operation sequence of a trace."""
    ops: List[LogicalOp] = []
    for event in events:
        if event.kind not in OP_KINDS or event.attrs.get("failed"):
            continue
        served = event.attrs.get("served_tag")
        if event.kind == "dequeue":
            served = event.attrs.get("tag")
        ops.append(
            LogicalOp(
                kind=event.kind,
                tag=event.attrs.get("tag"),
                served_tag=served,
                seq=event.seq,
            )
        )
    return ops


def kind_totals(events: Sequence[TraceEvent]) -> Dict[str, Dict[str, int]]:
    """Per-kind op counts, access totals, and cycles, batch spans folded.

    A batch span's amortized traffic is charged to the op kind it
    served, so a per-op trace and a batched trace of the same workload
    compare kind-for-kind.
    """
    totals: Dict[str, Dict[str, int]] = {}
    for event in events:
        if event.attrs.get("failed"):
            continue
        if event.kind == SPAN_KIND:
            kind = _SPAN_FOLD.get(event.name)
            if kind is None:
                continue
            count = 0
        else:
            kind = event.kind
            count = 1 if event.kind in OP_KINDS else 0
        slot = totals.setdefault(
            kind, {"count": 0, "accesses": 0, "cycles": 0}
        )
        slot["count"] += count
        slot["accesses"] += event.delta_total
        slot["cycles"] += int(event.attrs.get("cycles", 0))
    return totals


def header_issues(
    header_a: Optional[Dict[str, Any]],
    header_b: Optional[Dict[str, Any]],
) -> List[str]:
    """Workload/config mismatches that make a diff meaningless."""
    if header_a is None or header_b is None:
        return []
    issues: List[str] = []
    seed_a, seed_b = header_a.get("seed"), header_b.get("seed")
    if seed_a != seed_b:
        issues.append(f"workload seed mismatch: {seed_a} vs {seed_b}")
    config_a = header_a.get("config") or {}
    config_b = header_b.get("config") or {}
    for key in _GATED_CONFIG_KEYS:
        if key == "granularity":
            continue  # checked below with float tolerance
        if key in config_a and key in config_b and config_a[key] != config_b[key]:
            issues.append(
                f"config mismatch on {key!r}: "
                f"{config_a[key]} vs {config_b[key]}"
            )
    gran_a, gran_b = config_a.get("granularity"), config_b.get("granularity")
    if gran_a is not None and gran_b is not None and float(gran_a) != float(gran_b):
        issues.append(f"config mismatch on 'granularity': {gran_a} vs {gran_b}")
    return issues


@dataclass
class Divergence:
    """The first position where the two op sequences disagree."""

    index: int
    op_a: Optional[LogicalOp]
    op_b: Optional[LogicalOp]
    context_a: List[LogicalOp] = field(default_factory=list)
    context_b: List[LogicalOp] = field(default_factory=list)

    def describe(self, labels: Tuple[str, str]) -> str:
        lines = [f"first divergence at logical op #{self.index}:"]
        for label, op, context in (
            (labels[0], self.op_a, self.context_a),
            (labels[1], self.op_b, self.context_b),
        ):
            lines.append(
                f"  {label}: {op if op is not None else '<sequence ended>'}"
            )
            for item in context:
                lines.append(f"      ... {item}")
        return "\n".join(lines)


@dataclass
class TraceDiff:
    """The full diff verdict of two traces."""

    labels: Tuple[str, str]
    ops_a: int
    ops_b: int
    divergence: Optional[Divergence]
    kind_totals_a: Dict[str, Dict[str, int]]
    kind_totals_b: Dict[str, Dict[str, int]]
    notes: List[str] = field(default_factory=list)

    @property
    def aligned(self) -> bool:
        """True when the logical-op sequences are identical."""
        return self.divergence is None and self.ops_a == self.ops_b

    def kind_deltas(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``b − a`` deltas of count/accesses/cycles."""
        deltas: Dict[str, Dict[str, int]] = {}
        for kind in sorted(set(self.kind_totals_a) | set(self.kind_totals_b)):
            slot_a = self.kind_totals_a.get(
                kind, {"count": 0, "accesses": 0, "cycles": 0}
            )
            slot_b = self.kind_totals_b.get(
                kind, {"count": 0, "accesses": 0, "cycles": 0}
            )
            deltas[kind] = {
                metric: slot_b[metric] - slot_a[metric]
                for metric in ("count", "accesses", "cycles")
            }
        return deltas

    def to_dict(self) -> Dict[str, Any]:
        return {
            "labels": list(self.labels),
            "aligned": self.aligned,
            "ops": {self.labels[0]: self.ops_a, self.labels[1]: self.ops_b},
            "first_divergence": (
                None
                if self.divergence is None
                else {
                    "index": self.divergence.index,
                    self.labels[0]: str(self.divergence.op_a),
                    self.labels[1]: str(self.divergence.op_b),
                }
            ),
            "kind_totals": {
                self.labels[0]: self.kind_totals_a,
                self.labels[1]: self.kind_totals_b,
            },
            "kind_deltas": self.kind_deltas(),
            "notes": list(self.notes),
        }

    def report(self) -> str:
        label_a, label_b = self.labels
        lines = [f"trace diff: {label_a} vs {label_b}"]
        if self.aligned:
            lines.append(
                f"  logical-op sequences identical "
                f"({self.ops_a} operations)"
            )
        else:
            lines.append(
                f"  logical-op sequences DIVERGE "
                f"({self.ops_a} vs {self.ops_b} operations)"
            )
            if self.divergence is not None:
                for row in self.divergence.describe(self.labels).splitlines():
                    lines.append(f"  {row}")
        lines += ["", "per-kind cost (batch spans folded into their op kind)"]
        lines.append(
            f"  {'kind':<16} {'metric':<10} {label_a:>12} {label_b:>12} "
            f"{'delta':>10} {'per-op':>9}"
        )
        deltas = self.kind_deltas()
        for kind in sorted(deltas):
            slot_a = self.kind_totals_a.get(
                kind, {"count": 0, "accesses": 0, "cycles": 0}
            )
            slot_b = self.kind_totals_b.get(
                kind, {"count": 0, "accesses": 0, "cycles": 0}
            )
            for metric in ("count", "accesses", "cycles"):
                delta = deltas[kind][metric]
                ops = max(slot_a["count"], slot_b["count"])
                per_op = f"{delta / ops:+.3f}" if ops and metric != "count" else ""
                lines.append(
                    f"  {kind:<16} {metric:<10} {slot_a[metric]:>12} "
                    f"{slot_b[metric]:>12} {delta:>+10} {per_op:>9}"
                )
        for note in self.notes:
            lines.append("")
            lines.append(note)
        return "\n".join(lines) + "\n"


def diff_traces(
    events_a: Sequence[TraceEvent],
    events_b: Sequence[TraceEvent],
    *,
    header_a: Optional[Dict[str, Any]] = None,
    header_b: Optional[Dict[str, Any]] = None,
    labels: Tuple[str, str] = ("a", "b"),
    force: bool = False,
    context: int = 3,
) -> TraceDiff:
    """Align two traces and fold their per-kind cost deltas.

    Raises :class:`TraceCompatibilityError` when both traces carry
    headers and their workload seeds or circuit configs differ, unless
    ``force`` is set (the mismatches are then demoted to notes).
    """
    notes: List[str] = []
    issues = header_issues(header_a, header_b)
    if issues:
        if not force:
            raise TraceCompatibilityError(
                "refusing to diff incompatible traces "
                "(pass force/--force to override):\n  "
                + "\n  ".join(issues)
            )
        notes.extend(f"forced past: {issue}" for issue in issues)
    if header_a is None or header_b is None:
        notes.append(
            "note: unframed trace(s) without a header record — workload "
            "compatibility not verified"
        )

    ops_a = logical_ops(events_a)
    ops_b = logical_ops(events_b)
    divergence: Optional[Divergence] = None
    limit = min(len(ops_a), len(ops_b))
    for index in range(limit):
        if ops_a[index].key != ops_b[index].key:
            divergence = _divergence_at(index, ops_a, ops_b, context)
            break
    if divergence is None and len(ops_a) != len(ops_b):
        divergence = _divergence_at(limit, ops_a, ops_b, context)

    return TraceDiff(
        labels=labels,
        ops_a=len(ops_a),
        ops_b=len(ops_b),
        divergence=divergence,
        kind_totals_a=kind_totals(events_a),
        kind_totals_b=kind_totals(events_b),
        notes=notes,
    )


def _divergence_at(
    index: int,
    ops_a: Sequence[LogicalOp],
    ops_b: Sequence[LogicalOp],
    context: int,
) -> Divergence:
    lo = max(0, index - context)
    return Divergence(
        index=index,
        op_a=ops_a[index] if index < len(ops_a) else None,
        op_b=ops_b[index] if index < len(ops_b) else None,
        context_a=list(ops_a[lo:index]),
        context_b=list(ops_b[lo:index]),
    )
