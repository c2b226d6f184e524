"""Standard probes: stream trace events into histograms and gauges.

:class:`StandardProbes` is a tracer observer (see
:meth:`repro.obs.tracer.Tracer.add_observer`) that converts the event
stream of a traced circuit/store run into the distribution view the
ISSUE calls for: per-op access counts, cycles, occupancy, linked-list
depths, clamp magnitudes, backup-path activations.

It never touches the traced components — everything is derived from the
events — so the same probes work on a live tracer or on a replayed
JSONL file (:func:`repro.obs.exporters.read_jsonl`).

Events stamped with a ``component`` attr (per-shard views and
fabric-level events) are recorded **twice**: once into the unlabeled
family (the fleet aggregate, exactly the pre-label behavior) and once
into the ``shard``-labeled series of the same family.  Per-shard
series therefore sum to the aggregate *by construction* — the invariant
the hypothesis property test pins down.
"""

from __future__ import annotations

from typing import Dict, Optional

from .events import OP_KINDS, SPAN_KIND, TraceEvent
from .instruments import InstrumentSet

#: Component prefix the sharded fabric stamps on per-shard views.
SHARD_PREFIX = "shard"


def shard_labels(component: str) -> Dict[str, str]:
    """The label set a component string maps to.

    Fabric shards are stamped ``shardN`` and become ``{"shard": "N"}``
    so the label value matches the shard index used everywhere else
    (SLO rules, skew gauges, Perfetto tracks).  Any other component
    (e.g. ``fabric`` itself) keeps its full name as the label value —
    still one series per traffic source, never silently dropped.
    """
    if component.startswith(SHARD_PREFIX) and component[len(SHARD_PREFIX):].isdigit():
        return {"shard": component[len(SHARD_PREFIX):]}
    return {"shard": component}


class StandardProbes:
    """Maps trace events onto a standard set of instruments.

    Instruments populated (all optional — absent if no event carried
    the field):

    * ``op_accesses`` — per-operation memory accesses (per-op mode
      events carry exact deltas);
    * ``batch_accesses_per_op`` — amortized per-op accesses of batched
      spans (span self-delta / op count, captured at 0.01 resolution);
    * ``op_cycles`` — circuit cycles per operation;
    * ``occupancy`` — stored tags after each operation (histogram) and
      ``occupancy_now`` (gauge);
    * ``free_list_depth`` — storage empty-list depth per op;
    * ``clamp_quanta`` — clamp magnitude per backup-path activation of
      the store;
    * ``section_purged`` — stale markers deleted per section clear;
    * counters ``events_<kind>``, ``backup_activations``,
      ``failed_operations``.

    Component-stamped events additionally populate the ``shard``-labeled
    series of every family above (see :func:`shard_labels`).
    """

    def __init__(self, instruments: InstrumentSet = None) -> None:
        self.instruments = instruments if instruments is not None else InstrumentSet()

    def __call__(self, event: TraceEvent) -> None:
        self._record(event, None)
        component = event.attrs.get("component")
        if component is not None:
            self._record(event, shard_labels(str(component)))

    def _record(
        self, event: TraceEvent, labels: Optional[Dict[str, str]]
    ) -> None:
        inst = self.instruments
        inst.counter(f"events_{event.kind}", labels=labels).inc()
        attrs = event.attrs
        if attrs.get("failed"):
            inst.counter("failed_operations", labels=labels).inc()
        if event.kind in OP_KINDS:
            if event.deltas:
                inst.hist("op_accesses", labels=labels).record(
                    event.delta_total
                )
            cycles = attrs.get("cycles")
            if cycles is not None:
                inst.hist("op_cycles", labels=labels).record(cycles)
            occupancy = attrs.get("occupancy")
            if occupancy is not None:
                inst.hist("occupancy", labels=labels).record(occupancy)
                inst.gauge("occupancy_now", labels=labels).set(occupancy)
            depth = attrs.get("free_list_depth")
            if depth is not None:
                inst.hist("free_list_depth", labels=labels).record(depth)
            if attrs.get("used_backup"):
                inst.counter("backup_activations", labels=labels).inc()
        elif event.kind == SPAN_KIND:
            count = attrs.get("count")
            if count and event.deltas:
                inst.hist(
                    "batch_accesses_per_op", scale=100, labels=labels
                ).record(event.delta_total / count)
        elif event.kind == "clamp":
            quanta = attrs.get("quanta")
            if quanta is not None:
                inst.hist("clamp_quanta", labels=labels).record(quanta)
        elif event.kind == "section_clear" and not attrs.get("failed"):
            inst.hist("section_purged", labels=labels).record(
                attrs.get("purged", 0)
            )
