"""Chrome trace-event (Perfetto-loadable) export of a JSONL trace.

Converts an event trace into the Trace Event Format JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* every logical operation is a complete (``"X"``) slice on the **ops**
  thread, with its duration in modeled clock cycles;
* maintenance activity (Fig. 6 section clears, marker flushes, clamps)
  gets its own **maintenance** thread, duration = its attributed memory
  accesses (one access per cycle in the modeled SRAM);
* batch spans render on the **batch** thread, stretching from their
  first child to their close plus the span's own amortized self-cost,
  so amortization is *visible* — a wide batch slice over a run of
  fixed-width op slices;
* ``occupancy`` and ``free_list_depth`` become counter (``"C"``) tracks;
* invariant violations render as instant (``"i"``) markers;
* events stamped with a ``component`` attr (per-shard fabric views
  and fabric-level events) get their own synthetic *process* per
  component — ``shard0``, ``shard1``, ``fabric``, ... — each with the
  same ops/maintenance/batch thread trio and its own counter tracks, so
  a sharded trace renders as side-by-side per-shard lanes.  Traces with
  no component stamps produce exactly the single-process document they
  always did.

The timeline runs on a **synthetic clock**: the modeled circuit is
fully deterministic, so the x-axis is cumulative modeled cycles (μs in
the viewer = cycles here), not wall time.  Timestamps are emitted in
non-decreasing order within every pid/tid by construction — a single
monotone clock drives every track.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .events import INVARIANT_KIND, OP_KINDS, SPAN_KIND, TraceEvent

#: One synthetic process for the circuit, three threads + counters.
PID = 1
TID_OPS = 1
TID_MAINTENANCE = 2
TID_BATCH = 3

#: Counter-valued per-op attributes promoted to counter tracks.
_COUNTER_ATTRS = ("occupancy", "free_list_depth")

#: Op-event attributes copied into slice args.
_ARG_ATTRS = (
    "tag",
    "served_tag",
    "address",
    "count",
    "root_literal",
    "purged",
    "used_backup",
    "monitor",
    "message",
)


def _args(event: TraceEvent) -> Dict[str, Any]:
    args: Dict[str, Any] = {"seq": event.seq}
    for key in _ARG_ATTRS:
        if key in event.attrs:
            args[key] = event.attrs[key]
    if event.deltas:
        args["accesses"] = event.delta_total
    return args


def build_timeline(
    events: Sequence[TraceEvent],
    *,
    header: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Fold a loaded trace into a Trace Event Format document."""
    trace_events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": PID,
            "name": "process_name",
            "args": {"name": "sort_retrieve_circuit"},
        },
        {
            "ph": "M",
            "pid": PID,
            "tid": TID_OPS,
            "name": "thread_name",
            "args": {"name": "ops"},
        },
        {
            "ph": "M",
            "pid": PID,
            "tid": TID_MAINTENANCE,
            "name": "thread_name",
            "args": {"name": "maintenance"},
        },
        {
            "ph": "M",
            "pid": PID,
            "tid": TID_BATCH,
            "name": "thread_name",
            "args": {"name": "batch spans"},
        },
    ]

    clock = 0
    #: open span id -> clock at its first observed child
    span_start: Dict[int, int] = {}
    #: component attr -> synthetic pid (lazily allocated; pid 1 stays
    #: the unstamped process, so component-free traces are unchanged)
    component_pids: Dict[str, int] = {}

    def pid_for(event: TraceEvent) -> int:
        component = event.attrs.get("component")
        if component is None:
            return PID
        component = str(component)
        pid = component_pids.get(component)
        if pid is None:
            pid = PID + 1 + len(component_pids)
            component_pids[component] = pid
            trace_events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "name": "process_name",
                    "args": {"name": component},
                }
            )
            for tid, label in (
                (TID_OPS, "ops"),
                (TID_MAINTENANCE, "maintenance"),
                (TID_BATCH, "batch spans"),
            ):
                trace_events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "name": "thread_name",
                        "args": {"name": label},
                    }
                )
        return pid

    def emit_counters(event: TraceEvent, ts: int, pid: int) -> None:
        for name in _COUNTER_ATTRS:
            if name in event.attrs:
                trace_events.append(
                    {
                        "ph": "C",
                        "pid": pid,
                        "name": name,
                        "ts": ts,
                        "args": {name: event.attrs[name]},
                    }
                )

    for event in events:
        if event.span_id is not None and event.span_id not in span_start:
            span_start[event.span_id] = clock
        pid = pid_for(event)

        if event.kind == SPAN_KIND:
            own_id = event.attrs.get("span")
            start = (
                span_start.pop(own_id, clock) if own_id is not None else clock
            )
            # The span's own amortized work occupies the tail, after
            # the children it paid for.
            end = clock + event.delta_total
            trace_events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": TID_BATCH,
                    "name": event.name,
                    "ts": start,
                    "dur": end - start,
                    "args": _args(event),
                }
            )
            clock = end
        elif event.kind in OP_KINDS:
            duration = int(event.attrs.get("cycles", 0)) or max(
                event.delta_total, 1
            )
            trace_events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": TID_OPS,
                    "name": event.name,
                    "ts": clock,
                    "dur": duration,
                    "args": _args(event),
                }
            )
            clock += duration
            emit_counters(event, clock, pid)
        elif event.kind == INVARIANT_KIND:
            trace_events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": TID_OPS,
                    "name": f"violation:{event.name}",
                    "ts": clock,
                    "s": "p",
                    "args": _args(event),
                }
            )
        else:  # maintenance: section_clear, marker_flush, clamp, ...
            duration = event.delta_total
            trace_events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": TID_MAINTENANCE,
                    "name": event.name,
                    "ts": clock,
                    "dur": duration,
                    "args": _args(event),
                }
            )
            clock += duration

    document: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "modeled cycles (synthetic, deterministic)",
            "source": "repro.obs.timeline",
        },
    }
    if header is not None:
        document["otherData"]["trace_header"] = header
    return document


def write_timeline(
    events: Sequence[TraceEvent],
    destination: str,
    *,
    header: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the Perfetto JSON for ``events``; returns slice count."""
    document = build_timeline(events, header=header)
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return len(document["traceEvents"])
