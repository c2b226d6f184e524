"""Opt-in telemetry: structured tracing, instruments, exporters.

The software equivalent of logic-analyzer probes on the paper's circuit:

* :mod:`repro.obs.events` — the structured event schema;
* :mod:`repro.obs.tracer` — :class:`Tracer` (ring buffer + JSONL sink +
  per-structure delta attribution) and the zero-cost
  :data:`NULL_TRACER` default;
* :mod:`repro.obs.instruments` — streaming :class:`Histogram` /
  :class:`Gauge` / :class:`Counter` and the :class:`InstrumentSet`
  registry;
* :mod:`repro.obs.exporters` — JSONL, Prometheus-style text, and the
  human-readable run report;
* :mod:`repro.obs.probes` — observers wiring op events into standard
  instruments;
* :mod:`repro.obs.monitors` — online invariant monitors verifying the
  paper's guarantees against the live event stream;
* :mod:`repro.obs.profiler` — cost-attribution rollups and worst-case
  forensics over span-attributed deltas;
* :mod:`repro.obs.diff` — differential trace analysis (logical-op
  alignment, first divergence, per-kind cost deltas);
* :mod:`repro.obs.timeline` — Chrome trace-event (Perfetto) export;
* :mod:`repro.obs.live` — the live observability plane: the
  :class:`MetricsServer` (``/metrics`` ``/health`` ``/snapshot`` from a
  running soak), the windowed collector, and the :class:`LivePlane`
  bundle the runners attach;
* :mod:`repro.obs.slo` — online fairness/SLO auditing: the streaming
  :class:`FairnessAuditor` over the incremental GPS core, the shared
  :class:`RankInversionCounter`, and :class:`SloRule` burn accounting;
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` (auto-dumped
  context window around the first invariant violation) and the
  :class:`StallWatchdog`;
* :mod:`repro.obs.harness` — the run harness every runner shares;
* :mod:`repro.obs.runner` / :mod:`repro.obs.analyze` — the drivers
  behind ``python -m repro obs`` and ``python -m repro analyze``
  (command entry points, not re-exported here).

Every name below loads its submodule on first use, so a module that
needs only :data:`NULL_TRACER` imports :mod:`repro.obs.tracer` and its
schema, not the live plane or the monitors.

Attach a tracer with
:meth:`repro.core.sort_retrieve.TagSortRetrieveCircuit.attach_tracer`
or by passing ``tracer=`` to the circuit, the
:class:`~repro.net.hardware_store.HardwareTagStore`, or the
:class:`~repro.net.scheduler_system.HardwareWFQSystem`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "diff": ("TraceCompatibilityError", "TraceDiff", "diff_traces"),
    "events": (
        "FABRIC_KINDS",
        "FOOTER_KIND",
        "HEADER_KIND",
        "INVARIANT_KIND",
        "LIVE_KINDS",
        "MAINTENANCE_KINDS",
        "OP_KINDS",
        "SLO_KIND",
        "SPAN_KIND",
        "TRACE_SCHEMA",
        "WATCHDOG_KIND",
        "TraceEvent",
        "build_trace_header",
    ),
    "exporters": (
        "TraceDocument",
        "prometheus_snapshot",
        "read_jsonl",
        "read_trace",
        "run_report",
        "sanitize_metric_name",
        "write_jsonl",
    ),
    "flight": ("FlightRecorder", "StallWatchdog"),
    "instruments": ("Counter", "Gauge", "Histogram", "InstrumentSet"),
    "live": ("LivePlane", "MetricsServer", "WindowedCollector"),
    "monitors": ("MonitorConfig", "MonitorSuite", "Violation", "check_trace"),
    "probes": ("StandardProbes",),
    "profiler": ("Profile", "profile_events"),
    "slo": (
        "FairnessAuditor",
        "RankInversionCounter",
        "ServeStreamAuditor",
        "SloRule",
    ),
    "timeline": ("build_timeline", "write_timeline"),
    "tracer": ("NULL_TRACER", "ComponentTracer", "NullTracer", "Tracer"),
})
