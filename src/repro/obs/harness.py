"""One run harness: the observability wiring every workload shares.

``python -m repro obs``, ``fabric``, ``timer`` and ``serve`` all check
the paper's guarantees the same way while they run: a
:class:`~repro.obs.tracer.Tracer` feeding the standard probes, the
online invariant monitors, the flight recorder, the tag-domain serve
auditor and the live plane (``/metrics``, ``/health``, ``/snapshot``).
This module wires them once.

* :data:`FLAGS` declares each shared command-line flag once; a runner
  takes the ones it offers by name with :func:`add_flags`, and
  :func:`soak_kwargs` maps the parsed flags onto the soak keyword
  arguments.
* :class:`RunHarness` is a context manager around one backend (a
  :class:`~repro.net.hardware_store.HardwareTagStore` or a
  :class:`~repro.fabric.fabric.ScheduleFabric`).  It builds the tracer
  and everything that consumes it, derives the live plane's callbacks
  from the backend's stores, and tears it all down on every exit path.
* :class:`HarnessRun` gives run records the harness's telemetry, the
  shared report notes, JSON blocks and Prometheus text;
  :func:`finish` writes a run's report where the flags say and turns
  its checks into the exit status.

Workloads stay operation sources: they build their backend, drive
their operation stream and declare their own checks.
"""

from __future__ import annotations

import json
import sys
import time
from typing import (
    TYPE_CHECKING,
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.engine import VALID_MODES
from ..hwsim.stats import AccessStats

if TYPE_CHECKING:  # built only by a traced run, and imported there
    from .flight import FlightRecorder
    from .live import LivePlane
    from .monitors import MonitorSuite
    from .slo import ServeStreamAuditor
    from .tracer import Tracer

#: The shared flags, each declared once: option -> (the soak keyword
#: argument it feeds, or None for the CLI's own flags; argparse options).
FLAGS: Dict[str, Tuple[Optional[str], Dict[str, Any]]] = {
    "--mode": ("mode", dict(
        choices=VALID_MODES,
        default="gate",
        help=(
            "circuit engine: 'gate' walks the gate-accurate model, "
            "'turbo' uses the access-fused hot paths, 'vector' the numpy "
            "array data plane (identical service order, faster wall clock)"
        ),
    )),
    "--trace": ("trace_sink", dict(
        metavar="FILE", help="stream the JSONL event trace here"
    )),
    "--metrics": (None, dict(
        metavar="FILE", help="write a Prometheus-style metrics snapshot here"
    )),
    "--output": (None, dict(
        metavar="FILE", help="write the run report here (default: stdout)"
    )),
    "--format": (None, dict(
        choices=("text", "json", "prometheus"),
        default="text",
        help=(
            "run-report format ('prometheus' writes a scrape-shaped "
            "metrics snapshot without starting the server)"
        ),
    )),
    "--buffer-size": ("buffer_size", dict(
        type=int, default=65536, help="tracer ring-buffer capacity"
    )),
    "--monitor": ("monitor", dict(
        action="store_true",
        help=(
            "screen every event through the online invariant monitors; "
            "exit 1 on any violated paper guarantee"
        ),
    )),
    "--allow-lossy": (None, dict(
        action="store_true",
        help=(
            "exit 0 even when the ring buffer evicted events (a "
            "streaming --trace sink still captures the full stream)"
        ),
    )),
    "--serve": ("serve_port", dict(
        type=int,
        metavar="PORT",
        default=None,
        help=(
            "attach the live plane and serve /metrics, /health, /snapshot "
            "on this port while the run goes (0 = ephemeral)"
        ),
    )),
    "--serve-host": ("serve_host", dict(
        default="127.0.0.1", help="bind address for --serve"
    )),
    "--serve-linger": ("serve_linger", dict(
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the live endpoints up this long after the run",
    )),
    "--live-interval": ("live_interval", dict(
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="windowed-collector rollup interval",
    )),
    "--watchdog": ("watchdog_timeout", dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare a stall after this long without circuit progress",
    )),
    "--flight": ("flight_path", dict(
        metavar="FILE",
        help=(
            "arm the flight recorder: auto-dump an analyze-loadable "
            "mini-trace around the first invariant violation"
        ),
    )),
}


def add_flags(parser, *names: str, **overrides: Dict[str, Any]) -> None:
    """Declare the named shared flags on ``parser``.

    ``overrides`` maps a flag's destination (``mode``, ``format``) to
    argparse options that replace the table's for this runner.
    """
    for name in names:
        options = dict(FLAGS[name][1])
        options.update(overrides.get(name[2:].replace("-", "_"), {}))
        parser.add_argument(name, **options)


def soak_kwargs(args) -> Dict[str, Any]:
    """The soak keyword arguments the parsed shared flags carry."""
    kwargs = {}
    for name, (kwarg, _) in FLAGS.items():
        dest = name[2:].replace("-", "_")
        if kwarg is not None and hasattr(args, dest):
            kwargs[kwarg] = getattr(args, dest)
    return kwargs


class RunHarness:
    """Tracer, monitors, flight recorder, auditor and live plane for one run.

    Construct it around the backend the workload built (untraced), then
    drive the workload inside ``with harness:``.  ``traced`` says
    whether a tracer exists at all; without one, nothing else does
    either.  With one, the harness writes the header built from
    ``header`` (:func:`~repro.obs.events.build_trace_header` keywords),
    attaches the monitors (``monitor``), the flight recorder
    (``flight_path``), and with ``serve_port`` the serve auditor and the
    live plane, then attaches the tracer to the backend.  Entering
    starts the plane and hands it to ``serve_ready``; leaving lingers
    ``serve_linger`` seconds, stops the plane, writes the trace footer
    and flushes a pending flight dump, whatever the exit path.
    """

    def __init__(
        self,
        backend,
        *,
        header: Dict[str, Any],
        traced: bool = True,
        trace_sink: Optional[str] = None,
        buffer_size: int = 65536,
        monitor: bool = False,
        flight_path: Optional[str] = None,
        serve_port: Optional[int] = None,
        serve_host: str = "127.0.0.1",
        serve_linger: float = 0.0,
        live_interval: float = 0.5,
        watchdog_timeout: Optional[float] = None,
        shard_slo_inversions: Optional[int] = None,
        extra_status: Optional[Callable[[], Dict[str, Any]]] = None,
        serve_ready: Optional[Callable[[LivePlane], None]] = None,
    ) -> None:
        sharded = hasattr(backend, "stores")
        #: a fabric's shard stores, or the one store
        self.stores = list(backend.stores) if sharded else [backend]
        self.tracer: Optional[Tracer] = None
        self.instruments = None
        self.monitors: Optional[MonitorSuite] = None
        self.flight: Optional[FlightRecorder] = None
        self.auditor: Optional[ServeStreamAuditor] = None
        self.plane: Optional[LivePlane] = None
        #: the live plane's closing summary (set on exit)
        self.live: Optional[Dict[str, Any]] = None
        self._serve_linger = serve_linger
        self._serve_ready = serve_ready
        if not traced:
            return
        # Each component is imported by the branch that builds it, so an
        # untraced run (a plain ``repro serve``) loads none of them.
        from .events import build_trace_header
        from .probes import StandardProbes
        from .tracer import Tracer

        probes = StandardProbes()
        self.instruments = probes.instruments
        tracer = self.tracer = Tracer(
            buffer_size=buffer_size, sink=trace_sink, observers=[probes]
        )
        tracer.write_header(build_trace_header(**header))
        circuit = self.stores[0].circuit
        if monitor:
            from .monitors import MonitorSuite

            self.monitors = MonitorSuite.for_circuit(circuit, tracer=tracer)
            tracer.add_observer(self.monitors)
        if flight_path is not None:
            from .flight import FlightRecorder

            self.flight = FlightRecorder(flight_path, header=tracer.header)
            self.flight.attach(tracer)
        if serve_port is not None:
            from .live import LivePlane
            from .monitors import MonitorConfig
            from .slo import ServeStreamAuditor, SloRule

            config = MonitorConfig.from_circuit_config(circuit.describe())
            shard_rules = ()
            if shard_slo_inversions is not None:
                shard_rules = (
                    SloRule(
                        name="shard_inversion_budget",
                        metric="inversions",
                        limit=float(shard_slo_inversions),
                    ),
                )
            self.auditor = ServeStreamAuditor(
                instruments=self.instruments,
                modular=config.modular,
                tag_space=config.tag_space,
                shard_rules=shard_rules,
            )
            tracer.add_observer(
                self.auditor, kinds=ServeStreamAuditor.OBSERVED_KINDS
            )
            stores = self.stores
            self.plane = LivePlane(
                instruments=self.instruments,
                progress=lambda: float(
                    sum(s.circuit.registry.total().total for s in stores)
                ),
                occupancy=lambda: float(sum(len(s) for s in stores)),
                shard_occupancies=(
                    (lambda: [float(len(s)) for s in stores])
                    if sharded
                    else None
                ),
                free_list_depth=lambda: float(
                    sum(s.circuit.free_list_depth for s in stores)
                ),
                monitors=self.monitors,
                tracer=tracer,
                flight=self.flight,
                auditor=self.auditor,
                serve_port=serve_port,
                serve_host=serve_host,
                interval=live_interval,
                watchdog_timeout=watchdog_timeout,
                extra_status=extra_status,
            )
        backend.attach_tracer(tracer)

    def __enter__(self) -> "RunHarness":
        if self.plane is not None:
            self.plane.start()
            if self._serve_ready is not None:
                # Hands the bound plane (ephemeral port included) to the
                # caller before any operation runs.
                self._serve_ready(self.plane)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.plane is not None:
            if self._serve_linger > 0:
                time.sleep(self._serve_linger)
            self.live = self.plane.finish()
        if self.tracer is not None:
            self.tracer.flush()
            self.tracer.close()
        if self.flight is not None:
            self.flight.close()
        return False

    # ------------------------------------------------------------------
    # what every run reports

    def notes(self) -> List[str]:
        """The shared run-report notes."""
        notes = []
        if self.tracer is not None:
            notes.append(
                f"tracer: {self.tracer.emitted} events emitted, "
                f"{self.tracer.dropped} evicted from the ring buffer"
            )
        if self.monitors is not None:
            notes.append(self.monitors.summary())
        if self.live is not None:
            port = self.live.get("port")
            served_at = f" on port {port}" if port else ""
            notes.append(
                f"live plane{served_at}: {self.live['windows']} windows "
                f"({self.live['skipped_ticks']} skipped), "
                f"{self.live['uptime_seconds']}s up"
            )
            watchdog = self.live.get("watchdog")
            if watchdog and watchdog["stall_count"]:
                notes.append(
                    f"watchdog: {watchdog['stall_count']} stall(s) "
                    f"declared (timeout {watchdog['timeout']}s)"
                )
        if self.auditor is not None:
            audit = self.auditor.summary()
            culprit = audit.get("culprit_shard")
            notes.append(
                f"serve audit: {audit['serves']} serves, "
                f"{audit['inversions']} rank inversions"
                + (f" (worst shard: {culprit})" if culprit else "")
            )
        if self.flight is not None:
            summary = self.flight.summary()
            if summary["dumped"]:
                trigger = summary["trigger"] or {}
                notes.append(
                    f"flight recorder: dumped {summary['path']} around "
                    f"{trigger.get('monitor') or trigger.get('kind')}"
                )
            else:
                notes.append(
                    f"flight recorder: armed, no trigger "
                    f"({summary['observed']} events observed)"
                )
        return notes

    def blocks(self) -> Dict[str, Any]:
        """The shared JSON-report blocks (``None`` where not attached)."""
        tracer, monitors = self.tracer, self.monitors
        return {
            "tracer": None if tracer is None else {
                "emitted": tracer.emitted,
                "dropped": tracer.dropped,
            },
            "monitors": None if monitors is None else {
                "checked": monitors.checked,
                "ok": monitors.ok,
                "violations": [v.to_dict() for v in monitors.violations],
            },
            "live": self.live,
            "serve_audit": (
                None if self.auditor is None else self.auditor.summary()
            ),
            "flight": None if self.flight is None else self.flight.summary(),
        }

    def failures(self, allow_lossy: Optional[bool] = None) -> List[str]:
        """The shared checks' failures.

        The monitors must be clean when attached; the ring buffer must
        not have evicted events unless ``allow_lossy`` (``None`` where a
        runner does not offer ``--allow-lossy``: no eviction rule).
        """
        failures = []
        if self.monitors is not None and not self.monitors.ok:
            failures.append(
                f"{len(self.monitors.violations)} invariant violation(s) "
                f"— see the run report"
            )
        dropped = self.tracer.dropped if self.tracer is not None else 0
        if dropped and allow_lossy is False:
            failures.append(
                f"{dropped} events evicted from the ring "
                f"buffer (raise --buffer-size, or pass --allow-lossy if a "
                f"--trace sink captured the stream)"
            )
        return failures


def _from_harness(name: str) -> property:
    return property(lambda run: getattr(run.harness, name))


class HarnessRun:
    """Run-record mixin: the telemetry a :class:`RunHarness` wired.

    Records carry the harness as ``harness``; traced soaks that
    reconcile (``obs``, ``fabric``) also use the report helpers.
    """

    harness: RunHarness
    tracer = _from_harness("tracer")
    instruments = _from_harness("instruments")
    monitors = _from_harness("monitors")
    live = _from_harness("live")
    flight = _from_harness("flight")
    auditor = _from_harness("auditor")

    @property
    def event_counts(self) -> Dict[str, int]:
        """Events emitted per kind (from the probe counters, so exact
        even after ring-buffer eviction)."""
        prefix = "events_"
        return {
            name[len(prefix):]: self.instruments.counter(name).value
            for name in self.instruments.names()
            if name.startswith(prefix)
        }

    @property
    def registry_totals(self) -> Dict[str, AccessStats]:
        """Per-structure access totals summed over every store.

        Structure names repeat across a fabric's shards by design, and
        the tracer's attribution sums the same way (per name, over all
        components), so these are the reconciliation reference.
        """
        totals: Dict[str, AccessStats] = {}
        for store in self.harness.stores:
            registry = store.circuit.registry
            for name in registry.names():
                stats = registry[name]
                merged = totals.setdefault(name, AccessStats())
                merged.record_bulk(reads=stats.reads, writes=stats.writes)
        return totals

    @property
    def reconciliation(self) -> Dict[str, int]:
        """Traced-vs-registry access totals (equal on a correct trace)."""
        return {
            "traced": self.tracer.attributed_grand_total().total,
            "registry": sum(
                stats.total for stats in self.registry_totals.values()
            ),
        }

    @property
    def reconciled(self) -> bool:
        """True when every registry access is attributed to an event."""
        traced = self.tracer.attributed_totals()
        for name, stats in self.registry_totals.items():
            mine = traced.get(name)
            got = (mine.reads, mine.writes) if mine else (0, 0)
            if got != (stats.reads, stats.writes):
                return False
        return True

    def metrics_text(self) -> str:
        """Prometheus exposition: run instruments plus live rollups."""
        from .exporters import prometheus_snapshot

        text = prometheus_snapshot(self.instruments)
        plane = self.harness.plane
        if plane is not None:
            text += prometheus_snapshot(plane.collector.live)
        return text

    def _soak_report(self, title: str, notes: Iterable[str] = ()) -> str:
        """A reconciling soak's text report: workload notes first."""
        from .exporters import run_report

        return run_report(
            title=title,
            totals=self.registry_totals,
            instruments=self.instruments,
            event_counts=self.event_counts,
            reconciliation=self.reconciliation,
            dropped=self.tracer.dropped,
            notes=[*notes, *self.harness.notes()],
        )

    def _soak_document(self, **sections: Any) -> Dict[str, Any]:
        """A reconciling soak's JSON report: ``sections`` first."""
        return {
            **sections,
            "totals": {
                name: stats.to_dict()
                for name, stats in self.registry_totals.items()
            },
            "event_counts": self.event_counts,
            "instruments": self.instruments.summaries(),
            "reconciliation": {
                **self.reconciliation,
                "exact": self.reconciled,
            },
            **self.harness.blocks(),
        }


def finish(args, run, checks: Sequence[Tuple[bool, str]] = ()) -> int:
    """Write ``run``'s report where the flags say; return the exit status.

    ``checks`` are the workload's own ``(passed, failure message)``
    pairs; the harness's shared checks apply on top of them.
    """
    if args.format == "json":
        report = json.dumps(run.to_document(), indent=2) + "\n"
    elif args.format == "prometheus":
        report = run.metrics_text()
    else:
        report = run.report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    if getattr(args, "metrics", None):
        from .exporters import prometheus_snapshot

        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(prometheus_snapshot(run.instruments))
    failures = [message for passed, message in checks if not passed]
    failures += run.harness.failures(getattr(args, "allow_lossy", None))
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0
