"""Traced-soak driver: the machinery behind ``python -m repro obs``.

Runs the bench harness's bursty WFQ-shaped mixed workload (the same
generator the perf suite times) through a
:class:`~repro.net.hardware_store.HardwareTagStore` inside the shared
:class:`~repro.obs.harness.RunHarness` (tracer, probes, monitors, live
plane), and verifies the telemetry acceptance invariant: the summed
per-structure deltas of the event stream reconcile *exactly* with
``StatsRegistry.total()``.

Kept out of :mod:`repro.obs`'s eager imports (it pulls in the net/bench
layers) — the CLI imports it lazily.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from ..core.engine import resolve_mode
from ..core.sort_retrieve import FaultInjection
from ..net.hardware_store import HardwareTagStore
from .harness import HarnessRun, RunHarness, add_flags, finish, soak_kwargs
from .live import LivePlane

#: Seeded-fault presets for ``--inject-fault`` — one per monitor family,
#: mirroring the fault matrix the monitor tests prove catches each one.
FAULT_PRESETS: Dict[str, FaultInjection] = {
    "insert_budget": FaultInjection(extra_insert_writes=1),
    "dequeue_bound": FaultInjection(extra_dequeue_reads=3),
    "free_list": FaultInjection(skip_free_release=True),
    "monotonic": FaultInjection(misreport_serve_offset=-2048),
    "coverage": FaultInjection(misreport_serve_offset=1024),
}


@dataclass
class TracedRun(HarnessRun):
    """Everything a traced soak produced."""

    harness: RunHarness
    store: HardwareTagStore
    ops: int
    seed: int
    batched: bool
    served: int
    engine: str = "gate"
    fault: Optional[str] = None

    def report(self) -> str:
        """The human-readable run report."""
        mode = "batched" if self.batched else "per-op"
        if self.engine != "gate":
            mode += f", {self.engine} engine"
        return self._soak_report(
            f"traced mixed soak: {self.ops} ops ({mode}), seed {self.seed}"
        )

    def to_document(self) -> Dict:
        """The JSON-format report (one output convention with the
        artifact CLI's ``--format json``)."""
        document = self._soak_document(
            workload={
                "ops": self.ops,
                "seed": self.seed,
                "mode": "batched" if self.batched else "per_op",
                "engine": self.engine,
                "granularity": self.store.granularity,
                "served": self.served,
            }
        )
        document["fault"] = self.fault
        return document


def run_traced_soak(
    *,
    ops: int = 10_000,
    seed: int = 20060101,
    granularity: float = 8.0,
    batched: bool = False,
    mode: Optional[str] = None,
    trace_sink: Optional[str] = None,
    buffer_size: int = 65536,
    monitor: bool = False,
    serve_port: Optional[int] = None,
    serve_host: str = "127.0.0.1",
    serve_linger: float = 0.0,
    live_interval: float = 0.5,
    watchdog_timeout: Optional[float] = None,
    flight_path: Optional[str] = None,
    fault: Optional[str] = None,
    fault_after: Optional[int] = None,
    serve_ready: Optional[Callable[[LivePlane], None]] = None,
) -> TracedRun:
    """Drive a traced mixed push/pop soak and return its telemetry.

    ``batched=True`` exercises the coalesced fast paths (span-attributed
    deltas); the default per-op mode attributes every access to its
    exact operation.  ``mode`` picks the engine (``gate``/``turbo``/
    ``vector``): identical service order and accounting, so a turbo
    trace must diff clean against a gate run of the same seed — the CI
    soak asserts exactly that.

    The observability keywords are the
    :class:`~repro.obs.harness.RunHarness` ones: ``trace_sink`` streams the framed JSONL trace (header record
    first, footer last) even when the ring buffer is smaller than the
    run; ``monitor`` screens every event through the online invariant
    monitors; ``serve_port`` attaches the live plane and the serve
    auditor (``serve_ready`` gets the bound plane before any operation
    runs); ``flight_path`` arms the flight recorder.  ``fault`` injects
    a seeded telemetry fault (a :data:`FAULT_PRESETS` name) after
    ``fault_after`` clean warmup ops (default ``ops // 2``), so monitors
    have true reference state to convict against — the flight-recorder
    CI path uses exactly this.
    """
    if fault is not None and fault not in FAULT_PRESETS:
        raise ValueError(
            f"unknown fault preset {fault!r}; "
            f"expected one of {sorted(FAULT_PRESETS)}"
        )
    mode = resolve_mode(mode)
    store = HardwareTagStore(granularity=granularity, mode=mode)
    harness = RunHarness(
        store,
        header=dict(
            seed=seed,
            mode="batched" if batched else "per_op",
            config=store.describe(),
            ops=ops,
            buffer_size=buffer_size,
            engine=mode,
        ),
        trace_sink=trace_sink,
        buffer_size=buffer_size,
        monitor=monitor,
        flight_path=flight_path,
        serve_port=serve_port,
        serve_host=serve_host,
        serve_linger=serve_linger,
        live_interval=live_interval,
        watchdog_timeout=watchdog_timeout,
        serve_ready=serve_ready,
    )
    stream = make_mixed_ops(ops, seed)
    drive = _drive_batched if batched else _drive_per_op
    with harness:
        if fault is None:
            served = drive(store, stream)
        else:
            warmup = ops // 2 if fault_after is None else fault_after
            warmup = max(0, min(warmup, len(stream)))
            served = drive(store, stream[:warmup])
            store.circuit.fault_injection = FAULT_PRESETS[fault]
            served = served + drive(store, stream[warmup:])
    return TracedRun(
        harness=harness,
        store=store,
        ops=ops,
        seed=seed,
        batched=batched,
        served=len(served),
        engine=mode,
        fault=fault,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "Run a traced mixed soak through the hardware tag store and "
            "export its telemetry (JSONL trace, metrics, run report)."
        ),
    )
    parser.add_argument(
        "--ops", type=int, default=10_000, help="operations in the soak"
    )
    parser.add_argument(
        "--seed", type=int, default=20060101, help="workload seed"
    )
    parser.add_argument(
        "--granularity", type=float, default=8.0, help="tag quantum"
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="use the coalesced fast paths (span-attributed deltas)",
    )
    add_flags(
        parser, "--mode", "--trace", "--metrics", "--output", "--format",
        "--buffer-size", "--monitor", "--allow-lossy", "--serve",
        "--serve-linger", "--live-interval", "--watchdog", "--flight",
    )
    parser.add_argument(
        "--inject-fault",
        choices=sorted(FAULT_PRESETS),
        default=None,
        help=(
            "seed a telemetry fault halfway through the soak (pairs "
            "with --monitor and --flight to exercise the forensics "
            "path; the run exits 1 by design)"
        ),
    )
    parser.add_argument(
        "--fault-after",
        type=int,
        default=None,
        metavar="OPS",
        help="clean warmup ops before --inject-fault kicks in",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = run_traced_soak(
        ops=args.ops,
        seed=args.seed,
        granularity=args.granularity,
        batched=args.batched,
        fault=args.inject_fault,
        fault_after=args.fault_after,
        **soak_kwargs(args),
    )
    return finish(
        args,
        run,
        [(
            run.reconciled,
            "trace deltas do not reconcile with the stats registry",
        )],
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
