"""Fabric-soak driver: the machinery behind ``python -m repro fabric``.

Runs the bench harness's flow-attributed mixed workload (the same
generator the fabric benchmark phase times) through a
:class:`~repro.fabric.fabric.ScheduleFabric` inside the shared
:class:`~repro.obs.harness.RunHarness`, and verifies the telemetry
acceptance invariant *across shards*: the summed per-structure deltas of
the event stream reconcile exactly with the per-structure totals summed
over every shard's ``StatsRegistry``.

Beyond the :mod:`repro.obs.runner` contract it adds the fabric-specific
switches: ``--shards``/``--flows`` shape the partition, ``--monitor``
screens the interleaved multi-store trace through the per-component
invariant monitors, and ``--checkpoint FILE`` snapshots the whole
fabric mid-soak, restores a second fabric from the JSON file, and
replays the remaining operations on both — the run fails unless the
service sequences match element for element.

Kept out of :mod:`repro.fabric`'s eager imports (it pulls in the bench
layer) — the CLI imports it lazily.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bench.perf import _drive_batched, _drive_per_op, make_flow_ops
from ..core.engine import resolve_mode
from ..obs.harness import (
    HarnessRun, RunHarness, add_flags, finish, soak_kwargs,
)
from .fabric import ScheduleFabric


@dataclass
class FabricRun(HarnessRun):
    """Everything a traced fabric soak produced."""

    harness: RunHarness
    fabric: ScheduleFabric
    ops: int
    seed: int
    batched: bool
    served: int
    checkpoint: Optional[Dict] = None

    @property
    def attribution_by_component(self) -> Dict[str, int]:
        """Attributed access totals per component stamp (``shard0``,
        ``shard1``, ...) — the skew-attribution view of the same ledger
        :attr:`reconciliation` checks in aggregate."""
        return {
            component: sum(stats.total for stats in totals.values())
            for component, totals in sorted(
                self.tracer.attributed_totals_by_component().items()
            )
        }

    def report(self) -> str:
        """The human-readable run report."""
        mode = "batched" if self.batched else "per-op"
        manager = self.fabric.manager
        notes = [
            f"fabric: occupancies {self.fabric.occupancies()}, "
            f"{manager.spill_count} spills, "
            f"{manager.rebalance_count} rebalances "
            f"({manager.flows_moved} flows moved), "
            f"{self.fabric.tournament.comparisons} tournament comparisons",
        ]
        by_component = self.attribution_by_component
        if by_component:
            parts = ", ".join(
                f"{component}={total}"
                for component, total in by_component.items()
            )
            notes.append(f"attribution by shard: {parts}")
        if self.checkpoint is not None:
            verdict = (
                "identical"
                if self.checkpoint["resumed_match"]
                else "DIVERGED"
            )
            notes.append(
                f"checkpoint: snapshot at op "
                f"{self.checkpoint['ops_at_checkpoint']} -> "
                f"{self.checkpoint['path']}; restored replay {verdict} "
                f"over {self.checkpoint['resumed_ops']} ops"
            )
        return self._soak_report(
            f"fabric soak: {self.ops} ops over {self.fabric.shards} "
            f"shard(s) ({mode}), seed {self.seed}",
            notes,
        )

    def to_document(self) -> Dict:
        """The JSON-format report (one output convention with the
        artifact CLI's ``--format json``)."""
        manager = self.fabric.manager
        document = self._soak_document(
            workload={
                "ops": self.ops,
                "seed": self.seed,
                "mode": "batched" if self.batched else "per_op",
                "granularity": self.fabric.granularity,
                "served": self.served,
            },
            fabric={
                "shards": self.fabric.shards,
                "occupancies": self.fabric.occupancies(),
                "pushes": self.fabric.pushes,
                "pops": self.fabric.pops,
                "spills": manager.spill_count,
                "rebalances": manager.rebalance_count,
                "flows_moved": manager.flows_moved,
                "tournament_comparisons": self.fabric.tournament.comparisons,
                "cycles_makespan": self.fabric.cycles,
                "cycles_total": self.fabric.cycles_total,
            },
        )
        document["reconciliation"]["by_component"] = (
            self.attribution_by_component
        )
        document["checkpoint"] = self.checkpoint
        return document


def run_fabric_soak(
    *,
    ops: int = 10_000,
    seed: int = 20060101,
    shards: int = 4,
    flows: int = 256,
    granularity: float = 8.0,
    batched: bool = False,
    mode: Optional[str] = None,
    trace_sink: Optional[str] = None,
    buffer_size: int = 65536,
    monitor: bool = False,
    checkpoint_path: Optional[str] = None,
    serve_port: Optional[int] = None,
    serve_host: str = "127.0.0.1",
    serve_linger: float = 0.0,
    live_interval: float = 0.5,
    watchdog_timeout: Optional[float] = None,
    flight_path: Optional[str] = None,
    shard_slo_inversions: Optional[int] = None,
) -> FabricRun:
    """Drive a traced fabric soak and return its telemetry.

    ``batched=True`` exercises the coalesced paths (grouped per-shard
    inserts; drains merged across shards with one store call per shard,
    or fence-bounded tournament runs below the merge crossover).
    ``monitor=True`` screens the interleaved multi-store event stream
    through the per-component invariant monitors (every shard's config
    is identical, so shard 0's circuit parameterizes the suite).

    ``checkpoint_path`` splits the soak in half: the fabric is
    snapshotted to that file mid-run, a second fabric is restored from
    the JSON on disk, and both serve the remaining operations — the
    returned run's ``checkpoint["resumed_match"]`` records whether the
    two service sequences were identical (the restore-fidelity
    acceptance check, and the mechanism shard migration relies on).

    The observability keywords are the
    :class:`~repro.obs.harness.RunHarness` ones.  With ``serve_port``
    the live plane sees each shard's occupancy and the per-shard
    labeled counters, so the scrape carries ``repro_live_*{shard="N"}``
    series plus the fleet-skew gauges.  ``shard_slo_inversions`` arms a
    per-shard inversion-budget SLO rule on top of the auditor: any
    single shard exceeding that many rank inversions flips ``/health``
    to a breach attributed to the culprit shard.  ``watchdog_timeout``
    arms a progress watchdog: when the summed-registry progress reading
    stops moving, the collector thread declares the stall (no per-op
    heartbeat on the hot path).
    """
    mode = resolve_mode(mode)
    fabric = ScheduleFabric(
        shards=shards,
        granularity=granularity,
        mode=mode,
    )
    harness = RunHarness(
        fabric,
        header=dict(
            seed=seed,
            mode="batched" if batched else "per_op",
            config=fabric.describe(),
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
        shard_slo_inversions=shard_slo_inversions,
        extra_status=lambda: {
            "fabric": {
                "shards": fabric.shards,
                "pushes": fabric.pushes,
                "pops": fabric.pops,
            }
        },
    )
    stream = make_flow_ops(ops, seed, flows=flows)
    drive = _drive_batched if batched else _drive_per_op
    checkpoint_doc: Optional[Dict] = None
    with harness:
        if checkpoint_path:
            split = len(stream) // 2
            served = drive(fabric, stream[:split])
            state = fabric.to_state()
            with open(checkpoint_path, "w", encoding="utf-8") as handle:
                json.dump(state, handle)
                handle.write("\n")
            with open(checkpoint_path, "r", encoding="utf-8") as handle:
                restored = ScheduleFabric.from_state(json.load(handle))
            tail = stream[split:]
            resumed = drive(fabric, tail)
            served.extend(resumed)
            replayed = drive(restored, tail)
            checkpoint_doc = {
                "path": checkpoint_path,
                "ops_at_checkpoint": split,
                "resumed_ops": len(tail),
                "resumed_match": replayed == resumed,
            }
        else:
            served = drive(fabric, stream)
    return FabricRun(
        harness=harness,
        fabric=fabric,
        ops=ops,
        seed=seed,
        batched=batched,
        served=len(served),
        checkpoint=checkpoint_doc,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fabric",
        description=(
            "Run a traced mixed soak through the sharded scheduling "
            "fabric and export its telemetry (JSONL trace, metrics, "
            "run report, optional mid-run checkpoint/restore check)."
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="independent circuits"
    )
    parser.add_argument(
        "--ops", type=int, default=10_000, help="operations in the soak"
    )
    parser.add_argument(
        "--seed", type=int, default=20060101, help="workload seed"
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=256,
        help="flow-id population the workload draws from",
    )
    parser.add_argument(
        "--granularity", type=float, default=8.0, help="tag quantum"
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="use the coalesced paths (grouped inserts, merged drains)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help=(
            "snapshot the fabric to this JSON file mid-soak, restore a "
            "second fabric from it, replay the rest on both, and exit 1 "
            "unless the service sequences match"
        ),
    )
    parser.add_argument(
        "--shard-slo-inversions",
        type=int,
        metavar="N",
        help=(
            "per-shard SLO: flag /health as breached (with the culprit "
            "shard) when any single shard exceeds N rank inversions "
            "(needs --serve)"
        ),
    )
    add_flags(
        parser, "--mode", "--trace", "--metrics", "--output", "--format",
        "--buffer-size", "--monitor", "--allow-lossy", "--serve",
        "--serve-host", "--serve-linger", "--live-interval", "--watchdog",
        "--flight",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = run_fabric_soak(
        ops=args.ops,
        seed=args.seed,
        shards=args.shards,
        flows=args.flows,
        granularity=args.granularity,
        batched=args.batched,
        checkpoint_path=args.checkpoint,
        shard_slo_inversions=args.shard_slo_inversions,
        **soak_kwargs(args),
    )
    return finish(
        args,
        run,
        [
            (
                run.reconciled,
                "trace deltas do not reconcile with the summed "
                "per-shard stats registries",
            ),
            (
                run.checkpoint is None or run.checkpoint["resumed_match"],
                "the fabric restored from the checkpoint served a "
                "different sequence than the original",
            ),
        ],
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
