"""Per-component invariant monitors against live fabric traces."""

import pytest

from repro.bench.perf import _drive_batched, _drive_per_op, make_flow_ops
from repro.core.sort_retrieve import FaultInjection
from repro.fabric.fabric import ScheduleFabric
from repro.obs.events import TraceEvent
from repro.obs.monitors import (
    FabricBalanceMonitor,
    FabricOrderMonitor,
    MonitorConfig,
    MonitorSuite,
)
from repro.obs.tracer import Tracer


def monitored_fabric(shards=4, batched=False):
    tracer = Tracer(buffer_size=200_000)
    fabric = ScheduleFabric(
        shards=shards, granularity=8.0, tracer=tracer
    )
    suite = MonitorSuite.for_circuit(fabric.stores[0].circuit, tracer=tracer)
    tracer.add_observer(suite)
    return fabric, tracer, suite


@pytest.mark.parametrize("batched", [False, True])
def test_clean_fabric_soak_has_zero_violations(batched):
    fabric, tracer, suite = monitored_fabric(batched=batched)
    ops = make_flow_ops(5_000, 20060101)
    drive = _drive_batched if batched else _drive_per_op
    drive(fabric, ops)
    assert suite.checked > 0
    assert suite.ok, [v.to_dict() for v in suite.violations]


def test_seeded_cross_shard_fault_is_caught_with_component():
    """A shard misreporting its served tag must trip the monitors, and
    the violations must name the faulty shard."""
    fabric, tracer, suite = monitored_fabric()
    fabric.stores[2].circuit.fault_injection = FaultInjection(
        misreport_serve_offset=-2048
    )
    _drive_per_op(fabric, make_flow_ops(5_000, 7))
    assert not suite.ok
    components = {
        violation.attrs.get("component") for violation in suite.violations
    }
    assert "shard2" in components


def test_fabric_order_monitor_catches_wrong_shard_serve():
    """Serving a shard whose head does not hold the global minimum is
    exactly the invariant the tournament maintains."""
    monitor = FabricOrderMonitor(MonitorConfig())
    events = [
        TraceEvent(0, "insert", "insert", attrs={"tag": 100, "component": "shard0"}),
        TraceEvent(1, "insert", "insert", attrs={"tag": 50, "component": "shard1"}),
    ]
    for event in events:
        assert monitor.check(event) is None
        monitor.update(event)
    # shard0 serves 100 while shard1 still holds the live 50.
    bad = TraceEvent(2, "dequeue", "dequeue", attrs={"tag": 100, "component": "shard0"})
    assert monitor.check(bad) is not None
    # The legal serve (shard1's 50) passes.
    good = TraceEvent(3, "dequeue", "dequeue", attrs={"tag": 50, "component": "shard1"})
    assert monitor.check(good) is None


def test_fabric_order_monitor_tie_goes_to_lower_shard():
    monitor = FabricOrderMonitor(MonitorConfig())
    for shard in (0, 1):
        event = TraceEvent(
            shard, "insert", "insert",
            attrs={"tag": 70, "component": f"shard{shard}"},
        )
        monitor.update(event)
    # Equal heads: shard1 serving first violates the tie rule...
    bad = TraceEvent(2, "dequeue", "dequeue", attrs={"tag": 70, "component": "shard1"})
    assert monitor.check(bad) is not None
    # ...shard0 serving first is the tournament's deterministic choice.
    good = TraceEvent(3, "dequeue", "dequeue", attrs={"tag": 70, "component": "shard0"})
    assert monitor.check(good) is None


def test_fabric_balance_monitor_catches_ledger_drift():
    monitor = FabricBalanceMonitor(MonitorConfig())
    for shard, tag in ((0, 10), (0, 11), (1, 12)):
        monitor.update(
            TraceEvent(
                0, "insert", "insert",
                attrs={
                    "tag": tag,
                    "component": f"shard{shard}",
                    "occupancy": 2 if shard == 0 and tag == 11 else 1,
                },
            )
        )
    honest = TraceEvent(
        3, "rebalance", "rebalance",
        attrs={"component": "fabric", "occupancies": [2, 1]},
    )
    assert monitor.check(honest) is None
    tampered = TraceEvent(
        4, "rebalance", "rebalance",
        attrs={"component": "fabric", "occupancies": [1, 2]},
    )
    assert monitor.check(tampered) is not None


def test_rebalance_events_reconcile_with_ledger_live():
    """A real soak that rebalances passes the balance monitor."""
    from repro.fabric.manager import FabricPolicy

    tracer = Tracer(buffer_size=200_000)
    fabric = ScheduleFabric(
        shards=2,
        granularity=1.0,
        policy=FabricPolicy(
            spill_threshold=1.0,
            rebalance_ratio=2.0,
            rebalance_min_backlog=32,
            rebalance_cooldown_ops=16,
        ),
        tracer=tracer,
    )
    suite = MonitorSuite.for_circuit(fabric.stores[0].circuit, tracer=tracer)
    tracer.add_observer(suite)
    for index in range(200):
        fabric.push(float(index % 100), 11)
    assert fabric.manager.rebalance_count > 0
    assert suite.ok, [v.to_dict() for v in suite.violations]
