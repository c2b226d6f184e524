"""Turbo engine parity at the store and fabric layers.

The :class:`HardwareTagStore` adapter and the sharded fabric thread the
engine ``mode`` down to their circuits; everything observable — served
stream, wrap bookkeeping, per-structure accounting, snapshots — must
match the gate engine exactly on identical seeded workloads.
"""

import pytest

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.bench.perf import make_flow_ops
from repro.fabric.fabric import ScheduleFabric
from repro.net.hardware_store import HardwareTagStore

GRANULARITY = 8.0


def _registry_snapshot(store):
    return {
        name: (stats.reads, stats.writes)
        for name, stats in store.circuit.registry.snapshot_all().items()
    }


@pytest.mark.parametrize("seed", [3, 20060101])
def test_store_turbo_parity_per_op(seed):
    ops = make_mixed_ops(4_000, seed)
    gate = HardwareTagStore(granularity=GRANULARITY)
    turbo = HardwareTagStore(granularity=GRANULARITY, mode="turbo")
    assert _drive_per_op(turbo, ops) == _drive_per_op(gate, ops)
    assert turbo.circuit.cycles == gate.circuit.cycles
    assert _registry_snapshot(turbo) == _registry_snapshot(gate)
    # Wrap-management registers agree too (sections cleared, clamps).
    assert turbo.sections_cleared == gate.sections_cleared
    assert turbo.markers_purged == gate.markers_purged
    assert turbo.clamped_inserts == gate.clamped_inserts


def test_store_turbo_parity_batched():
    ops = make_mixed_ops(4_000, 11)
    gate = HardwareTagStore(granularity=GRANULARITY)
    turbo = HardwareTagStore(granularity=GRANULARITY, mode="turbo")
    assert _drive_batched(turbo, ops) == _drive_batched(gate, ops)
    assert turbo.circuit.cycles == gate.circuit.cycles
    assert _registry_snapshot(turbo) == _registry_snapshot(gate)


def test_store_describe_and_state_carry_engine():
    turbo = HardwareTagStore(granularity=GRANULARITY, mode="turbo")
    assert turbo.circuit.mode == "turbo"
    # The config block names no engine; the store snapshot's mode does.
    gate = HardwareTagStore(granularity=GRANULARITY)
    assert turbo.describe() == gate.describe()
    _drive_per_op(turbo, make_mixed_ops(1_000, 7))
    state = turbo.to_state()
    assert state["mode"] == "turbo"
    revived = HardwareTagStore.from_state(state)
    assert revived.mode == revived.circuit.mode == "turbo"
    # The revived store continues the exact service stream.
    twin = HardwareTagStore(granularity=GRANULARITY)
    _drive_per_op(twin, make_mixed_ops(1_000, 7))
    tail = make_mixed_ops(500, 8)
    assert _drive_per_op(revived, tail) == _drive_per_op(twin, tail)


@pytest.mark.parametrize("shards", [1, 4])
def test_fabric_turbo_parity(shards):
    ops = make_flow_ops(3_000, 17)
    gate = ScheduleFabric(shards=shards, granularity=GRANULARITY)
    turbo = ScheduleFabric(
        shards=shards, granularity=GRANULARITY, mode="turbo"
    )

    def drive(fabric):
        served = []
        for op in ops:
            if op[0] == "push":
                fabric.push(op[1], op[2])
            else:
                served.append(fabric.pop_min())
        return served

    assert drive(turbo) == drive(gate)
    for mine, theirs in zip(turbo.stores, gate.stores):
        assert mine.circuit.cycles == theirs.circuit.cycles
        assert _registry_snapshot(mine) == _registry_snapshot(theirs)


def test_fabric_state_roundtrip_keeps_turbo():
    fabric = ScheduleFabric(shards=2, granularity=GRANULARITY, mode="turbo")
    fabric.push(10.0, 1)
    fabric.push(20.0, 2)
    state = fabric.to_state()
    assert state["mode"] == "turbo"
    assert "turbo" not in state and "fast_mode" not in state
    revived = ScheduleFabric.from_state(state)
    assert revived.mode == "turbo"
    assert all(store.circuit.mode == "turbo" for store in revived.stores)
    assert revived.pop_min() == fabric.pop_min()
