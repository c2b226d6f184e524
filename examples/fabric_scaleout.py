#!/usr/bin/env python3
"""Scale-out tour: one circuit vs. a sharded scheduling fabric.

Four stops:

1. a shard sweep (1 / 4 / 16) over the same flow workload, reporting
   the modeled speedup — single-circuit cycles over fabric makespan;
2. the tournament aggregator picking the global minimum across shard
   head registers in O(log N) wrap-aware comparisons;
3. a hot flow overloading its home shard until the manager spills to
   a neighbour and then durably rebalances the flow;
4. a mid-run checkpoint: snapshot, JSON round trip, restore, and an
   identical continuation on both sides.

Run: ``python examples/fabric_scaleout.py``
"""

import json

from repro.bench.perf import make_flow_ops
from repro.fabric import FabricPolicy, ScheduleFabric
from repro.net.hardware_store import HardwareTagStore


def drive(target, ops):
    """Replay a push/pop op stream against a store or fabric."""
    for op in ops:
        if op[0] == "push":
            target.push(op[1], op[2])
        else:
            target.pop_min()


def shard_sweep() -> None:
    print("— Shard sweep: modeled speedup over one circuit —")
    ops = make_flow_ops(6_000, seed=20060101, flows=256)
    single = HardwareTagStore(granularity=8.0)
    drive(single, ops)
    print(f"  1 circuit serves the soak in {single.cycles} cycles")
    for shards in (1, 4, 16):
        fabric = ScheduleFabric(shards=shards, granularity=8.0)
        drive(fabric, ops)
        speedup = single.cycles / fabric.cycles
        cmp_per_op = fabric.tournament.comparisons / max(1, fabric.pops)
        print(
            f"  {shards:2d} shards: makespan {fabric.cycles} cycles, "
            f"modeled speedup {speedup:.2f}x, "
            f"{cmp_per_op:.2f} tournament comparisons/pop"
        )


def tournament_in_miniature() -> None:
    print("— Tournament aggregation across shard heads —")
    fabric = ScheduleFabric(shards=4, granularity=1.0)
    # One tag per flow; the hash partitioner scatters them over shards.
    for flow, tag in enumerate((30.0, 12.0, 47.0, 21.0)):
        fabric.push(tag, flow)
    print(f"  occupancies {fabric.occupancies()}")
    order = [fabric.pop_min()[0] for _ in range(4)]
    print(f"  global service order {order} "
          f"({fabric.tournament.comparisons} comparisons total)")
    assert order == sorted(order)


def spill_and_rebalance() -> None:
    print("— Hot flow: transient spill vs. durable rebalance —")
    hot = 7

    # Spill: capacity relief only — rebalancing disabled by a huge
    # backlog floor, so the overfull home shard lends to a neighbour.
    spilly = ScheduleFabric(
        shards=4,
        granularity=1.0,
        capacity_per_shard=64,
        policy=FabricPolicy(
            spill_threshold=0.5, rebalance_min_backlog=10**9
        ),
    )
    for i in range(100):
        spilly.push(float(i), hot)
    stats = spilly.manager.describe()
    print(f"  spill-only fabric after 100 pushes to flow {hot}: "
          f"{stats['spill_count']} spills, "
          f"{stats['rebalance_count']} rebalances")
    served = [spilly.pop_min() for _ in range(len(spilly))]
    assert sorted(tag for tag, _ in served) == [float(i) for i in range(100)]
    print(f"  drained all {len(served)} tags — multiset conserved")

    # Rebalance: the manager repins the hot flow to a quieter shard,
    # so *future* pushes land elsewhere (live tags never migrate).
    policy = FabricPolicy(
        rebalance_ratio=2.0,
        rebalance_min_backlog=32,
        rebalance_cooldown_ops=1,
    )
    fabric = ScheduleFabric(
        shards=4, granularity=1.0, capacity_per_shard=64, policy=policy
    )
    home = fabric.partitioner.shard_for(hot)
    for i in range(120):
        fabric.push(float(i), hot)
    stats = fabric.manager.describe()
    print(f"  rebalancing fabric: flow {hot} started on shard {home}; "
          f"{stats['rebalance_count']} rebalances repinned "
          f"{stats['flows_moved']} flows")
    print(f"  flow {hot} now pinned to shard "
          f"{fabric.partitioner.shard_for(hot)}")


def checkpoint_migration() -> None:
    print("— Checkpoint: snapshot, migrate, resume identically —")
    ops = make_flow_ops(2_000, seed=7, flows=64)
    split = len(ops) // 2
    fabric = ScheduleFabric(shards=4, granularity=8.0)
    drive(fabric, ops[:split])
    state = json.loads(json.dumps(fabric.to_state()))
    restored = ScheduleFabric.from_state(state)
    tail_a, tail_b = [], []
    for op in ops[split:]:
        if op[0] == "push":
            fabric.push(op[1], op[2])
            restored.push(op[1], op[2])
        else:
            tail_a.append(fabric.pop_min())
            tail_b.append(restored.pop_min())
    verdict = "identical after restore" if tail_a == tail_b else "DIVERGED"
    print(f"  {len(tail_a)} post-snapshot serves on each side: {verdict}")
    assert tail_a == tail_b
    assert fabric.cycles == restored.cycles


def main() -> None:
    shard_sweep()
    print()
    tournament_in_miniature()
    print()
    spill_and_rebalance()
    print()
    checkpoint_migration()


if __name__ == "__main__":
    main()
