"""ScheduleFabric: equivalence, batching, spill/rebalance, checkpoints."""

import json

import pytest

from repro.bench.perf import make_flow_ops
from repro.fabric.fabric import ScheduleFabric
from repro.fabric.manager import FabricPolicy
from repro.hwsim.errors import ProtocolError
from repro.net.hardware_store import HardwareTagStore

GRANULARITY = 8.0


def drive(store, ops):
    served = []
    for op in ops:
        if op[0] == "push":
            store.push(op[1], op[2])
        else:
            served.append(store.pop_min())
    return served


def drive_batched(store, ops):
    served = []
    pending = []
    pops = 0
    for op in ops:
        if op[0] == "push":
            if pops:
                served.extend(store.pop_batch(pops))
                pops = 0
            pending.append((op[1], op[2]))
        else:
            if pending:
                store.push_batch(pending)
                pending = []
            pops += 1
    if pending:
        store.push_batch(pending)
    if pops:
        served.extend(store.pop_batch(pops))
    return served


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_one_shard_fabric_matches_bare_store_per_op(seed):
    ops = make_flow_ops(2_000, seed)
    fabric = ScheduleFabric(shards=1, granularity=GRANULARITY)
    store = HardwareTagStore(granularity=GRANULARITY)
    assert drive(fabric, ops) == drive(store, ops)


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_one_shard_fabric_matches_bare_store_batched(seed):
    ops = make_flow_ops(2_000, seed)
    fabric = ScheduleFabric(shards=1, granularity=GRANULARITY)
    store = HardwareTagStore(granularity=GRANULARITY)
    assert drive_batched(fabric, ops) == drive_batched(store, ops)


@pytest.mark.parametrize("seed", [3, 17, 99])
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_batched_fabric_matches_per_op_fabric(shards, seed):
    """pop_batch's runner-up fence must reproduce repeated pop_min."""
    ops = make_flow_ops(3_000, seed)
    per_op = ScheduleFabric(shards=shards, granularity=GRANULARITY)
    batched = ScheduleFabric(
        shards=shards, granularity=GRANULARITY
    )
    assert drive(per_op, ops) == drive_batched(batched, ops)


def test_service_is_quantum_monotone_on_monotone_arrivals():
    """With non-regressing arrival tags the merged stream never goes
    backwards in quantized order.  (Regressing arrivals *may* serve
    behind the global floor — each shard clamps against its own
    minimum — which is why the global invariant is checked via live
    sets, not a watermark; see FabricOrderMonitor.)
    """
    import random

    rng = random.Random(5)
    fabric = ScheduleFabric(shards=4, granularity=GRANULARITY)
    served = []
    vt = 0.0
    live = 0
    for _ in range(400):
        for _ in range(rng.randint(1, 6)):
            vt += rng.random() * 30
            fabric.push(vt, rng.randrange(64))
            live += 1
        for _ in range(rng.randint(0, min(6, live))):
            served.append(fabric.pop_min())
            live -= 1
    quanta = [int(tag / GRANULARITY) for tag, _ in served]
    space = fabric.fmt.capacity
    for previous, current in zip(quanta, quanta[1:]):
        ahead = (current - previous) % space
        assert ahead < space // 2, "service went backwards"


def test_push_pop_counts_and_occupancy():
    fabric = ScheduleFabric(shards=4, granularity=1.0)
    for flow in range(40):
        fabric.push(float(flow), flow)
    assert fabric.pushes == 40
    assert len(fabric) == 40
    assert sum(fabric.occupancies()) == 40
    assert sum(fabric.flow_live.values()) == 40
    fabric.pop_batch(40)
    assert fabric.pops == 40
    assert len(fabric) == 0
    assert fabric.flow_live == {}


def test_pop_from_empty_fabric_raises():
    fabric = ScheduleFabric(shards=2, granularity=1.0)
    with pytest.raises(ProtocolError):
        fabric.pop_min()
    fabric.push(1.0, 1)
    with pytest.raises(ProtocolError):
        fabric.pop_batch(2)


def test_spill_overflows_to_roomier_shard_without_loss():
    """Near-full home shards divert tags instead of dropping them."""
    fabric = ScheduleFabric(
        shards=2,
        granularity=1.0,
        capacity_per_shard=64,
        policy=FabricPolicy(spill_threshold=0.5, rebalance_min_backlog=10**9),
    )
    home = fabric.partitioner.shard_for(7)
    # One flow pushes far past its home shard's spill threshold.
    for index in range(100):
        fabric.push(float(index % 50), 7)
    assert len(fabric) == 100
    assert fabric.manager.spill_count > 0
    assert fabric.occupancies()[1 - home] > 0
    # Nothing was lost: every pushed tag comes back exactly once.  (The
    # exact served values need not be globally sorted — a spilled tag
    # behind its host shard's minimum is clamped up to it, the same
    # concession the single circuit makes for behind-minimum inserts.)
    served = fabric.pop_batch(100)
    assert sorted(tag for tag, _ in served) == sorted(
        float(index % 50) for index in range(100)
    )
    assert all(payload == 7 for _, payload in served)


def test_rebalance_moves_hot_flows():
    """A skewed partition triggers a rebalance that repins flows."""
    policy = FabricPolicy(
        spill_threshold=1.0,
        rebalance_ratio=2.0,
        rebalance_min_backlog=32,
        rebalance_cooldown_ops=1,
        max_moves_per_rebalance=4,
    )
    fabric = ScheduleFabric(
        shards=2, granularity=1.0, capacity_per_shard=4096, policy=policy
    )
    hot = fabric.partitioner.shard_for(11)
    # Everything lands on flow 11's home shard; the other stays empty.
    for index in range(200):
        fabric.push(float(index % 100), 11)
    assert fabric.manager.rebalance_count > 0
    assert fabric.manager.flows_moved > 0
    # The hot flow is now pinned away from its hash home.
    assert fabric.partitioner.shard_for(11) != hot
    # New pushes for that flow land on the new shard.
    before = fabric.occupancies()
    fabric.push(99.0, 11)
    after = fabric.occupancies()
    assert after[1 - hot] == before[1 - hot] + 1


@pytest.mark.parametrize("batched", [False, True])
def test_checkpoint_restore_resumes_identically(batched):
    ops = make_flow_ops(3_000, 23)
    split = len(ops) // 2
    fabric = ScheduleFabric(
        shards=4, granularity=GRANULARITY
    )
    run = drive_batched if batched else drive
    run(fabric, ops[:split])
    # Canonicalize through JSON: checkpoints live on disk.
    state = json.loads(json.dumps(fabric.to_state()))
    restored = ScheduleFabric.from_state(state)
    assert len(restored) == len(fabric)
    assert restored.occupancies() == fabric.occupancies()
    assert run(restored, ops[split:]) == run(fabric, ops[split:])
    assert restored.operations == fabric.operations
    assert restored.cycles == fabric.cycles


def test_describe_is_json_serializable():
    fabric = ScheduleFabric(shards=4, granularity=GRANULARITY)
    drive(fabric, make_flow_ops(500, 1))
    description = fabric.describe()
    assert description["shards"] == 4
    json.dumps(description)


def test_peek_min_exact_matches_next_pop():
    fabric = ScheduleFabric(shards=4, granularity=GRANULARITY)
    assert fabric.peek_min_exact() is None
    for op in make_flow_ops(300, 2):
        if op[0] == "push":
            fabric.push(op[1], op[2])
        else:
            assert fabric.peek_min_exact() == fabric.pop_min()
