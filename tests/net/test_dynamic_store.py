"""Dynamic updates through the net and fabric layers.

The circuit-level remove/retag primitives surface as ``cancel`` and
``reschedule`` on the WFQ scheduler systems and as shard-local
``remove``/``retag`` on the scheduling fabric.  These tests pin the
handle plumbing at each layer: buffer-slot recycling on cancel, wrap
discipline on repin (span guard *before* any mutation), drain-free
shard locality on the fabric, checkpoint/restore of the cancel/repin
counters, and the turbo head-path cache never serving a removed or
retagged path.
"""

import random

import pytest

from repro.core.words import WordFormat
from repro.fabric.fabric import ScheduleFabric
from repro.hwsim.errors import ProtocolError
from repro.net.hardware_store import HardwareTagStore
from repro.net.scheduler_system import HardwareWFQSystem
from repro.sched.packet import Packet


def make_packet(flow, t, size=1000):
    return Packet(flow_id=flow, size_bytes=size, arrival_time=t)


class TestStoreDynamicUpdates:
    def test_push_returns_handle_remove_returns_entry(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(5.0, 1)
        handle = store.push(9.0, 2)
        store.push(12.0, 3)
        assert store.remove(handle) == (9.0, 2)
        assert [store.pop_min()[1] for _ in range(2)] == [1, 3]

    def test_retag_moves_entry_under_quantization(self):
        store = HardwareTagStore(granularity=10.0, capacity=8)
        store.push(51.0, 1)
        handle = store.push(95.0, 2)
        new_handle = store.retag(handle, 53.0)
        # 53.0 shares quantum 5 with 51.0: FCFS puts it second.
        assert [store.pop_min() for _ in range(2)] == [(51.0, 1), (53.0, 2)]
        assert len(store) == 0
        assert isinstance(new_handle, int)

    def test_retag_span_guard_rejects_before_mutation(self):
        small = WordFormat(levels=2, literal_bits=3)
        store = HardwareTagStore(fmt=small, granularity=1.0, capacity=8)
        store.push(1.0, 0)
        handle = store.push(5.0, 1)
        accesses = store.circuit.registry.total().total
        operations = store.operations
        with pytest.raises(ProtocolError):
            store.retag(handle, 100.0)  # span would exceed half the window
        # Guard ran before the remove: nothing was unlinked or re-pushed.
        assert store.circuit.registry.total().total == accesses
        assert store.operations == operations
        assert len(store) == 2
        assert store.remove(handle) == (5.0, 1)

    @pytest.mark.parametrize("tag", [-1e308, -1e7, 5.0 - 2048])
    def test_retag_far_behind_only_entry_rejects_before_mutation(self, tag):
        # The entry is the store's only one: were the removal to run, the
        # re-push would open a fresh epoch at the far-behind quantum and
        # drag the span floor there.
        store = HardwareTagStore(granularity=1.0, capacity=8)
        handle = store.push(5.0, 1)
        state = store.to_state()
        with pytest.raises(ProtocolError, match="behind the live window"):
            store.retag(handle, tag)
        assert store.to_state() == state
        store.push(6.0, 2)
        assert [store.pop_min() for _ in range(2)] == [(5.0, 1), (6.0, 2)]

    def test_retag_just_inside_the_window_is_accepted(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        handle = store.push(5.0, 1)
        store.retag(handle, 5.0 - 2047)
        assert store.pop_min() == (5.0 - 2047, 1)

    def test_stale_store_handle_raises(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        handle = store.push(5.0, 1)
        store.pop_min()
        with pytest.raises(ProtocolError):
            store.remove(handle)

    def test_retag_behind_minimum_clamps_like_push(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(100.0, 0)
        handle = store.push(200.0, 1)
        clamped = store.clamped_inserts
        store.retag(handle, 50.0)
        assert store.clamped_inserts == clamped + 1
        payloads = [store.pop_min()[1] for _ in range(2)]
        assert sorted(payloads) == [0, 1]


class TestSchedulerCancelReschedule:
    def make_system(self):
        system = HardwareWFQSystem(1e9)
        for flow in range(4):
            system.add_flow(flow, weight=1.0 + flow)
        return system

    def test_cancel_releases_buffer_slot(self):
        system = self.make_system()
        handle = system.enqueue(make_packet(0, 0.001), 0.001)
        assert system.buffer.occupancy == 1
        packet = system.cancel(handle)
        assert packet.flow_id == 0
        assert system.buffer.occupancy == 0
        assert system.backlog == 0

    def test_cancelled_packet_never_served(self):
        system = self.make_system()
        handles = [
            system.enqueue(make_packet(i % 4, 0.001 * (i + 1)), 0.001 * (i + 1))
            for i in range(8)
        ]
        system.cancel(handles[3])
        served = []
        t = 0.1
        while system.backlog:
            t += 0.001
            served.append(system.select_next(t))
        assert len(served) == 7
        tags = [packet.finish_tag for packet in served]
        assert tags == sorted(tags)

    def test_reschedule_updates_finish_tag_and_order(self):
        system = HardwareWFQSystem(1e9, granularity=100.0)
        for flow in range(4):
            system.add_flow(flow, weight=1.0 + flow)
        packets = [make_packet(i % 4, 0.001 * (i + 1)) for i in range(6)]
        handles = [
            system.enqueue(packet, packet.arrival_time) for packet in packets
        ]
        # Strictly past every queued tag, so the repin cannot clamp.
        late_tag = max(packet.finish_tag for packet in packets) + 200.0
        system.reschedule(handles[0], late_tag)
        served = []
        t = 0.1
        while system.backlog:
            t += 0.001
            served.append(system.select_next(t))
        assert served[-1].finish_tag == late_tag
        tags = [packet.finish_tag for packet in served]
        # Service follows quantized tags with FCFS ties: exact tags may
        # invert by strictly less than one quantum, never more.
        assert all(
            earlier - later <= 100.0 for earlier, later in zip(tags, tags[1:])
        )

    def test_cancel_stale_handle_raises(self):
        system = self.make_system()
        handle = system.enqueue(make_packet(0, 0.001), 0.001)
        system.cancel(handle)
        with pytest.raises(ProtocolError):
            system.cancel(handle)


class TestFabricDynamicUpdates:
    def test_handle_location_roundtrip(self):
        fabric = ScheduleFabric(shards=4)
        handle = fabric.push(10.0, 7)
        shard, local = fabric.handle_location(handle)
        assert handle == shard * fabric.capacity_per_shard + local
        with pytest.raises(ProtocolError):
            fabric.handle_location(4 * fabric.capacity_per_shard)

    def test_remove_touches_only_owning_shard(self):
        fabric = ScheduleFabric(shards=4)
        handles = [
            fabric.push(float(10 + i), i) for i in range(16)
        ]
        target = handles[5]
        owner, _ = fabric.handle_location(target)
        before = [store.operations for store in fabric.stores]
        fabric.remove(target)
        after = [store.operations for store in fabric.stores]
        touched = [
            shard
            for shard, (a, b) in enumerate(zip(before, after))
            if a != b
        ]
        assert touched == [owner]
        assert fabric.cancels == 1

    def test_retag_stays_on_owning_shard(self):
        fabric = ScheduleFabric(shards=4)
        handles = [fabric.push(float(10 + i), i) for i in range(16)]
        target = handles[9]
        owner, _ = fabric.handle_location(target)
        before = [store.operations for store in fabric.stores]
        new_handle = fabric.retag(target, 500.0)
        after = [store.operations for store in fabric.stores]
        touched = [
            shard
            for shard, (a, b) in enumerate(zip(before, after))
            if a != b
        ]
        assert touched == [owner]
        assert fabric.handle_location(new_handle)[0] == owner
        assert fabric.repins == 1

    def test_remove_retag_preserve_global_order(self):
        fabric = ScheduleFabric(shards=4)
        rng = random.Random(13)
        handles = [fabric.push(float(10 + i), i) for i in range(32)]
        rng.shuffle(handles)
        for handle in handles[:8]:
            fabric.remove(handle)
        live = handles[8:]
        for handle in live[:8]:
            fabric.retag(handle, fabric.peek_min_exact()[0] + 100.0)
        tags = [fabric.pop_min()[0] for _ in range(len(fabric))]
        assert tags == sorted(tags)

    def test_checkpoint_restores_cancel_repin_counters(self):
        fabric = ScheduleFabric(shards=2)
        handles = [fabric.push(float(10 + i), i) for i in range(8)]
        fabric.remove(handles[2])
        fabric.retag(handles[5], 300.0)
        restored = ScheduleFabric.from_state(fabric.to_state())
        assert restored.cancels == 1
        assert restored.repins == 1
        assert len(restored) == len(fabric)
        tags = [restored.pop_min()[0] for _ in range(len(restored))]
        assert tags == sorted(tags)

    def test_handles_survive_checkpoint_restore(self):
        fabric = ScheduleFabric(shards=2)
        handles = [fabric.push(float(10 + i), i) for i in range(8)]
        restored = ScheduleFabric.from_state(fabric.to_state())
        assert restored.remove(handles[3]) == (13.0, 3)
        assert len(restored) == 7


class TestFabricSystemDynamicUpdates:
    def make_system(self, **kwargs):
        system = HardwareWFQSystem(1e9, shards=4, **kwargs)
        for flow in range(8):
            system.add_flow(flow, weight=1.0 + flow * 0.25)
        return system

    @pytest.mark.parametrize("turbo", [False, True])
    def test_cancel_and_repin_are_shard_drain_free(self, turbo):
        system = self.make_system(mode="turbo" if turbo else "gate")
        t = 0.0
        handles = []
        for i in range(60):
            t += 0.001
            handles.append(system.enqueue(make_packet(i % 8, t), t))
        before = [store.operations for store in system.store.stores]
        system.cancel(handles[30])
        system.reschedule(
            handles[31], system.store.peek_min_exact()[0] + 10.0
        )
        after = [store.operations for store in system.store.stores]
        touched = sum(1 for a, b in zip(before, after) if a != b)
        assert touched <= 2  # at most the two owning shards

    def test_mixed_churn_serves_in_tag_order(self):
        system = self.make_system()
        rng = random.Random(11)
        t = 0.0
        handles = []
        for i in range(120):
            t += 0.001
            handle = system.enqueue(make_packet(i % 8, t), t)
            assert handle is not None
            handles.append(handle)
        rng.shuffle(handles)
        for handle in handles[:40]:
            assert system.cancel(handle) is not None
        # Repin past every shard's head so no repin is clamped (a
        # behind-minimum repin would legally serve at the owning
        # shard's quantum instead of its requested tag).
        for handle in handles[40:80]:
            floor = max(
                store.peek_min_exact()[0]
                for store in system.store.stores
                if len(store)
            )
            system.reschedule(handle, floor + rng.random() * 50)
        quantum = system.store.stores[0].granularity
        served = []
        while system.backlog:
            t += 0.001
            served.append(system.select_next(t).finish_tag)
        assert len(served) == 80
        # Quantized service with FCFS ties: sub-quantum inversions only.
        assert all(
            earlier - later <= quantum
            for earlier, later in zip(served, served[1:])
        )
        assert system.buffer.occupancy == 0


class TestTurboHeadCacheInvalidation:
    """Remove and retag at the head of a duplicate run on the turbo
    engine: the head moves, and service continues from the new head."""

    def test_remove_of_head_invalidates_cache(self):
        store = HardwareTagStore(granularity=1.0, capacity=64, mode="turbo")
        head = store.push(10.0, 0)
        store.push(10.0, 1)
        store.push(10.0, 2)
        store.push(20.0, 3)
        store.remove(head)
        assert [store.pop_min()[1] for _ in range(3)] == [1, 2, 3]

    def test_retag_of_head_run_never_serves_stale_path(self):
        store = HardwareTagStore(granularity=1.0, capacity=64, mode="turbo")
        handles = [store.push(10.0, i) for i in range(4)]
        store.push(30.0, 9)
        store.retag(handles[0], 40.0)
        payloads = [store.pop_min()[1] for _ in range(5)]
        assert payloads == [1, 2, 3, 9, 0]
        store.circuit.check_invariants()

    def test_churned_turbo_store_matches_gate_store(self):
        rng = random.Random(29)
        gate = HardwareTagStore(granularity=1.0, capacity=128)
        turbo = HardwareTagStore(granularity=1.0, capacity=128, mode="turbo")
        live = []
        tag = 10.0
        for step in range(400):
            roll = rng.random()
            if roll < 0.5 or not live:
                tag += rng.random() * 3.0
                live.append(
                    (gate.push(tag, step), turbo.push(tag, step))
                )
            elif roll < 0.7:
                g, t = live.pop(rng.randrange(len(live)))
                assert gate.remove(g) == turbo.remove(t)
            elif roll < 0.85:
                index = rng.randrange(len(live))
                g, t = live[index]
                new_tag = gate.peek_min_exact()[0] + rng.random() * 20.0
                live[index] = (
                    gate.retag(g, new_tag),
                    turbo.retag(t, new_tag),
                )
            elif len(gate):
                assert gate.pop_min() == turbo.pop_min()
                live = [
                    pair
                    for pair in live
                    if gate.circuit.is_live_handle(pair[0])
                ]
        assert gate.cycles == turbo.cycles
        while len(gate):
            assert gate.pop_min() == turbo.pop_min()
        gate.circuit.check_invariants()
        turbo.circuit.check_invariants()
