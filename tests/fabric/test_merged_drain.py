"""Merged batch drains: ``pop_batch(k)`` is exactly ``k`` x ``pop_min``.

A drain of ``MERGE_MIN_BATCH`` entries or more is planned as a k-way
merge of the shards' peeked tag streams and served with one store
``pop_batch`` per touched shard; a smaller one runs the runner-up fence
loop.  Twin fabrics — one drained in batches, one entry at a time — are
driven through the same streams (tags that wrap past the tag space,
equal-quantum ties across shards, behind-minimum clamps, cancels,
retags and rebalancing migrations) on every engine and shard count, and
must agree on everything: served entries, handles, relocations,
snapshots, occupancies, per-flow counts, cycles and access counters.

The order monitor must keep its teeth: a merged drain's dequeues reach
the trace shard by shard, and a drain plan that serves one entry out of
global order is convicted.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import numpy_or_none
from repro.fabric.fabric import MERGE_MIN_BATCH, ScheduleFabric
from repro.fabric.manager import FabricPolicy
from repro.hwsim.errors import ProtocolError
from repro.obs.events import TraceEvent
from repro.obs.monitors import MonitorSuite, check_trace
from repro.obs.tracer import Tracer

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy is not installed"
)
ENGINES = [
    pytest.param("gate", id="gate"),
    pytest.param("turbo", id="turbo"),
    pytest.param("vector", id="vector", marks=needs_numpy),
]

#: rebalances with little backlog, so migrations happen mid-stream
POLICY = FabricPolicy(
    spill_threshold=0.75,
    rebalance_ratio=2.0,
    rebalance_min_backlog=16,
    rebalance_cooldown_ops=8,
    max_moves_per_rebalance=2,
)

#: flow 0 carries ~60% of the pushes, so its home shard runs hot
FLOW = st.integers(0, 99).map(lambda roll: 0 if roll < 60 else roll % 16)

STEP = st.one_of(
    st.tuples(st.just("push"), FLOW, st.integers(0, 40)),
    # one quantum pushed on several flows: ties across shards
    st.tuples(st.just("tie"), st.lists(FLOW, min_size=2, max_size=4)),
    # a tag behind the clock: the shard clamps it to its minimum
    st.tuples(st.just("behind"), FLOW, st.integers(1, 60)),
    st.tuples(
        st.just("burst"), st.lists(FLOW, min_size=8, max_size=48),
        st.integers(0, 3),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("retag"), st.integers(0, 10**6), st.integers(0, 40)),
    st.tuples(st.just("drain"), st.integers(1, 3 * MERGE_MIN_BATCH)),
)


class Twin:
    """One fabric, drained by ``pop_batch`` or by repeated ``pop_min``."""

    def __init__(self, shards, mode, batched):
        self.fabric = ScheduleFabric(
            shards=shards,
            granularity=1.0,
            capacity_per_shard=128,
            mode=mode,
            policy=POLICY,
        )
        #: pushes past this backlog are skipped: with spills at 3/4 of
        #: a shard, no shard can fill up
        self.limit = 64 * shards
        self.batched = batched
        self.handles = {}  # payload -> live fabric handle
        self.log = []
        self.fabric.add_relocation_listener(self._relocate)

    def _relocate(self, moves):
        self.log.append(("relocate", sorted(moves.items())))
        for payload, handle in self.handles.items():
            self.handles[payload] = moves.get(handle, handle)

    def _push(self, tag, flow, payload):
        if len(self.fabric) >= self.limit:
            return
        self.handles[payload] = self.fabric.push(float(tag), flow, payload)
        self.log.append(("push", payload, self.handles[payload]))

    def _victim(self, pick):
        payloads = sorted(self.handles)
        return payloads[pick % len(payloads)]

    def apply(self, step, clock, serial):
        kind = step[0]
        fabric = self.fabric
        try:
            if kind == "push":
                self._push(clock + step[2], step[1], serial)
            elif kind == "tie":
                for offset, flow in enumerate(step[1]):
                    self._push(clock, flow, serial + offset)
            elif kind == "behind":
                self._push(clock - step[2], step[1], serial)
            elif kind == "burst":
                for offset, flow in enumerate(step[1]):
                    self._push(clock + offset * step[2], flow, serial + offset)
            elif kind in ("cancel", "retag") and self.handles:
                payload = self._victim(step[1])
                handle = self.handles[payload]
                if kind == "cancel":
                    self.log.append(("cancel", fabric.remove(handle)))
                    del self.handles[payload]
                else:
                    self.handles[payload] = fabric.retag(
                        handle, float(clock + step[2])
                    )
                    self.log.append(("retag", self.handles[payload]))
            elif kind == "drain":
                count = min(step[1], len(fabric))
                if self.batched:
                    served = fabric.pop_batch(count)
                else:
                    served = [fabric.pop_min() for _ in range(count)]
                self.log.append(("served", served))
                for _tag, payload in served:
                    del self.handles[payload]
        except ProtocolError as error:
            self.log.append(("error", str(error)))

    def counters(self):
        fabric = self.fabric
        return (
            fabric.occupancies(),
            fabric.flow_live,
            fabric.pops,
            [store.cycles for store in fabric.stores],
            [
                (totals.reads, totals.writes)
                for totals in (
                    store.circuit.registry.total() for store in fabric.stores
                )
            ],
        )


def state(twin):
    return json.dumps(twin.fabric.to_state(), sort_keys=True)


@pytest.mark.parametrize("mode", ENGINES)
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
@settings(max_examples=30, deadline=None)
@given(
    start=st.integers(3800, 4095),
    steps=st.lists(STEP, min_size=10, max_size=70),
)
def test_pop_batch_is_pop_min_repeated(shards, mode, start, steps):
    batched = Twin(shards, mode, batched=True)
    per_op = Twin(shards, mode, batched=False)
    clock = start
    serial = 0
    for step in steps:
        clock += 3
        batched.apply(step, clock, serial)
        per_op.apply(step, clock, serial)
        serial += 64
        assert batched.log == per_op.log
        assert batched.counters() == per_op.counters()
        if step[0] == "drain":
            assert state(batched) == state(per_op)
    assert state(batched) == state(per_op)


@pytest.mark.parametrize("mode", ENGINES)
def test_merged_drain_crosses_the_wrap_with_ties(mode):
    """A deterministic case the property must cover: one merged drain
    over four shards whose tags straddle the wrap, with equal quanta on
    several shards."""
    batched = Twin(4, mode, batched=True)
    per_op = Twin(4, mode, batched=False)
    steps = [("tie", list(range(16)))] + [
        ("burst", [flow, flow + 1, flow + 2, flow + 3], 1)
        for flow in range(0, 64, 4)
    ] + [("drain", 70)]
    clock, serial = 4080, 0
    for step in steps:
        clock += 1
        batched.apply(step, clock, serial)
        per_op.apply(step, clock, serial)
        serial += 64
    served = batched.log[-1]
    assert served[0] == "served" and len(served[1]) == 70
    assert {store.circuit.count for store in batched.fabric.stores} != {0}
    assert batched.log == per_op.log
    assert batched.counters() == per_op.counters()
    assert state(batched) == state(per_op)


# ----------------------------------------------------------------------
# the order monitor against merged drains


def _event(seq, kind, component, **attrs):
    return TraceEvent(seq, kind, kind, attrs={"component": component, **attrs})


def _trace(runs, serves):
    """Inserts 10 and 20 on shard0 and 15 on shard1, then one drain."""
    events = [
        _event(0, "insert", "shard0", tag=10),
        _event(1, "insert", "shard0", tag=20),
        _event(2, "insert", "shard1", tag=15),
        _event(3, "drain_plan", "fabric", count=len(serves), runs=runs),
    ]
    for seq, (shard, tag) in enumerate(serves, start=4):
        events.append(_event(seq, "dequeue", f"shard{shard}", tag=tag))
    return events


def _order_violations(events):
    suite = check_trace(events)
    return [
        violation
        for violation in suite.violations
        if violation.monitor == "fabric_tournament_order"
    ]


def test_order_monitor_checks_a_planned_batch_in_plan_order():
    # Trace order is shard by shard; the plan says 10, 15, 20.
    serves = [(0, 10), (0, 20), (1, 15)]
    assert _order_violations(_trace([[0, 1], [1, 1], [0, 1]], serves)) == []


def test_order_monitor_convicts_a_planned_serve_out_of_order():
    # The same dequeues planned as 10, 20, 15: serving 20 while shard1
    # still holds 15 breaks the global order.
    serves = [(0, 10), (0, 20), (1, 15)]
    violations = _order_violations(_trace([[0, 2], [1, 1]], serves))
    assert len(violations) == 1
    assert "shard0 served tag 20 while shard1 held live tag 15" in (
        violations[0].message
    )
    assert "serve 2 of a 3-entry drain plan" in violations[0].message


def test_order_monitor_convicts_a_dequeue_the_plan_does_not_cover():
    serves = [(1, 15), (0, 10)]
    violations = _order_violations(_trace([[0, 1]], serves))
    assert [v.seq for v in violations] == [4]
    assert "does not account for" in violations[0].message


def test_order_monitor_convicts_an_interrupted_plan():
    events = _trace([[0, 1], [1, 1]], [(0, 10)])
    events.append(_event(5, "insert", "shard1", tag=30))
    events.append(_event(6, "dequeue", "shard1", tag=15))
    violations = _order_violations(events)
    assert [v.seq for v in violations] == [5]
    assert "while a drain plan awaits 1 dequeue(s)" in violations[0].message


def _traced_merged_drain(mode):
    tracer = Tracer(buffer_size=100_000)
    fabric = ScheduleFabric(shards=4, granularity=1.0, mode=mode, tracer=tracer)
    suite = MonitorSuite.for_circuit(fabric.stores[0].circuit, tracer=tracer)
    tracer.add_observer(suite)
    for index in range(3 * MERGE_MIN_BATCH):
        fabric.push(float(index // 3), index % 16)
    fabric.pop_batch(2 * MERGE_MIN_BATCH)
    return tracer, suite


@pytest.mark.parametrize("mode", ENGINES)
def test_traced_merged_drain_announces_its_plan_first(mode):
    tracer, suite = _traced_merged_drain(mode)
    assert suite.ok, [v.to_dict() for v in suite.violations]
    events = tracer.events()
    plans = [e for e in events if e.kind == "drain_plan"]
    assert len(plans) == 1
    runs = plans[0].attrs["runs"]
    assert sum(count for _, count in runs) == 2 * MERGE_MIN_BATCH
    assert len({shard for shard, _ in runs}) > 1
    first_dequeue = next(e.seq for e in events if e.kind == "dequeue")
    assert plans[0].seq < first_dequeue
    # Trace order is per shard, not the plan's: the monitor's job.
    served_shards = [
        int(e.attrs["component"][len("shard"):])
        for e in events
        if e.kind == "dequeue"
    ]
    planned = [shard for shard, count in runs for _ in range(count)]
    assert served_shards != planned
    assert sorted(served_shards) == sorted(planned)


def test_swapped_plan_runs_are_convicted():
    """A real merged drain's trace with two plan runs swapped fails."""
    tracer, _ = _traced_merged_drain("turbo")
    events = tracer.events()
    plan = next(e for e in events if e.kind == "drain_plan")
    runs = plan.attrs["runs"]
    swap = next(
        index
        for index in range(len(runs) - 1)
        if runs[index][0] != runs[index + 1][0]
    )
    runs[swap], runs[swap + 1] = runs[swap + 1], runs[swap]
    assert _order_violations(events)
