"""Telemetry threaded through the circuit and store.

Covers the acceptance invariants of the observability layer: a default
circuit emits nothing and runs the uninstrumented class hot paths; a
traced run attributes every registry access to exactly one event; and
the batched fast paths emit an event stream comparable event-for-event
with per-op mode; and the shared wrappers emit the same stream on every
engine.
"""

import pytest

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.core.engine import make_circuit, numpy_or_none
from repro.core.sort_retrieve import TagSortRetrieveCircuit
from repro.core.words import FIGURE_FORMAT, PAPER_FORMAT
from repro.hwsim.errors import EmptyStructureError, ProtocolError
from repro.hwsim.stats import AccessStats
from repro.net.hardware_store import HardwareTagStore
from repro.obs.events import OP_KINDS
from repro.obs.tracer import NULL_TRACER, Tracer


def op_stream(tracer):
    """(kind, tag) pairs of the logical-operation events, in order."""
    return [
        (event.kind, event.attrs.get("tag"))
        for event in tracer.events()
        if event.kind in OP_KINDS
    ]


class TestNullTracerDefault:
    def test_untraced_circuit_has_no_instance_wrappers(self):
        circuit = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=8)
        assert circuit.tracer is NULL_TRACER
        for name in ("insert", "dequeue_min", "insert_batch", "dequeue_batch"):
            assert name not in vars(circuit)

    def test_untraced_run_emits_zero_events(self):
        circuit = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=8)
        circuit.insert(50)
        circuit.insert(100)
        circuit.dequeue_min()
        assert circuit.tracer.events() == []
        assert circuit.tracer.emitted == 0

    def test_attach_then_detach_restores_class_paths(self):
        circuit = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=8)
        tracer = Tracer()
        circuit.attach_tracer(tracer)
        assert "insert" in vars(circuit)
        circuit.insert(10)
        assert tracer.emitted == 1
        circuit.detach_tracer()
        assert circuit.tracer is NULL_TRACER
        assert "insert" not in vars(circuit)
        circuit.insert(20)
        assert tracer.emitted == 1  # no longer receiving events

    def test_attaching_disabled_tracer_detaches(self):
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=8, tracer=Tracer()
        )
        assert "insert" in vars(circuit)
        circuit.attach_tracer(NULL_TRACER)
        assert "insert" not in vars(circuit)


class TestPerOpEvents:
    def test_insert_and_dequeue_events_carry_exact_deltas(self):
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=8, tracer=tracer
        )
        circuit.insert(100)
        circuit.insert(150)
        circuit.dequeue_min()

        events = tracer.events()
        assert [e.kind for e in events] == ["insert", "insert", "dequeue"]
        first = events[0]
        assert first.attrs["tag"] == 100
        assert first.attrs["cycles"] == 4
        assert first.attrs["occupancy"] == 1
        assert first.attrs["used_backup"] is False
        assert first.delta_total > 0
        served = events[2]
        assert served.attrs["tag"] == 100  # min-first service
        assert served.attrs["occupancy"] == 1

        # attribution invariant at circuit scope
        registry = circuit.registry
        traced = tracer.attributed_totals()
        for name in registry.names():
            stats = registry[name]
            if stats.total:
                assert traced[name] == AccessStats(
                    reads=stats.reads, writes=stats.writes
                )

    def test_failed_dequeue_emits_failed_event_and_reraises(self):
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=8, tracer=tracer
        )
        with pytest.raises(EmptyStructureError):
            circuit.dequeue_min()
        event = tracer.events("dequeue")[0]
        assert event.attrs["failed"] is True
        assert event.attrs["error"] == "EmptyStructureError"

    def test_insert_and_dequeue_combined_op(self):
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=8, tracer=tracer
        )
        circuit.insert(40)
        served, _ = circuit.insert_and_dequeue(60)
        event = tracer.events("insert_dequeue")[0]
        assert event.attrs["tag"] == 60
        assert event.attrs["served_tag"] == served.tag == 40
        assert event.delta_total > 0

    def test_backup_path_reported(self):
        """FIGURE_FORMAT with adjacent tags exercises the backup search."""
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            FIGURE_FORMAT, capacity=16, tracer=tracer
        )
        for tag in (9, 10, 33, 34, 50):
            circuit.insert(tag)
        flags = [
            event.attrs["used_backup"] for event in tracer.events("insert")
        ]
        assert len(flags) == 5  # every insert reports the flag either way


class TestBatchedEvents:
    def test_batch_events_match_per_op_event_for_event(self):
        # unsorted, but never below the first (minimum) tag — the WFQ
        # monotonicity invariant the deferred-marker circuit enforces
        tags = [300, 900, 500, 450, 700, 350]

        per_op_tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=16, tracer=per_op_tracer
        )
        for tag in tags:
            circuit.insert(tag)
        for _ in range(len(tags)):
            circuit.dequeue_min()

        batch_tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=16, tracer=batch_tracer
        )
        circuit.insert_batch(tags)
        circuit.dequeue_batch(len(tags))

        assert op_stream(batch_tracer) == op_stream(per_op_tracer)

    def test_batch_deltas_live_on_the_span(self):
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=16, tracer=tracer
        )
        circuit.insert_batch([5, 300, 80])
        inserts = tracer.events("insert")
        assert all(event.attrs["batched"] for event in inserts)
        assert all(not event.deltas for event in inserts)
        span = tracer.events("span")[0]
        assert span.name == "insert_batch"
        assert span.attrs["count"] == 3
        assert span.delta_total == circuit.registry.total().total

    def test_batch_occupancy_sequence(self):
        tracer = Tracer()
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=16, tracer=tracer
        )
        circuit.insert_batch([10, 20, 30])
        circuit.dequeue_batch(2)
        occupancies = [
            event.attrs["occupancy"]
            for event in tracer.events()
            if event.kind in OP_KINDS
        ]
        assert occupancies == [1, 2, 3, 2, 1]


class TestStoreAndSchedulerIntegration:
    def test_store_emits_clamp_events(self):
        tracer = Tracer()
        store = HardwareTagStore(granularity=8.0, tracer=tracer)
        assert store.tracer is tracer
        store.push(100.0, flow_id=1)
        store.push(10_000.0, flow_id=2)
        store.pop_min()  # floor rises to the served quantum (100/8)
        # a tag below the served floor is the paper's glossed-over case:
        # the store must clamp it to the live minimum's quantum
        store.push(0.0, flow_id=3)
        clamps = tracer.events("clamp")
        assert clamps, "stale push should activate the clamp backup path"
        assert clamps[0].attrs["quanta"] > 0
        assert store.clamped_inserts == 1

    def test_store_attach_detach_passthrough(self):
        store = HardwareTagStore(granularity=8.0)
        assert store.tracer is NULL_TRACER
        tracer = Tracer()
        store.attach_tracer(tracer)
        assert store.circuit.tracer is tracer
        store.push(10.0, flow_id=1)
        assert tracer.events("insert")
        store.detach_tracer()
        assert store.tracer is NULL_TRACER

    def test_scheduler_system_threads_tracer_to_lazy_store(self):
        from repro.net.scheduler_system import HardwareWFQSystem
        from repro.sched import Packet

        tracer = Tracer()
        system = HardwareWFQSystem(10e6, tracer=tracer)
        system.add_flow(1, weight=1.0)
        system.enqueue(
            Packet(flow_id=1, size_bytes=1000, arrival_time=0.0, packet_id=0),
            now=0.0,
        )
        assert tracer.events("insert")


class TestMixedSoakReconciliation:
    """The ISSUE acceptance check, at both scopes and both modes."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_traced_mixed_run_reconciles_exactly(self, batched):
        tracer = Tracer()
        store = HardwareTagStore(
            granularity=8.0, tracer=tracer
        )
        ops = make_mixed_ops(3_000, seed=77)
        drive = _drive_batched if batched else _drive_per_op
        drive(store, ops)
        registry = store.circuit.registry
        traced = tracer.attributed_totals()
        for name in registry.names():
            stats = registry[name]
            mine = traced.get(name, AccessStats())
            assert (mine.reads, mine.writes) == (stats.reads, stats.writes), (
                f"structure {name}: traced {mine} != registry {stats}"
            )
        assert (
            tracer.attributed_grand_total().total == registry.total().total
        )

    def test_per_op_and_batched_modes_emit_identical_op_streams(self):
        ops = make_mixed_ops(3_000, seed=77)

        per_op_tracer = Tracer()
        store = HardwareTagStore(granularity=8.0, tracer=per_op_tracer)
        served_per_op = _drive_per_op(store, ops)

        batch_tracer = Tracer()
        store = HardwareTagStore(
            granularity=8.0, tracer=batch_tracer
        )
        served_batched = _drive_batched(store, ops)

        assert served_per_op == served_batched
        assert op_stream(batch_tracer) == op_stream(per_op_tracer)


def drive_every_wrapper(circuit):
    """One stream through all nine traced wrappers of a modular circuit."""
    circuit.insert(10, "a")
    circuit.insert(20, "b")
    circuit.insert(300, "c")
    circuit.insert(310, "d")
    circuit.insert(305, "e")  # gate finds 300 through the backup path
    batch = circuit.insert_batch([600, 40, 520], ["f", "g", "h"])
    circuit.dequeue_min()  # 10
    circuit.insert_and_dequeue(700, "i")  # serves 20
    circuit.remove(circuit.peek_head().address)  # the head, 40
    circuit.remove(batch[2])  # 520, mid-list between 300 and 600
    circuit.retag(batch[0], 800)
    with pytest.raises(ProtocolError):
        circuit.insert(5)  # behind the window minimum (300)
    circuit.clear_stale_section(0)  # the stale markers of 10 and 20
    circuit.dequeue_batch(circuit.count)
    circuit.flush_stale_markers()
    circuit.insert(900, "j")


def tracer_rows(events, *, backup=True):
    """``(kind, name, attrs)`` per event, optionally without used_backup."""
    rows = []
    for event in events:
        attrs = dict(event.attrs)
        if not backup:
            attrs.pop("used_backup", None)
        rows.append((event.kind, event.name, attrs))
    return rows


@pytest.mark.skipif(numpy_or_none() is None, reason="numpy is not installed")
def test_every_engine_emits_the_same_events_from_every_wrapper():
    """The traced wrappers are shared, so gate, turbo and vector emit the
    same ``(kind, name, attrs)`` stream event for event; only vector's
    ``used_backup`` (its search models no backup path) and its modeled
    deltas differ.  Gate and turbo charge identical deltas."""
    events = {}
    for mode in ("gate", "turbo", "vector"):
        tracer = Tracer()
        circuit = make_circuit(
            PAPER_FORMAT, mode=mode, capacity=32, modular=True, tracer=tracer
        )
        drive_every_wrapper(circuit)
        circuit.check_invariants()
        events[mode] = tracer.events()
    gate = events["gate"]
    reached = {(event.kind, event.name) for event in gate}
    assert reached == {
        ("insert", "insert"),
        ("dequeue", "dequeue"),
        ("insert_dequeue", "insert_dequeue"),
        ("span", "insert_batch"),
        ("span", "dequeue_batch"),
        ("remove", "remove"),
        ("retag", "retag"),
        ("section_clear", "section_clear"),
        ("marker_flush", "marker_flush"),
    }
    assert [e.attrs["head"] for e in gate if e.kind == "remove"] == [
        True,
        False,
    ]
    assert [e.kind for e in gate if e.attrs.get("failed")] == ["insert"]
    assert [e.attrs["tag"] for e in gate if e.attrs.get("used_backup")] == [
        305
    ]
    assert tracer_rows(events["turbo"]) == tracer_rows(gate)
    assert [e.deltas for e in events["turbo"]] == [e.deltas for e in gate]
    assert tracer_rows(events["vector"], backup=False) == tracer_rows(
        gate, backup=False
    )
    assert not any(e.attrs.get("used_backup") for e in events["vector"])

