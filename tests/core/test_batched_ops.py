"""Batched fast-path engine: equivalence with per-op circuit operation.

The contract of :meth:`TagSortRetrieveCircuit.insert_batch`,
:meth:`dequeue_batch` and :meth:`run_mixed`: identical service order,
identical cycle/operation accounting, identical invariants — only the
bookkeeping cost is amortized.  These tests pin that contract down on
both structure flavours, including the atomic-failure semantics that
distinguish the batched paths from a per-op loop.
"""

import random

import pytest

from repro.core.sort_retrieve import (
    FusedSortRetrieveCircuit,
    TagSortRetrieveCircuit,
)
from repro.core.words import PAPER_FORMAT, WordFormat
from repro.hwsim.errors import (
    CapacityError,
    ConfigurationError,
    EmptyStructureError,
    ProtocolError,
)

SMALL = WordFormat(levels=2, literal_bits=2)


def drain(circuit):
    return [circuit.dequeue_min() for _ in range(circuit.count)]


class TestInsertBatch:
    def test_service_order_matches_per_op(self):
        rng = random.Random(5)
        tags = [rng.randrange(PAPER_FORMAT.capacity) for _ in range(300)]
        reference = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=512)
        minimum = min(tags)
        # Per-op requires the WFQ monotone property; feed sorted.
        for tag in sorted(tags):
            reference.insert(tag, payload=("p", tag))
        batched = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=512)
        batched.insert_batch(sorted(tags), [("p", t) for t in sorted(tags)])
        assert batched.cycles == reference.cycles
        assert batched.operations == reference.operations
        batched.check_invariants()
        served_ref = [(s.tag, s.payload) for s in drain(reference)]
        served_new = [(s.tag, s.payload) for s in drain(batched)]
        assert served_new == served_ref

    def test_unsorted_input_is_stable_sorted(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=16)
        circuit.insert(0)  # anchor the window minimum
        circuit.insert_batch([9, 3, 9, 3], ["a", "b", "c", "d"])
        circuit.check_invariants()
        served = [(s.tag, s.payload) for s in drain(circuit)]
        # Equal tags keep their submission (FCFS) order.
        assert served == [(0, None), (3, "b"), (3, "d"), (9, "a"), (9, "c")]

    def test_addresses_align_with_input_order(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=16)
        circuit.insert(0)
        addresses = circuit.insert_batch([7, 2, 5], ["x", "y", "z"])
        assert len(addresses) == 3
        by_address = {
            entry.address: (entry.tag, entry.payload)
            for entry in drain(circuit)
        }
        assert by_address[addresses[0]] == (7, "x")
        assert by_address[addresses[1]] == (2, "y")
        assert by_address[addresses[2]] == (5, "z")

    def test_rejected_batch_leaves_circuit_untouched(self):
        circuit = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=16)
        circuit.insert(100)
        before = (circuit.count, circuit.cycles, circuit.operations)
        with pytest.raises(ProtocolError):
            # 50 violates the WFQ monotone invariant mid-batch; the
            # per-op loop would have inserted 200 first.
            circuit.insert_batch([200, 50])
        assert (circuit.count, circuit.cycles, circuit.operations) == before
        circuit.check_invariants()
        assert [s.tag for s in drain(circuit)] == [100]

    def test_capacity_checked_before_any_insert(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=4)
        circuit.insert(1)
        with pytest.raises(CapacityError):
            circuit.insert_batch([2, 3, 4, 5])
        assert circuit.count == 1

    def test_payload_length_mismatch(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8)
        with pytest.raises(ConfigurationError):
            circuit.insert_batch([1, 2], ["only-one"])

    def test_empty_batch_is_noop(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8)
        assert circuit.insert_batch([]) == []
        assert circuit.count == 0 and circuit.cycles == 0

    def test_eager_mode_falls_back_to_per_op(self):
        circuit = TagSortRetrieveCircuit(
            SMALL, capacity=8, eager_marker_removal=True
        )
        circuit.insert_batch([5, 1, 3])
        circuit.check_invariants()
        assert [s.tag for s in drain(circuit)] == [1, 3, 5]

    def test_modular_behind_window_rejected(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8, modular=True)
        circuit.insert(10)
        with pytest.raises(ProtocolError, match="behind the window"):
            # Wrapped distance from the minimum exceeds half the space.
            circuit.insert_batch([(10 + SMALL.capacity // 2) % SMALL.capacity])


class TestDequeueBatch:
    def test_matches_repeated_dequeue_min(self):
        make = lambda: TagSortRetrieveCircuit(PAPER_FORMAT, capacity=64)
        tags = sorted(random.Random(3).randrange(4096) for _ in range(40))
        a, b = make(), make()
        a.insert_batch(tags)
        b.insert_batch(tags)
        per_op = [(s.tag, s.address) for s in (b.dequeue_min() for _ in tags)]
        batch = [(s.tag, s.address) for s in a.dequeue_batch(len(tags))]
        assert batch == per_op
        assert a.cycles == b.cycles and a.operations == b.operations
        a.check_invariants()

    def test_freed_addresses_recycle_identically(self):
        """Interleaving batch dequeues with inserts reuses the same
        storage slots as the per-op discipline (LIFO free list)."""
        make = lambda: TagSortRetrieveCircuit(PAPER_FORMAT, capacity=8)
        a, b = make(), make()
        for circuit in (a, b):
            circuit.insert_batch([10, 20, 30, 40])
        a.dequeue_batch(3)
        for _ in range(3):
            b.dequeue_min()
        addr_a = a.insert_batch([50, 60, 70])
        addr_b = [b.insert(tag) for tag in (50, 60, 70)]
        assert addr_a == addr_b

    def test_validation(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8)
        circuit.insert(1)
        with pytest.raises(ConfigurationError):
            circuit.dequeue_batch(-1)
        with pytest.raises(EmptyStructureError):
            circuit.dequeue_batch(2)
        assert circuit.dequeue_batch(0) == []
        assert circuit.count == 1


class TestRunMixedParity:
    @pytest.mark.parametrize("fused", [False, True])
    def test_randomized_parity(self, fused):
        """run_mixed serves exactly what a per-op loop serves, at the
        same cycle cost, across seeds, on both structure flavours."""
        for seed in range(8):
            rng = random.Random(seed)
            operations = []
            tag, live = 0, 0
            for _ in range(300):
                if live and rng.random() < 0.45:
                    operations.append(("dequeue",))
                    live -= 1
                else:
                    tag = min(PAPER_FORMAT.max_value, tag + rng.randrange(40))
                    operations.append(("insert", tag, f"p{len(operations)}"))
                    live += 1
            reference = TagSortRetrieveCircuit(PAPER_FORMAT, capacity=512)
            ref_served = []
            for op in operations:
                if op[0] == "insert":
                    reference.insert(op[1], op[2])
                else:
                    ref_served.append(reference.dequeue_min())
            engine = (
                FusedSortRetrieveCircuit if fused else TagSortRetrieveCircuit
            )
            batched = engine(PAPER_FORMAT, capacity=512)
            served = batched.run_mixed(operations)
            assert [(s.tag, s.payload) for s in served] == [
                (s.tag, s.payload) for s in ref_served
            ]
            assert batched.cycles == reference.cycles
            assert batched.operations == reference.operations
            batched.check_invariants()


class TestFastMode:
    """The Fig. 6 section guard rests on the per-section occupancy
    counters, never on a verification shadow (the circuit keeps none)."""

    def test_section_guard_active_without_shadow(self):
        circuit = TagSortRetrieveCircuit(
            PAPER_FORMAT, capacity=32, modular=True
        )
        circuit.insert(3)
        with pytest.raises(ProtocolError, match=r"live tags \(e\.g\. 3\)"):
            circuit.clear_stale_section(0)


class TestFlushStaleMarkers:
    def test_refuses_with_live_tags(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8)
        circuit.insert(3)
        with pytest.raises(ProtocolError):
            circuit.flush_stale_markers()

    def test_wipes_markers_after_drain(self):
        circuit = TagSortRetrieveCircuit(SMALL, capacity=8)
        circuit.insert_batch([3, 7])
        circuit.dequeue_batch(2)
        assert not circuit.tree.is_empty  # deferred removal left markers
        circuit.flush_stale_markers()
        assert circuit.tree.is_empty
