"""Dynamic updates: remove-by-handle and retag on the circuit.

The paper's circuit only ever serves its minimum; a timer wheel or a
flow table also needs to *withdraw* (TCP retransmit cancelled by an ACK)
and *repin* (idle-expiry pushed back by traffic) entries that are not
the head.  These tests pin the handle lifecycle, the paper-faithful
access/cycle accounting of the unlink path, the marker discipline for
duplicate runs, and the batch-contract guarantees the same PR tightened
(raise-before-mutate on over-ask, validate-before-execute on mixed
streams, free-list conservation under churn).
"""

import random

import pytest

from repro.core.sort_retrieve import (
    FIXED_OP_CYCLES,
    FusedSortRetrieveCircuit,
    TagSortRetrieveCircuit,
)
from repro.core.words import PAPER_FORMAT, WordFormat
from repro.hwsim.errors import (
    ConfigurationError,
    EmptyStructureError,
    ProtocolError,
)

SMALL_FORMAT = WordFormat(levels=2, literal_bits=3)  # 6-bit, 64 values


def make_circuit(**kwargs):
    kwargs.setdefault("capacity", 64)
    kwargs.setdefault("eager_marker_removal", True)
    return TagSortRetrieveCircuit(SMALL_FORMAT, **kwargs)


class TestRemoveByHandle:
    def test_insert_returns_live_handle(self):
        circuit = make_circuit()
        handle = circuit.insert(17, payload="p")
        assert circuit.is_live_handle(handle)
        assert circuit.handle_tag(handle) == 17
        assert circuit.handle_payload(handle) == "p"
        assert circuit.live_handles == 1

    def test_remove_middle_entry_skips_service(self):
        circuit = make_circuit()
        handles = {tag: circuit.insert(tag) for tag in (10, 20, 30)}
        removed = circuit.remove(handles[20])
        assert removed.tag == 20
        assert [circuit.dequeue_min().tag for _ in range(2)] == [10, 30]
        assert circuit.count == 0

    def test_remove_head_entry(self):
        circuit = make_circuit()
        handles = {tag: circuit.insert(tag) for tag in (10, 20, 30)}
        removed = circuit.remove(handles[10])
        assert removed.tag == 10
        assert circuit.dequeue_min().tag == 20

    def test_remove_tail_entry(self):
        circuit = make_circuit()
        handles = {tag: circuit.insert(tag) for tag in (10, 20, 30)}
        assert circuit.remove(handles[30]).tag == 30
        assert [circuit.dequeue_min().tag for _ in range(2)] == [10, 20]

    def test_stale_handle_raises_without_mutation(self):
        circuit = make_circuit()
        handle = circuit.insert(5)
        circuit.remove(handle)
        reads = circuit.registry.total().reads
        with pytest.raises(ProtocolError):
            circuit.remove(handle)
        assert circuit.registry.total().reads == reads
        assert circuit.count == 0

    def test_served_handle_is_retired(self):
        circuit = make_circuit()
        handle = circuit.insert(5)
        circuit.dequeue_min()
        assert not circuit.is_live_handle(handle)
        with pytest.raises(ProtocolError):
            circuit.remove(handle)

    def test_head_removal_costs_fixed_cycles(self):
        circuit = make_circuit()
        handle = circuit.insert(3)
        circuit.insert(9)
        cycles = circuit.cycles
        circuit.remove(handle)
        assert circuit.cycles - cycles == FIXED_OP_CYCLES

    def test_remove_returns_slot_to_free_list(self):
        # Fresh slots come off the init counter (Fig. 10), so the empty
        # list only holds *returned* links: remove must thread exactly
        # one back on.
        circuit = make_circuit()
        handles = [circuit.insert(tag) for tag in (4, 8, 12)]
        assert circuit.free_list_depth == 0
        circuit.remove(handles[1])
        assert circuit.free_list_depth == 1
        circuit.check_invariants()

    def test_duplicate_run_marker_survives_partial_removal(self):
        # Two links of the same value: removing one must keep the value
        # findable (marker intact) until the last link goes.
        circuit = make_circuit()
        first = circuit.insert(21, payload="a")
        circuit.insert(21, payload="b")
        circuit.insert(40)
        circuit.remove(first)
        served = circuit.dequeue_min()
        assert (served.tag, served.payload) == (21, "b")
        assert circuit.dequeue_min().tag == 40
        circuit.check_invariants()

    def test_removing_last_link_clears_marker(self):
        circuit = make_circuit()
        handle = circuit.insert(21)
        circuit.insert(40)
        circuit.remove(handle)
        # 21's marker must be gone: the closest-match search from above
        # lands on 40, and a fresh insert of 21 works normally.
        assert circuit.dequeue_min().tag == 40
        circuit.insert(21)
        assert circuit.dequeue_min().tag == 21
        circuit.check_invariants()

    def test_drain_by_removal_only(self):
        circuit = make_circuit()
        handles = [circuit.insert(tag) for tag in (1, 2, 3, 4, 5)]
        for handle in handles:
            circuit.remove(handle)
        assert circuit.count == 0
        assert circuit.live_handles == 0
        circuit.check_invariants()
        # The circuit is reusable after a removal-only drain.
        circuit.insert(7)
        assert circuit.dequeue_min().tag == 7


class TestRetag:
    def test_retag_moves_entry_and_keeps_payload(self):
        circuit = make_circuit()
        handle = circuit.insert(30, payload="keep")
        circuit.insert(20)
        new_handle = circuit.retag(handle, 10)
        assert not circuit.is_live_handle(handle) or new_handle == handle
        assert circuit.handle_tag(new_handle) == 10
        served = circuit.dequeue_min()
        assert (served.tag, served.payload) == (10, "keep")

    def test_retag_costs_remove_plus_insert(self):
        circuit = make_circuit()
        handle = circuit.insert(8)
        circuit.insert(16)
        operations = circuit.operations
        circuit.retag(handle, 24)
        assert circuit.operations - operations == 2

    def test_retag_out_of_range_rejected_untouched(self):
        circuit = make_circuit()
        handle = circuit.insert(8)
        cycles = circuit.cycles
        with pytest.raises((ProtocolError, ConfigurationError)):
            circuit.retag(handle, SMALL_FORMAT.max_value + 1)
        assert circuit.cycles == cycles
        assert circuit.handle_tag(handle) == 8

    def test_retag_stale_handle_rejected(self):
        circuit = make_circuit()
        handle = circuit.insert(8)
        circuit.dequeue_min()
        with pytest.raises(ProtocolError):
            circuit.retag(handle, 12)

    def test_retag_churn_preserves_invariants(self):
        circuit = make_circuit(capacity=128)
        rng = random.Random(5)
        live = [circuit.insert(rng.randrange(64)) for _ in range(20)]
        for _ in range(60):
            victim = live.pop(rng.randrange(len(live)))
            live.append(circuit.retag(victim, rng.randrange(64)))
        circuit.check_invariants()
        served = [circuit.dequeue_min().tag for _ in range(circuit.count)]
        assert served == sorted(served)


class TestStateRoundtripWithHandles:
    def test_handles_survive_snapshot_restore(self):
        circuit = make_circuit()
        handles = {tag: circuit.insert(tag) for tag in (10, 20, 30)}
        state = circuit.to_state()
        restored = TagSortRetrieveCircuit.from_state(state)
        assert restored.live_handles == 3
        assert restored.handle_tag(handles[20]) == 20
        removed = restored.remove(handles[20])
        assert removed.tag == 20
        assert [restored.dequeue_min().tag for _ in range(2)] == [10, 30]
        restored.check_invariants()


class TestBatchContracts:
    """The batch-contract sweep: raise-before-mutate, validate-first."""

    def test_dequeue_batch_over_ask_raises_before_mutate(self):
        circuit = make_circuit()
        for tag in (3, 6, 9):
            circuit.insert(tag)
        cycles = circuit.cycles
        reads = circuit.registry.total().reads
        with pytest.raises(EmptyStructureError):
            circuit.dequeue_batch(4)
        # Nothing was served and nothing was charged: the contract is
        # all-or-nothing at both the circuit and storage layers.
        assert circuit.count == 3
        assert circuit.cycles == cycles
        assert circuit.registry.total().reads == reads
        assert [s.tag for s in circuit.dequeue_batch(3)] == [3, 6, 9]

    def test_storage_dequeue_batch_over_ask_raises_before_mutate(self):
        circuit = make_circuit()
        for tag in (3, 6, 9):
            circuit.insert(tag)
        depth = circuit.free_list_depth
        with pytest.raises(EmptyStructureError):
            circuit.storage.dequeue_batch(4)
        assert circuit.free_list_depth == depth
        assert circuit.count == 3

    def test_run_mixed_validates_stream_before_execution(self):
        circuit = make_circuit()
        baseline_state = circuit.to_state()
        with pytest.raises(ConfigurationError):
            circuit.run_mixed(
                [("insert", 5), ("dequeue",), ("defragment",)]
            )
        # The bad trailing op must leave the whole stream unapplied.
        assert circuit.to_state() == baseline_state
        assert circuit.count == 0

    def test_run_mixed_rejects_empty_operation(self):
        circuit = make_circuit()
        with pytest.raises(ConfigurationError):
            circuit.run_mixed([()])
        assert circuit.count == 0

    def test_run_mixed_with_dynamic_updates_matches_per_op(self):
        ops = [
            ("insert", 10, "a"),
            ("insert", 30, "b"),
            ("insert", 20, "c"),
            ("dequeue",),
            ("insert", 25, "d"),
            ("dequeue",),
            ("dequeue",),
        ]
        mixed = make_circuit()
        per_op = make_circuit()
        handle = None
        served_per_op = []
        for op in ops:
            if op[0] == "insert":
                address = per_op.insert(op[1], payload=op[2])
                if op[1] == 30:
                    handle = address
            else:
                served_per_op.append(per_op.dequeue_min())
        per_op.remove(handle)

        mixed_handles = {}
        for op in ops[:3]:
            mixed_handles[op[1]] = None  # addresses assigned in batch
        served_mixed = mixed.run_mixed(ops)
        # Same stream, same service: the batched/coalesced path and the
        # per-op path serve identical (tag, payload) sequences.
        assert [(s.tag, s.payload) for s in served_mixed] == [
            (s.tag, s.payload) for s in served_per_op
        ]

    def test_run_mixed_remove_and_retag_ops(self):
        circuit = make_circuit()
        h_10 = circuit.insert(10)
        h_20 = circuit.insert(20)
        circuit.insert(30)
        served = circuit.run_mixed(
            [
                ("remove", h_20),
                ("insert", 5),
                ("dequeue",),
                ("retag", h_10, 40),
                ("dequeue",),
                ("dequeue",),
            ]
        )
        assert [s.tag for s in served] == [5, 30, 40]
        circuit.check_invariants()


class TestFreeListConservation:
    """Fig. 10: every slot is live or free, under any churn mix."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_mixed_churn_conserves_slots(self, fused):
        capacity = 128
        engine = FusedSortRetrieveCircuit if fused else TagSortRetrieveCircuit
        circuit = engine(
            SMALL_FORMAT, capacity=capacity, eager_marker_removal=True
        )
        rng = random.Random(11)
        live = []
        # count + free-list depth equals the init counter's high-water
        # mark: it may only grow (a fresh slot handed out), never shrink
        # (a shrink would mean a slot leaked on remove/retag/dequeue).
        allocated = circuit.count + circuit.free_list_depth
        for _ in range(600):
            roll = rng.random()
            if (roll < 0.45 and len(live) < 100) or not live:
                live.append(circuit.insert(rng.randrange(64)))
            elif roll < 0.65:
                circuit.remove(live.pop(rng.randrange(len(live))))
            elif roll < 0.80:
                victim = live.pop(rng.randrange(len(live)))
                live.append(circuit.retag(victim, rng.randrange(64)))
            else:
                served = circuit.dequeue_min()
                live.remove(served.address)
            # The conservation law holds after every single operation.
            total = circuit.count + circuit.free_list_depth
            assert allocated <= total <= capacity
            allocated = total
            assert circuit.live_handles == circuit.count
        circuit.check_invariants()

    def test_batch_and_per_op_paths_share_free_list(self):
        # The batched dequeue path and the per-op remove path recycle
        # through the same Fig. 10 empty list: six slots out, six back.
        circuit = make_circuit(capacity=64)
        handles = circuit.insert_batch([4, 8, 15, 16, 23, 42])
        allocated = circuit.count + circuit.free_list_depth
        assert allocated == 6
        circuit.remove(handles[2])
        assert circuit.count + circuit.free_list_depth == allocated
        circuit.dequeue_batch(2)
        assert circuit.count + circuit.free_list_depth == allocated
        circuit.remove(handles[4])
        circuit.dequeue_batch(circuit.count)
        assert circuit.count == 0
        assert circuit.free_list_depth == allocated
        circuit.check_invariants()
