"""Unit tests for the quantizing hardware tag store."""

import pytest

from repro.core.engine import numpy_or_none
from repro.core.words import PAPER_FORMAT, WordFormat
from repro.hwsim.errors import ConfigurationError, ProtocolError
from repro.net.hardware_store import HardwareTagStore

#: every engine this environment can build (vector needs numpy)
ENGINES = ("gate", "turbo") + (
    ("vector",) if numpy_or_none() is not None else ()
)


class TestQuantization:
    def test_quantize(self):
        store = HardwareTagStore(granularity=10.0)
        assert store.quantize(99.9) == 9
        assert store.quantize(100.0) == 10

    def test_same_quantum_is_fcfs(self):
        store = HardwareTagStore(granularity=10.0, capacity=8)
        store.push(51.0, 1)
        store.push(53.0, 2)
        store.push(57.0, 3)
        order = [store.pop_min()[1] for _ in range(3)]
        assert order == [1, 2, 3]

    def test_cross_quantum_ordering_preserved(self):
        store = HardwareTagStore(granularity=10.0, capacity=8)
        store.push(95.0, 1)
        store.push(101.0, 2)
        store.push(99.0, 3)
        order = [store.pop_min()[1] for _ in range(3)]
        # 95 and 99 share quantum 9 (FCFS), 101 is quantum 10.
        assert order == [1, 3, 2]

    def test_exact_tag_returned(self):
        store = HardwareTagStore(granularity=100.0, capacity=8)
        store.push(123.456, 0)
        finish_tag, _ = store.pop_min()
        assert finish_tag == 123.456

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            HardwareTagStore(granularity=0.0)


class TestWrapManagement:
    def test_sections_cleared_on_lap(self):
        """Every engine laps the tag space as gate does: the same served
        order, sections cleared and markers purged, and sound state."""
        runs = {}
        for mode in ENGINES:
            store = HardwareTagStore(
                fmt=PAPER_FORMAT, granularity=1.0, capacity=16, mode=mode
            )
            tag = 0.0
            served = []
            for step in range(3000):
                tag += 5.0
                store.push(tag, step)
                if len(store) > 4:  # keep a standing backlog so the busy
                    served.append(store.pop_min())  # period never resets
            store.circuit.check_invariants()
            runs[mode] = (served, store.sections_cleared, store.markers_purged)
        _, sections_cleared, markers_purged = runs["gate"]
        assert sections_cleared > 0
        assert markers_purged > 0
        for mode in ENGINES:
            assert runs[mode] == runs["gate"], mode

    def test_epoch_reset_on_drain(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(1000.0, 0)
        store.pop_min()
        # After draining, a much smaller tag is legal again.
        store.push(3.0, 1)
        assert store.pop_min()[1] == 1

    def test_len(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        assert len(store) == 0
        store.push(5.0, 0)
        assert len(store) == 1

    def test_cycles_accumulate(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(1.0, 0)
        store.push(2.0, 1)
        store.pop_min()
        assert store.operations == 3
        assert store.cycles == 12


class TestClamping:
    def test_clamp_statistics(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(100.0, 0)
        store.push(50.0, 1)
        assert store.clamped_inserts == 1
        assert store.clamp_error_quanta >= 49

    def test_clamped_tag_not_lost(self):
        store = HardwareTagStore(granularity=1.0, capacity=8)
        store.push(100.0, 0)
        store.push(50.0, 1)
        payloads = {store.pop_min()[1] for _ in range(2)}
        assert payloads == {0, 1}


class TestSpanGuard:
    def test_fine_granularity_overflow(self):
        small = WordFormat(levels=2, literal_bits=3)
        store = HardwareTagStore(fmt=small, granularity=1.0, capacity=8)
        store.push(1.0, 0)
        with pytest.raises(ProtocolError):
            store.push(100.0, 1)

    def test_coarser_granularity_fixes_overflow(self):
        small = WordFormat(levels=2, literal_bits=3)
        store = HardwareTagStore(fmt=small, granularity=10.0, capacity=8)
        store.push(1.0, 0)
        store.push(100.0, 1)  # now only 10 quanta apart
        assert len(store) == 2


class TestPeekMinExact:
    """Regression: peek_min_exact used to reach into the storage's
    backing SRAM model (``circuit.storage._memory.peek``); it now goes
    through the circuit's head-register accessor, which by contract
    costs no memory access and no cycles."""

    def test_returns_exact_head_payload(self):
        store = HardwareTagStore(granularity=1.0)
        assert store.peek_min_exact() is None
        store.push(3.5, 2)
        store.push(7.25, 1)
        assert store.peek_min_exact() == (3.5, 2)
        assert store.pop_min() == (3.5, 2)
        assert store.peek_min_exact() == (7.25, 1)

    def test_costs_no_accesses_or_cycles(self):
        store = HardwareTagStore(granularity=1.0)
        for tag in (5.0, 9.0, 2.0):
            store.push(tag, int(tag))
        accesses = store.circuit.registry.total().total
        cycles = store.cycles
        for _ in range(50):
            store.peek_min_exact()
        assert store.circuit.registry.total().total == accesses
        assert store.cycles == cycles

    def test_head_register_survives_batch_paths(self):
        store = HardwareTagStore(granularity=1.0)
        store.push_batch([(1.0, 1), (4.0, 0), (6.0, 2)])
        assert store.peek_min_exact() == (1.0, 1)
        store.pop_batch(2)
        assert store.peek_min_exact() == (6.0, 2)
        store.pop_batch(1)
        assert store.peek_min_exact() is None
