"""Unit tests for the memory models."""

import pytest

from repro.hwsim.errors import AddressError, ConfigurationError, PortConflictError
from repro.hwsim.memory import (
    DualPortSRAM,
    RegisterFile,
    SinglePortSRAM,
    make_tree_level_memory,
)


class TestRegisterFile:
    def test_read_write(self):
        memory = RegisterFile(4, word_bits=16)
        memory.write(2, 0xBEEF)
        assert memory.read(2) == 0xBEEF
        assert memory.stats.reads == 1
        assert memory.stats.writes == 1

    def test_many_accesses_same_cycle_allowed(self):
        memory = RegisterFile(8)
        for address in range(8):
            memory.write(address, address)
        assert [memory.read(a) for a in range(8)] == list(range(8))

    def test_bounds(self):
        memory = RegisterFile(4)
        with pytest.raises(AddressError):
            memory.read(4)
        with pytest.raises(AddressError):
            memory.write(-1, 0)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            RegisterFile(0)

    def test_total_bits(self):
        assert RegisterFile(16, word_bits=16).total_bits == 256


class TestSinglePortSRAM:
    def test_port_conflict_detected(self):
        memory = SinglePortSRAM(4, enforce_port=True)
        memory.write(0, 1)
        with pytest.raises(PortConflictError):
            memory.read(0)

    def test_tick_releases_port(self):
        memory = SinglePortSRAM(4, enforce_port=True)
        memory.write(0, 1)
        memory.tick(0)
        assert memory.read(0) == 1

    def test_end_cycle_releases_port(self):
        memory = SinglePortSRAM(4, enforce_port=True)
        memory.write(1, 5)
        memory.end_cycle()
        memory.write(1, 6)
        assert memory.peek(1) == 6

    def test_unenforced_mode(self):
        memory = SinglePortSRAM(4, enforce_port=False)
        memory.write(0, 1)
        memory.write(1, 2)
        assert memory.read(0) == 1
        assert memory.read(1) == 2

    def test_peek_poke_bypass_accounting(self):
        memory = SinglePortSRAM(4)
        memory.poke(3, "x")
        assert memory.peek(3) == "x"
        assert memory.stats.total == 0


class TestDualPortSRAM:
    def test_one_read_one_write_per_cycle(self):
        memory = DualPortSRAM(4)
        memory.write(0, 1)
        assert memory.read(0) == 1  # different ports: legal

    def test_second_read_conflicts(self):
        memory = DualPortSRAM(4)
        memory.read(0)
        with pytest.raises(PortConflictError):
            memory.read(1)

    def test_second_write_conflicts(self):
        memory = DualPortSRAM(4)
        memory.write(0, 1)
        with pytest.raises(PortConflictError):
            memory.write(1, 2)

    def test_tick_releases_both(self):
        memory = DualPortSRAM(4)
        memory.read(0)
        memory.write(0, 1)
        memory.tick(0)
        memory.read(0)
        memory.write(1, 2)


class TestTreeLevelFactory:
    def test_shallow_levels_are_registers(self):
        memory = make_tree_level_memory(0, 16, 1)
        assert isinstance(memory, RegisterFile)
        memory = make_tree_level_memory(1, 16, 16)
        assert isinstance(memory, RegisterFile)

    def test_deep_levels_are_sram(self):
        memory = make_tree_level_memory(2, 16, 256)
        assert isinstance(memory, SinglePortSRAM)

    def test_paper_layout_bit_counts(self):
        """Paper Section III-A: 272 register bits, 4 kbit SRAM level."""
        level0 = make_tree_level_memory(0, 16, 1)
        level1 = make_tree_level_memory(1, 16, 16)
        level2 = make_tree_level_memory(2, 16, 256)
        assert level0.total_bits + level1.total_bits == 272
        assert level2.total_bits == 4096


class TestFill:
    """The unaccounted in-place range fill (the parallel reset line)."""

    @pytest.mark.parametrize("cls", [RegisterFile, SinglePortSRAM, DualPortSRAM])
    def test_fill_is_unaccounted_and_in_place(self, cls):
        memory = cls(8)
        cells = memory._cells
        memory.fill(7)
        memory.fill(0, 2, 5)
        assert [memory.peek(a) for a in range(8)] == [7, 7, 0, 0, 0, 7, 7, 7]
        assert memory._cells is cells
        assert memory.stats.reads == 0 and memory.stats.writes == 0

    def test_fill_does_not_claim_the_port(self):
        memory = SinglePortSRAM(4)
        memory.fill(1)
        memory.write(0, 2)  # the port is still free this cycle

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 5)])
    def test_fill_bounds(self, start, stop):
        memory = RegisterFile(4)
        with pytest.raises(AddressError):
            memory.fill(0, start, stop)

    def test_clear_keeps_cell_identity(self):
        memory = RegisterFile(4)
        cells = memory._cells
        memory.write(1, 5)
        memory.clear()
        assert memory._cells is cells
        assert memory.peek(1) is None
        assert memory.stats.writes == 1
