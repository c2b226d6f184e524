"""Behavioral memory models with access accounting.

Three memory classes model the storage elements of the paper's circuit:

* :class:`RegisterFile` — the first two tree levels (272 bits total) are
  implemented in registers; any number of same-cycle accesses is legal.
* :class:`SinglePortSRAM` — the third tree level (4 kbit on-chip SRAM),
  the translation table and the off-chip tag storage SRAM; one access per
  cycle, and a second same-cycle access raises
  :class:`~repro.hwsim.errors.PortConflictError`.
* :class:`DualPortSRAM` — one read port plus one write port per cycle,
  used for ablation experiments on memory organisation.

All models store arbitrary Python objects per word so higher layers can
keep structured link records without bit packing, while the *accounting*
(reads, writes, port usage) stays faithful to the hardware.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .errors import AddressError, ConfigurationError, PortConflictError
from .stats import AccessStats


class _MemoryBase:
    """Common storage, bounds checking, and accounting."""

    def __init__(self, size: int, *, name: str = "mem", word_bits: int = 32) -> None:
        if size <= 0:
            raise ConfigurationError(f"{name}: size must be positive, got {size}")
        if word_bits <= 0:
            raise ConfigurationError(f"{name}: word_bits must be positive")
        self.name = name
        self.size = size
        self.word_bits = word_bits
        self.stats = AccessStats()
        self._cells: List[Any] = [None] * size

    @property
    def total_bits(self) -> int:
        """Capacity in bits (words x word width)."""
        return self.size * self.word_bits

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise AddressError(
                f"{self.name}: address {address} out of range [0, {self.size})"
            )

    def peek(self, address: int) -> Any:
        """Debug read that bypasses ports and accounting."""
        self._check_address(address)
        return self._cells[address]

    def poke(self, address: int, value: Any) -> None:
        """Debug write that bypasses ports and accounting."""
        self._check_address(address)
        self._cells[address] = value

    def fill(
        self, value: Any, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Set words ``[start, stop)`` to ``value`` (no accounting).

        Models a parallel reset line: every word in the range is driven
        at once, so no port is claimed and no access is counted.  The
        cell list is written in place and keeps its identity, so callers
        that cached it (the tree's turbo walks) stay valid.
        """
        if stop is None:
            stop = self.size
        if not 0 <= start <= stop <= self.size:
            raise AddressError(
                f"{self.name}: fill range [{start}, {stop}) outside "
                f"[0, {self.size})"
            )
        self._cells[start:stop] = [value] * (stop - start)

    def clear(self) -> None:
        """Empty the contents in place (accounting is preserved)."""
        self.fill(None)


class RegisterFile(_MemoryBase):
    """Register-based storage: unlimited same-cycle accesses.

    Models the top two tree levels, which the paper implements as flip-flop
    registers precisely because they need unconstrained parallel access.
    """

    def read(self, address: int) -> Any:
        """Read one word."""
        self._check_address(address)
        self.stats.record_read()
        return self._cells[address]

    def write(self, address: int, value: Any) -> None:
        """Write one word."""
        self._check_address(address)
        self.stats.record_write()
        self._cells[address] = value


class SinglePortSRAM(_MemoryBase):
    """One access (read *or* write) per clock cycle.

    The component must be ticked by the system clock (or have
    ``end_cycle`` called) to release the port between accesses.  When
    ``enforce_port`` is False the port rule is not checked, which lets
    pure-algorithm experiments reuse the same accounting without driving
    a clock.
    """

    def __init__(
        self,
        size: int,
        *,
        name: str = "sram",
        word_bits: int = 32,
        enforce_port: bool = True,
    ) -> None:
        super().__init__(size, name=name, word_bits=word_bits)
        self.enforce_port = enforce_port
        self._port_busy = False

    def tick(self, cycle: int) -> None:
        """Clock edge: release the access port."""
        self._port_busy = False

    def end_cycle(self) -> None:
        """Manually release the port (equivalent to one clock tick)."""
        self._port_busy = False

    def _claim_port(self) -> None:
        if self.enforce_port:
            if self._port_busy:
                raise PortConflictError(
                    f"{self.name}: second access in one cycle on a single port"
                )
            self._port_busy = True

    def read(self, address: int) -> Any:
        """Read one word, claiming the port for this cycle."""
        self._check_address(address)
        self._claim_port()
        self.stats.record_read()
        return self._cells[address]

    def write(self, address: int, value: Any) -> None:
        """Write one word, claiming the port for this cycle."""
        self._check_address(address)
        self._claim_port()
        self.stats.record_write()
        self._cells[address] = value


class DualPortSRAM(_MemoryBase):
    """One read port and one write port per cycle."""

    def __init__(
        self,
        size: int,
        *,
        name: str = "dpram",
        word_bits: int = 32,
        enforce_port: bool = True,
    ) -> None:
        super().__init__(size, name=name, word_bits=word_bits)
        self.enforce_port = enforce_port
        self._read_busy = False
        self._write_busy = False

    def tick(self, cycle: int) -> None:
        """Clock edge: release both ports."""
        self._read_busy = False
        self._write_busy = False

    def end_cycle(self) -> None:
        """Manually release both ports."""
        self.tick(0)

    def read(self, address: int) -> Any:
        """Read one word through the read port."""
        self._check_address(address)
        if self.enforce_port:
            if self._read_busy:
                raise PortConflictError(f"{self.name}: read port already used")
            self._read_busy = True
        self.stats.record_read()
        return self._cells[address]

    def write(self, address: int, value: Any) -> None:
        """Write one word through the write port."""
        self._check_address(address)
        if self.enforce_port:
            if self._write_busy:
                raise PortConflictError(f"{self.name}: write port already used")
            self._write_busy = True
        self.stats.record_write()
        self._cells[address] = value


def make_tree_level_memory(
    level: int,
    node_bits: int,
    node_count: int,
    *,
    register_levels: int = 2,
) -> _MemoryBase:
    """Build the storage for one tree level per the paper's layout.

    The first ``register_levels`` levels (the paper uses two: 272 bits in
    total for the 3-level/16-bit configuration) are registers; deeper
    levels are single-port on-chip SRAM.
    """
    name = f"tree_level_{level}"
    if level < register_levels:
        return RegisterFile(node_count, name=name, word_bits=node_bits)
    return SinglePortSRAM(
        node_count, name=name, word_bits=node_bits, enforce_port=False
    )


__all__ = [
    "RegisterFile",
    "SinglePortSRAM",
    "DualPortSRAM",
    "make_tree_level_memory",
]
