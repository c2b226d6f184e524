"""The translation table (paper Section III-D).

The table bridges the search tree and the tag storage memory: for every
representable tag value it records the linked-list address of the **most
recently inserted** tag of that value.  Tracking the most recent duplicate
(Fig. 11) is what keeps tree results valid when rounded-off WFQ tags
collide, and preserves first-come-first-served order among duplicates: a
new duplicate is always inserted *after* the previous one.

Size: one entry per representable value, ``b**L = 2**W`` entries
(the paper's second eq. (2)); the silicon configuration needs 4096, the
optional 15-bit variant would need 32 k.

:class:`TranslationTable` is the gate-accurate reference;
:class:`FusedTranslationTable` (the turbo engine's flavour) does each
per-operation access on the raw cells with the same charge.
"""

from __future__ import annotations

from typing import Optional

from ..hwsim.errors import ConfigurationError
from ..hwsim.memory import SinglePortSRAM
from ..hwsim.stats import AccessStats
from .sizing import translation_table_entries
from .words import WordFormat


class TranslationTable:
    """tag value -> linked-list address of the newest tag of that value."""

    def __init__(self, fmt: WordFormat, *, address_bits: int = 24) -> None:
        self.fmt = fmt
        entries = translation_table_entries(fmt.levels, fmt.branching_factor)
        self._memory = SinglePortSRAM(
            entries,
            name="translation_table",
            word_bits=address_bits,
            enforce_port=False,
        )

    @property
    def entries(self) -> int:
        """Number of table entries (2**W)."""
        return self._memory.size

    @property
    def stats(self) -> AccessStats:
        """Access counters of the table memory."""
        return self._memory.stats

    @property
    def total_bits(self) -> int:
        """Storage footprint in bits."""
        return self._memory.total_bits

    def lookup(self, tag_value: int) -> Optional[int]:
        """Linked-list address of the newest tag with ``tag_value``.

        Returns None when the value has no live entry.  The caller (the
        sort/retrieve circuit) only looks up values the tree reported
        present, so None here indicates a bookkeeping bug upstream.
        """
        self.fmt.check_value(tag_value)
        return self._memory.read(tag_value)

    def record(self, tag_value: int, address: int) -> None:
        """Point ``tag_value`` at ``address`` (the newest duplicate)."""
        self.fmt.check_value(tag_value)
        if address < 0:
            raise ConfigurationError("linked-list address must be non-negative")
        self._memory.write(tag_value, address)

    def invalidate(self, tag_value: int) -> None:
        """Drop the entry for ``tag_value`` (its last duplicate departed)."""
        self.fmt.check_value(tag_value)
        self._memory.write(tag_value, None)

    def to_state(self) -> dict:
        """Exact serializable snapshot: every entry plus accounting."""
        return {
            "kind": "translation_table",
            "levels": self.fmt.levels,
            "literal_bits": self.fmt.literal_bits,
            "address_bits": self._memory.word_bits,
            "cells": list(self._memory._cells),
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "translation_table":
            raise ConfigurationError(
                f"not a translation snapshot: kind={state.get('kind')!r}"
            )
        if (
            state["levels"] != self.fmt.levels
            or state["literal_bits"] != self.fmt.literal_bits
        ):
            raise ConfigurationError(
                f"snapshot format L={state['levels']}/k="
                f"{state['literal_bits']} != L={self.fmt.levels}/k="
                f"{self.fmt.literal_bits}"
            )
        cells = state["cells"]
        if len(cells) != self._memory.size:
            raise ConfigurationError(
                f"snapshot holds {len(cells)} entries, table holds "
                f"{self._memory.size}"
            )
        self._memory._cells[:] = cells
        self.stats.reads = state["stats"]["reads"]
        self.stats.writes = state["stats"]["writes"]

    @classmethod
    def from_state(cls, state: dict) -> "TranslationTable":
        """Reconstruct a table from a :meth:`to_state` snapshot."""
        fmt = WordFormat(
            levels=state["levels"], literal_bits=state["literal_bits"]
        )
        table = cls(fmt, address_bits=state.get("address_bits", 24))
        table.load_state(state)
        return table

    def invalidate_if_points_to(self, tag_value: int, address: int) -> bool:
        """Invalidate only if the entry still points at ``address``.

        Used on dequeue: when the departing link is the one the table
        points at, the value has no remaining duplicates and the entry
        must go; if the table points elsewhere a newer duplicate is still
        live and the entry stays.  Returns True when invalidated.
        """
        self.fmt.check_value(tag_value)
        current = self._memory.read(tag_value)
        if current == address:
            self._memory.write(tag_value, None)
            return True
        return False


class FusedTranslationTable(TranslationTable):
    """The table's per-operation accesses on the raw cells (``--mode turbo``).

    Each method is one cell access plus its charge on the same
    :class:`AccessStats` counter as the reference.  Callers pass only
    values the tree produced or the circuit validated, so the value
    check is skipped.
    """

    def lookup(self, tag_value: int) -> Optional[int]:
        self._memory.stats.reads += 1
        return self._memory._cells[tag_value]

    def record(self, tag_value: int, address: int) -> None:
        self._memory._cells[tag_value] = address
        self._memory.stats.writes += 1

    def invalidate(self, tag_value: int) -> None:
        self._memory._cells[tag_value] = None
        self._memory.stats.writes += 1
