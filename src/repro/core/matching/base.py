"""Closest-match node search: interface and reference model.

Each node of the multi-bit tree is a ``b``-bit word in which bit ``i``
records whether literal ``i`` is present below the node.  The per-node
search the paper describes (Section III-A) needs, for a target literal
``t``:

* the **primary match** — the highest set bit at position <= ``t``
  ("an exact or next smallest match is returned");
* the **backup match** — "the next literal less than that targeted by the
  primary search", i.e. the highest set bit strictly below the primary
  match, used when the search fails in a deeper level (Fig. 5, point B).

Both are priority-encode-below-threshold operations.  The five circuit
topologies of ref. [13] (ripple, look-ahead, block look-ahead,
skip & look-ahead, select & look-ahead) all compute this same function with
different delay/area trade-offs; every subclass here implements the search
*functionally* in the style of its hardware structure, and all are checked
against :func:`reference_search` in the test suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ...hwsim.errors import ConfigurationError
from ...hwsim.gates import Cost, gates_to_luts


class MatchResult:
    """Outcome of one node search.

    A frozen value object.  Hand-rolled (rather than a frozen dataclass)
    so ``__slots__`` keeps the per-search allocation to the two fields —
    one of these is created per tree level per operation, making it one
    of the hottest allocations in the simulator.

    Attributes:
        primary: highest set bit position <= target, or None if no set bit
            at or below the target exists (search-path failure, Fig. 5
            point A).
        backup: highest set bit strictly below ``primary``, or None.
    """

    __slots__ = ("primary", "backup")

    def __init__(
        self, primary: Optional[int], backup: Optional[int]
    ) -> None:
        object.__setattr__(self, "primary", primary)
        object.__setattr__(self, "backup", backup)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MatchResult is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchResult):
            return NotImplemented
        return self.primary == other.primary and self.backup == other.backup

    def __hash__(self) -> int:
        return hash((self.primary, self.backup))

    def __repr__(self) -> str:
        return (
            f"MatchResult(primary={self.primary!r}, backup={self.backup!r})"
        )

    @property
    def exact(self) -> bool:
        """Whether the primary match can be an exact hit (resolved by caller).

        The result object does not carry the target, so exactness is
        determined by the tree that issued the search; this property is
        only meaningful on results the tree has annotated.
        """
        raise NotImplementedError(
            "exactness is target-relative; compare primary to the target"
        )


def reference_search(word_mask: int, width: int, target: int) -> MatchResult:
    """Golden-model search used to validate every circuit implementation."""
    if width < 1:
        raise ConfigurationError("node width must be positive")
    if not 0 <= target < width:
        raise ConfigurationError(f"target {target} outside [0, {width})")
    if word_mask < 0 or word_mask >> width:
        raise ConfigurationError("word mask wider than the node")
    primary = None
    for position in range(target, -1, -1):
        if word_mask >> position & 1:
            primary = position
            break
    backup = None
    if primary is not None:
        for position in range(primary - 1, -1, -1):
            if word_mask >> position & 1:
                backup = position
                break
    return MatchResult(primary=primary, backup=backup)


def highest_set_bit(word_mask: int, width: int) -> Optional[int]:
    """Position of the most significant set bit, or None if empty.

    This is the "follow the maximum value" rule applied in levels below a
    non-exact match (Fig. 4) and along the backup path (Fig. 5).
    """
    if word_mask < 0 or word_mask >> width:
        raise ConfigurationError("word mask wider than the node")
    if word_mask == 0:
        return None
    return word_mask.bit_length() - 1


class MatchingCircuit(ABC):
    """A closest-match circuit for ``width``-bit nodes."""

    #: short identifier used in benchmark tables
    name: str = "abstract"

    def __init__(self, width: int) -> None:
        if width < 2:
            raise ConfigurationError("matching circuits need at least 2 bits")
        self.width = width

    @abstractmethod
    def search(self, word_mask: int, target: int) -> MatchResult:
        """Compute the primary and backup matches for ``target``."""

    @abstractmethod
    def cost(self) -> Cost:
        """Critical-path delay and logic area in unit-gate terms."""

    def delay(self) -> float:
        """Critical-path delay in unit-gate delays."""
        return self.cost().delay

    def area_luts(self) -> float:
        """Logic area expressed as equivalent 4-input LUTs (Fig. 8 units)."""
        return gates_to_luts(self.cost().area)

    def _validate(self, word_mask: int, target: int) -> None:
        if not 0 <= target < self.width:
            raise ConfigurationError(
                f"target {target} outside [0, {self.width})"
            )
        if word_mask < 0 or word_mask >> self.width:
            raise ConfigurationError("word mask wider than the node")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(width={self.width})"
