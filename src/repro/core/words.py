"""Fixed-width word and literal arithmetic for the multi-bit tree.

The tree of the paper slices a W-bit tag into L literals of k bits each
(W = L*k).  The implemented configuration is W=12, L=3, k=4, giving 16-bit
nodes and branching factor 16; the worked examples in Figs. 4 and 5 use
W=6, L=3, k=2.  This module centralizes the bit slicing so the tree,
translation table, and sizing math all agree on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hwsim.errors import ConfigurationError


@dataclass(frozen=True)
class WordFormat:
    """Describes how tags are sliced into per-level literals.

    Attributes:
        levels: number of tree levels L.
        literal_bits: bits per literal k (branching factor is 2**k).
    """

    levels: int
    literal_bits: int

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ConfigurationError("tree needs at least one level")
        if self.literal_bits < 1:
            raise ConfigurationError("literals need at least one bit")

    @property
    def word_bits(self) -> int:
        """Total tag width W = L*k."""
        return self.levels * self.literal_bits

    @property
    def branching_factor(self) -> int:
        """Children per node (= node width in bits), 2**k."""
        return 1 << self.literal_bits

    @property
    def node_bits(self) -> int:
        """Bits per node (one presence bit per child)."""
        return self.branching_factor

    @property
    def max_value(self) -> int:
        """Largest representable tag value, 2**W - 1."""
        return (1 << self.word_bits) - 1

    @property
    def capacity(self) -> int:
        """Number of distinct representable tag values, 2**W."""
        return 1 << self.word_bits

    def check_value(self, value: int) -> int:
        """Validate that ``value`` fits the word format; returns it.

        A ``bool`` is refused although Python counts it as an int: a
        flag passed where a tag belongs is a caller bug, and the wire
        protocol rejects it the same way.
        """
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"tag must be an int, got {type(value).__name__}")
        if not 0 <= value <= self.max_value:
            raise ConfigurationError(
                f"tag {value} outside [0, {self.max_value}] for W={self.word_bits}"
            )
        return value

    def literals(self, value: int) -> List[int]:
        """Slice ``value`` into literals, most significant (root) first.

        For the Fig. 4 example (W=6, k=2), 0b110110 -> [0b11, 0b01, 0b10].
        """
        self.check_value(value)
        mask = self.branching_factor - 1
        out = []
        for level in range(self.levels):
            shift = (self.levels - 1 - level) * self.literal_bits
            out.append((value >> shift) & mask)
        return out

    def literal_at(self, value: int, level: int) -> int:
        """The literal of ``value`` used at tree ``level`` (0 = root)."""
        self.check_value(value)
        if not 0 <= level < self.levels:
            raise ConfigurationError(f"level {level} outside [0, {self.levels})")
        shift = (self.levels - 1 - level) * self.literal_bits
        return (value >> shift) & (self.branching_factor - 1)

    def combine(self, literals: List[int]) -> int:
        """Reassemble a tag value from root-first literals."""
        if len(literals) != self.levels:
            raise ConfigurationError(
                f"expected {self.levels} literals, got {len(literals)}"
            )
        value = 0
        for literal in literals:
            if not 0 <= literal < self.branching_factor:
                raise ConfigurationError(f"literal {literal} out of range")
            value = (value << self.literal_bits) | literal
        return value

    def prefix_value(self, value: int, depth: int) -> int:
        """The integer formed by the first ``depth`` literals of ``value``.

        Used to index nodes: the node visited at level ``d`` is identified
        by the (d)-literal prefix of the search key.
        """
        self.check_value(value)
        if not 0 <= depth <= self.levels:
            raise ConfigurationError(f"depth {depth} outside [0, {self.levels}]")
        shift = (self.levels - depth) * self.literal_bits
        return value >> shift


PAPER_FORMAT = WordFormat(levels=3, literal_bits=4)
"""The silicon configuration: 12-bit tags, three levels, 16-bit nodes."""

FIGURE_FORMAT = WordFormat(levels=3, literal_bits=2)
"""The worked-example configuration of Figs. 4 and 5: 6-bit tags."""


# ----------------------------------------------------------------------
# Word-level find-first-set / population-count primitives.
#
# The fused tree's search (`FusedMultiBitTree.closest_at_most` in
# core/tree.py) inlines these for one node under one mask; the
# vectorized engine needs the same primitives over whole arrays of node
# words.  Both variants live here so the tree, the vector engine, and
# the sizing math share one definition — the hypothesis suite in
# tests/core/test_word_ffs.py pins the scalar, array, and fused-search
# answers to each other.

def ffs_word(word: int) -> int:
    """Index of the lowest set bit of ``word`` (-1 when no bit is set).

    The software analogue of the paper's priority-encoder output: the
    matcher reports the smallest marked literal in a node word.
    """
    if word <= 0:
        if word < 0:
            raise ConfigurationError(f"ffs_word needs a non-negative word, got {word}")
        return -1
    return (word & -word).bit_length() - 1


def fls_word(word: int) -> int:
    """Index of the highest set bit of ``word`` (-1 when no bit is set)."""
    if word <= 0:
        if word < 0:
            raise ConfigurationError(f"fls_word needs a non-negative word, got {word}")
        return -1
    return word.bit_length() - 1


def popcount_word(word: int) -> int:
    """Number of set bits in ``word`` (a node's marked-children count)."""
    if word < 0:
        raise ConfigurationError(f"popcount_word needs a non-negative word, got {word}")
    return bin(word).count("1")


def ffs_array(words, np):
    """Per-word lowest-set-bit indices for an integer array (-1 on zero).

    ``np`` is the caller's numpy module (kept a parameter so this module
    never imports numpy — it must stay importable without it; see
    :func:`repro.core.engine.require_numpy`).  Uses the isolate-lowest-bit
    identity ``word & -word`` and a log2 via bit-length-free float
    conversion: exact for words below 2**53, far wider than any node.
    """
    words = np.asarray(words)
    isolated = words & -words
    out = np.full(words.shape, -1, dtype=np.int64)
    nonzero = isolated != 0
    # float64 holds every power of two in a node word exactly, so the
    # log2 of the isolated bit is exact integer-valued.
    out[nonzero] = np.log2(isolated[nonzero].astype(np.float64)).astype(np.int64)
    return out


def popcount_array(words, np, *, bits: int = 16):
    """Per-word population counts (uint8) for an integer array.

    One ``np.bitwise_count`` (numpy 2.0+); older numpy builds take a
    SWAR (shift-and-add) of about twenty array ops instead.  Words are
    read as unsigned, so a negative signed word counts its two's
    complement bits in uint64 lanes, as the SWAR reads it.  ``bits``
    bounds the word width (node words are 16-bit, occupancy bitmaps use
    64-bit words).
    """
    if bits > 64:
        raise ConfigurationError(f"popcount_array supports at most 64 bits, got {bits}")
    lanes = np.asarray(words)
    if lanes.dtype.kind != "u":
        lanes = lanes.astype(np.uint64)
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(lanes)
    # Classic SWAR in uint64 lanes (top-bit-set 64-bit bitmaps included).
    lanes = lanes.astype(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    one, two, four = np.uint64(1), np.uint64(2), np.uint64(4)
    lanes = lanes - ((lanes >> one) & m1)
    lanes = (lanes & m2) + ((lanes >> two) & m2)
    lanes = (lanes + (lanes >> four)) & m4
    shift = 8
    while shift < 64:
        lanes = lanes + (lanes >> np.uint64(shift))
        shift *= 2
    return (lanes & np.uint64(0x7F)).astype(np.uint8)
