"""Differential suite for the word primitives in ``core/words.py``.

Three layers are pinned to each other:

* the scalar helpers (``ffs_word``/``fls_word``/``popcount_word``)
  against bit-by-bit reference loops,
* the array helpers (``ffs_array``/``popcount_array``) against the
  scalars, element for element (skipped when numpy is absent),
* the helpers against the fused tree search
  (``FusedMultiBitTree.closest_at_most``): a floor search reimplemented
  from ``fls_word``/``ffs_word`` over the tree's node words must reach
  the same answer as its inlined bit-twiddling, and the ffs-walk
  minimum must equal ``min`` over the marked set.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import numpy_or_none
from repro.core.tree import FusedMultiBitTree
from repro.core.words import (
    FIGURE_FORMAT,
    PAPER_FORMAT,
    ffs_array,
    ffs_word,
    fls_word,
    popcount_array,
    popcount_word,
)
from repro.hwsim.errors import ConfigurationError

np = numpy_or_none()
needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed")

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def reference_ffs(word: int) -> int:
    for index in range(word.bit_length()):
        if (word >> index) & 1:
            return index
    return -1


def reference_fls(word: int) -> int:
    for index in reversed(range(word.bit_length())):
        if (word >> index) & 1:
            return index
    return -1


def reference_popcount(word: int) -> int:
    return sum((word >> index) & 1 for index in range(word.bit_length()))


@given(WORDS)
def test_ffs_word_matches_reference(word):
    assert ffs_word(word) == reference_ffs(word)


@given(WORDS)
def test_fls_word_matches_reference(word):
    assert fls_word(word) == reference_fls(word)


@given(WORDS)
def test_popcount_word_matches_reference(word):
    assert popcount_word(word) == reference_popcount(word)


@pytest.mark.parametrize("helper", [ffs_word, fls_word, popcount_word])
def test_scalar_helpers_reject_negative_words(helper):
    with pytest.raises(ConfigurationError):
        helper(-1)


@needs_numpy
@given(st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=1, max_size=64))
def test_ffs_array_matches_scalar(words):
    out = ffs_array(words, np)
    assert out.tolist() == [ffs_word(word) for word in words]


class _NumpyBefore2:
    """numpy as a build older than 2.0 shows it: no ``bitwise_count``."""

    def __getattr__(self, name):
        if name == "bitwise_count":
            raise AttributeError(name)
        return getattr(np, name)


#: numpy as ``popcount_array`` meets it on each of its two paths: one
#: ``bitwise_count``, and the SWAR fallback
POPCOUNT_PATHS = (np, _NumpyBefore2()) if np is not None else ()


@needs_numpy
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=64))
def test_popcount_array_matches_scalar_including_top_bit(words):
    # Build the uint64 array explicitly so top-bit-set bitmap words are
    # exercised (plain asarray would overflow int64 on them).
    lanes = np.array(words, dtype=np.uint64)
    for xp in POPCOUNT_PATHS:
        out = popcount_array(lanes, xp, bits=64)
        assert out.dtype == np.uint8
        assert out.tolist() == [popcount_word(word) for word in words]


@needs_numpy
@given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=64))
def test_popcount_array_node_width_matches_scalar(words):
    for xp in POPCOUNT_PATHS:
        out = popcount_array(words, xp)
        assert out.tolist() == [popcount_word(word) for word in words]
        leaf = popcount_array(np.array(words, dtype=np.uint16), xp)
        assert leaf.tolist() == out.tolist()


@needs_numpy
@given(st.lists(st.integers(min_value=-(1 << 63), max_value=-1), min_size=1, max_size=16))
def test_popcount_array_reads_signed_words_as_unsigned(words):
    expected = [popcount_word(word & ((1 << 64) - 1)) for word in words]
    for xp in POPCOUNT_PATHS:
        assert popcount_array(words, xp, bits=64).tolist() == expected


@needs_numpy
def test_popcount_array_rejects_wide_words():
    for xp in POPCOUNT_PATHS:
        with pytest.raises(ConfigurationError):
            popcount_array([1], xp, bits=65)


# ----------------------------------------------------------------------
# Differential against the matcher's bit-twiddling.


def floor_via_words(tree, fmt, key):
    """Reimplement the Fig. 5 floor search from the word helpers.

    Walks the node words with ``fls_word`` under the same ≤-mask the
    matcher applies, recording the deepest backup branch; once the path
    diverges below the key, every remaining level takes the highest
    marked literal.  Independent of the fused search's inlined tricks.
    """
    branching = fmt.branching_factor
    prefix = 0
    backup = None  # (level, prefix, literal) of the deepest usable detour
    diverged = False
    for level in range(fmt.levels):
        word = tree._levels[level].peek(prefix)
        target = fmt.literal_at(key, level) if not diverged else branching - 1
        masked = word & ((2 << target) - 1)
        if masked == 0:
            if backup is None:
                return None
            level, prefix, literal = backup
            backup = None
            diverged = True
            prefix = prefix * branching + literal
            value = prefix
            for lower in range(level + 1, fmt.levels):
                word = tree._levels[lower].peek(prefix)
                literal = fls_word(word)
                prefix = prefix * branching + literal
                value = prefix
            return value
        literal = fls_word(masked)
        if literal != target:
            diverged = True
        elif not diverged:
            below = masked & ~(1 << literal)
            if below:
                backup = (level, prefix, fls_word(below))
        prefix = prefix * branching + literal
    return prefix


def min_via_ffs_walk(tree, fmt):
    """Smallest marked value, by taking ``ffs_word`` at every level."""
    prefix = 0
    for level in range(fmt.levels):
        word = tree._levels[level].peek(prefix)
        literal = ffs_word(word)
        if literal < 0:
            return None
        prefix = prefix * fmt.branching_factor + literal
    return prefix


@settings(max_examples=60)
@given(
    values=st.sets(st.integers(min_value=0, max_value=PAPER_FORMAT.max_value), min_size=1, max_size=64),
    keys=st.lists(st.integers(min_value=0, max_value=PAPER_FORMAT.max_value), min_size=1, max_size=16),
)
def test_word_walk_agrees_with_search_fast_paper_format(values, keys):
    tree = FusedMultiBitTree(PAPER_FORMAT)
    for value in values:
        tree.insert_marker(value)
    assert min_via_ffs_walk(tree, PAPER_FORMAT) == min(values)
    for key in keys:
        expected = max((value for value in values if value <= key), default=None)
        assert tree.closest_at_most(key) == expected
        assert floor_via_words(tree, PAPER_FORMAT, key) == expected


@settings(max_examples=60)
@given(
    values=st.sets(st.integers(min_value=0, max_value=FIGURE_FORMAT.max_value), min_size=1, max_size=16),
    keys=st.lists(st.integers(min_value=0, max_value=FIGURE_FORMAT.max_value), min_size=1, max_size=8),
)
def test_word_walk_agrees_with_search_fast_figure_format(values, keys):
    tree = FusedMultiBitTree(FIGURE_FORMAT)
    for value in values:
        tree.insert_marker(value)
    assert min_via_ffs_walk(tree, FIGURE_FORMAT) == min(values)
    for key in keys:
        expected = max((value for value in values if value <= key), default=None)
        assert tree.closest_at_most(key) == expected
        assert floor_via_words(tree, FIGURE_FORMAT, key) == expected
