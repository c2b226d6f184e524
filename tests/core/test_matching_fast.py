"""Differential tests: the bit-parallel node search against every topology.

The turbo engine's tree (``FusedMultiBitTree.closest_at_most``) drops
the matcher circuits for one word-level formula per node: mask off
everything above the target, take the highest remaining set bit (the
primary), strip it, and take the next highest (the backup).  That
formula must compute exactly the function each of the five structural
implementations computes — primary *and* backup — over the full
``(word_mask, target)`` space, at every width, including the empty-word
and all-ones edge cases.  :func:`fast_kernel` is the formula as the
fused tree inlines it; the tree-level parity suites (``test_turbo.py``,
``test_word_ffs.py``) hold the inlined copy to the reference search, so
any divergence here would silently corrupt turbo scheduling decisions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import ALL_MATCHERS, MatchResult, reference_search
from repro.hwsim.errors import ConfigurationError

MATCHER_ITEMS = sorted(ALL_MATCHERS.items())

# Widths chosen to hit ragged (non-power-of-two) blocks in the
# skip/select topologies as well as the paper's silicon width (16).
WIDTHS = (2, 3, 4, 5, 7, 8, 12, 16, 31, 64)


def fast_kernel(word_mask, width, target):
    """The fused tree's per-node search, with the matchers' validation."""
    if not 0 <= target < width:
        raise ConfigurationError(f"target {target} outside [0, {width})")
    if word_mask < 0 or word_mask >> width:
        raise ConfigurationError("word mask wider than the node")
    masked = word_mask & ((2 << target) - 1)
    if not masked:
        return MatchResult(None, None)
    primary = masked.bit_length() - 1
    below = masked ^ (1 << primary)
    return MatchResult(primary, below.bit_length() - 1 if below else None)


@pytest.mark.parametrize("name,cls", MATCHER_ITEMS)
def test_fast_kernel_exhaustive_small_widths(name, cls):
    """Exhaustive equivalence for every mask/target at widths <= 5."""
    for width in (2, 3, 4, 5):
        matcher = cls(width)
        for mask in range(1 << width):
            for target in range(width):
                slow = matcher.search(mask, target)
                fast = fast_kernel(mask, width, target)
                assert (fast.primary, fast.backup) == (
                    slow.primary,
                    slow.backup,
                ), f"{name} w={width} mask={mask:#x} target={target}"


@pytest.mark.parametrize("name,cls", MATCHER_ITEMS)
@pytest.mark.parametrize("width", WIDTHS)
def test_fast_kernel_edge_masks(name, cls, width):
    """Empty word and all-ones word at every supported width."""
    matcher = cls(width)
    full = (1 << width) - 1
    for target in range(width):
        empty = fast_kernel(0, width, target)
        assert empty.primary is None and empty.backup is None
        assert matcher.search(0, target) == empty
        dense = fast_kernel(full, width, target)
        assert dense == matcher.search(full, target)
        # Dense word: primary is always the target itself, backup the
        # literal just below it (None only at literal 0).
        assert dense.primary == target
        assert dense.backup == (target - 1 if target else None)


@settings(max_examples=400)
@given(
    name=st.sampled_from([name for name, _ in MATCHER_ITEMS]),
    width=st.sampled_from(WIDTHS),
    data=st.data(),
)
def test_fast_kernel_differential(name, width, data):
    """Random (word_mask, target): fast == structural == golden model."""
    mask = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    target = data.draw(st.integers(min_value=0, max_value=width - 1))
    matcher = ALL_MATCHERS[name](width)
    fast = fast_kernel(mask, width, target)
    slow = matcher.search(mask, target)
    want = reference_search(mask, width, target)
    assert (fast.primary, fast.backup) == (slow.primary, slow.backup)
    assert (fast.primary, fast.backup) == (want.primary, want.backup)


@pytest.mark.parametrize("name,cls", MATCHER_ITEMS)
def test_fast_kernel_validates_like_search(name, cls):
    matcher = cls(8)
    for mask, target in ((0, 8), (0, -1), (1 << 8, 0), (-1, 0)):
        with pytest.raises(ConfigurationError):
            matcher.search(mask, target)
        with pytest.raises(ConfigurationError):
            fast_kernel(mask, 8, target)
