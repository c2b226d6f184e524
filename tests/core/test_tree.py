"""Unit and property tests for the multi-bit search tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import ALL_MATCHERS
from repro.core.tree import FusedMultiBitTree, MultiBitTree, TreeInvariantError
from repro.core.words import FIGURE_FORMAT, PAPER_FORMAT, WordFormat
from repro.hwsim.errors import ConfigurationError


def reference_closest(values, key):
    """Oracle: largest stored value <= key, or None."""
    candidates = [v for v in values if v <= key]
    return max(candidates) if candidates else None


class TestMarkers:
    def test_insert_and_contains(self, paper_format):
        tree = MultiBitTree(paper_format)
        assert tree.insert_marker(100)
        assert tree.contains(100)
        assert not tree.contains(101)
        assert tree.marker_count == 1

    def test_duplicate_insert_returns_false(self, paper_format):
        tree = MultiBitTree(paper_format)
        assert tree.insert_marker(5)
        assert not tree.insert_marker(5)
        assert tree.marker_count == 1

    def test_remove_restores_absence(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(7)
        assert tree.remove_marker(7)
        assert not tree.contains(7)
        assert tree.is_empty

    def test_remove_missing_returns_false(self, paper_format):
        tree = MultiBitTree(paper_format)
        assert not tree.remove_marker(9)

    def test_remove_prunes_only_empty_ancestors(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(0x100)
        tree.insert_marker(0x101)  # shares two levels with 0x100
        tree.remove_marker(0x101)
        assert tree.contains(0x100)
        tree.check_invariants()

    def test_insert_writes_only_missing_nodes(self, paper_format):
        """Fig. 4 step 4: adding a value on an existing path updates one
        node only."""
        tree = MultiBitTree(paper_format)
        tree.insert_marker(0b110101_0000 >> 4 << 4)  # establish a path
        before = tree.total_stats().writes
        # Same first two literals, new third literal: only the leaf node
        # needs a write.
        tree.insert_marker((0b110101_0000 >> 4 << 4) | 1)
        assert tree.total_stats().writes - before == 1

    def test_clear_all(self, paper_format):
        tree = MultiBitTree(paper_format)
        for value in (1, 2, 1000, 4095):
            tree.insert_marker(value)
        tree.clear_all()
        assert tree.is_empty
        tree.check_invariants()


class TestSearch:
    def test_exact_match(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(1234)
        outcome = tree.search(1234)
        assert outcome.result == 1234
        assert outcome.exact
        assert not outcome.used_backup

    def test_empty_tree_returns_none(self, paper_format):
        tree = MultiBitTree(paper_format)
        assert tree.closest_at_most(4095) is None

    def test_no_smaller_value_returns_none(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(3000)
        assert tree.closest_at_most(2999) is None

    def test_search_depth_is_bounded_by_level_count(self, paper_format):
        """The paper's fixed lookup time: at most L sequential node reads
        on the primary path regardless of occupancy (fewer when the
        primary path fails early and the parallel backup finishes), and
        the backup adds at most L-1 parallel reads."""
        tree = MultiBitTree(paper_format)
        for value in range(0, 4096, 37):
            tree.insert_marker(value)
        for key in range(0, 4096, 97):
            outcome = tree.search(key)
            assert 1 <= outcome.sequential_node_reads <= paper_format.levels
            assert outcome.parallel_node_reads <= paper_format.levels - 1
        # A fully successful primary path reads exactly L nodes.
        outcome = tree.search(0)  # 0 is stored: exact match all the way
        assert outcome.sequential_node_reads == paper_format.levels

    def test_randomized_against_oracle(self, paper_format, rng):
        tree = MultiBitTree(paper_format)
        stored = set()
        for _ in range(300):
            value = rng.randrange(4096)
            tree.insert_marker(value)
            stored.add(value)
        for _ in range(500):
            key = rng.randrange(4096)
            assert tree.closest_at_most(key) == reference_closest(stored, key)

    def test_randomized_with_removals(self, paper_format, rng):
        tree = MultiBitTree(paper_format)
        stored = set()
        for _ in range(800):
            if stored and rng.random() < 0.4:
                victim = rng.choice(sorted(stored))
                tree.remove_marker(victim)
                stored.discard(victim)
            else:
                value = rng.randrange(4096)
                tree.insert_marker(value)
                stored.add(value)
            if rng.random() < 0.05:
                tree.check_invariants()
            key = rng.randrange(4096)
            assert tree.closest_at_most(key) == reference_closest(stored, key)

    @pytest.mark.parametrize("name", sorted(ALL_MATCHERS))
    def test_all_matcher_circuits_give_same_searches(self, name, rng):
        tree = MultiBitTree(PAPER_FORMAT, matcher_factory=ALL_MATCHERS[name])
        stored = set()
        for _ in range(150):
            value = rng.randrange(4096)
            tree.insert_marker(value)
            stored.add(value)
        for key in range(0, 4096, 61):
            assert tree.closest_at_most(key) == reference_closest(stored, key)

    def test_min_max_marked(self, paper_format):
        tree = MultiBitTree(paper_format)
        assert tree.min_marked() is None
        for value in (300, 5, 4000):
            tree.insert_marker(value)
        assert tree.min_marked() == 5
        assert tree.max_marked() == 4000

    def test_marked_values_sorted_walk(self, paper_format):
        tree = MultiBitTree(paper_format)
        values = [9, 1, 500, 4095, 256]
        for value in values:
            tree.insert_marker(value)
        assert tree.marked_values() == sorted(values)


class TestBackupPath:
    def test_backup_reads_are_parallel(self, figure_format):
        """The backup search costs bandwidth but not latency."""
        tree = MultiBitTree(figure_format)
        for value in (0b001001, 0b110101, 0b110111):
            tree.insert_marker(value)
        outcome = tree.search(0b110100)
        assert outcome.used_backup
        assert outcome.fail_level == 2
        assert outcome.sequential_node_reads == figure_format.levels
        assert outcome.parallel_node_reads > 0

    def test_backup_from_two_levels_up(self):
        """If the parent node has no backup bit, the node two levels up
        supplies it (Section III-A)."""
        fmt = WordFormat(levels=3, literal_bits=2)
        tree = MultiBitTree(fmt)
        tree.insert_marker(0b00_11_10)  # gives the root a low branch
        tree.insert_marker(0b11_01_11)  # single chain: no level-1 backup
        # Searching 11_01_00 fails at level 2; level 1 has only one
        # literal, so the backup comes from the root.
        assert tree.closest_at_most(0b11_01_00) == 0b00_11_10

    def test_deepest_backup_is_preferred(self):
        fmt = WordFormat(levels=3, literal_bits=2)
        tree = MultiBitTree(fmt)
        tree.insert_marker(0b00_11_11)
        tree.insert_marker(0b11_00_11)
        tree.insert_marker(0b11_10_01)
        # Search 11_10_00: level-2 fails; the deepest backup (level 1,
        # literal 00) wins over the root backup (00).
        assert tree.closest_at_most(0b11_10_00) == 0b11_00_11


class TestSectionClearing:
    def test_clear_section_removes_markers(self, paper_format):
        tree = MultiBitTree(paper_format)
        # Section 0 covers values 0..255.
        for value in (3, 200, 255, 256, 1000):
            tree.insert_marker(value)
        removed = tree.clear_root_section(0)
        assert removed == 3
        assert tree.marked_values() == [256, 1000]
        tree.check_invariants()

    def test_clear_empty_section_is_noop(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(1000)
        assert tree.clear_root_section(0) == 0

    def test_clear_section_validates_literal(self, paper_format):
        tree = MultiBitTree(paper_format)
        with pytest.raises(ConfigurationError):
            tree.clear_root_section(16)

    def test_cleared_section_is_reusable(self, paper_format):
        tree = MultiBitTree(paper_format)
        for value in (10, 20, 300):
            tree.insert_marker(value)
        tree.clear_root_section(0)
        tree.insert_marker(15)
        assert tree.closest_at_most(17) == 15
        tree.check_invariants()


class TestInvariantDetection:
    def test_detects_orphan_bit(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(100)
        # Corrupt: set a root bit with no child subtree.
        root = tree._levels[0].peek(0)
        tree._levels[0].poke(0, root | (1 << 15))
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_detects_count_mismatch(self, paper_format):
        tree = MultiBitTree(paper_format)
        tree.insert_marker(100)
        tree._count = 2
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=4095), min_size=0, max_size=60
    ),
    keys=st.lists(
        st.integers(min_value=0, max_value=4095), min_size=1, max_size=20
    ),
)
def test_property_closest_match_oracle(values, keys):
    """closest_at_most always equals the brute-force oracle."""
    tree = MultiBitTree(PAPER_FORMAT)
    for value in values:
        tree.insert_marker(value)
    stored = set(values)
    for key in keys:
        assert tree.closest_at_most(key) == reference_closest(stored, key)


@settings(max_examples=100, deadline=None)
@given(
    fmt_shape=st.sampled_from([(2, 2), (3, 2), (2, 4), (4, 3), (6, 1)]),
    data=st.data(),
)
def test_property_all_shapes(fmt_shape, data):
    """The search is shape-independent: any (levels, literal_bits)."""
    levels, literal_bits = fmt_shape
    fmt = WordFormat(levels=levels, literal_bits=literal_bits)
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=fmt.max_value),
            min_size=0,
            max_size=30,
        )
    )
    key = data.draw(st.integers(min_value=0, max_value=fmt.max_value))
    tree = MultiBitTree(fmt)
    for value in values:
        tree.insert_marker(value)
    assert tree.closest_at_most(key) == reference_closest(set(values), key)
    tree.check_invariants()


class TestBulkReset:
    """Resets are in-place fills, so the turbo walks see them."""

    def test_turbo_search_sees_a_level_cleared_in_place(self):
        tree = FusedMultiBitTree(PAPER_FORMAT)
        for value in (5, 300, 2000):
            tree.insert_marker(value)
        assert tree.closest_at_most(PAPER_FORMAT.max_value) == 2000
        for level in tree._levels:
            level.clear()
        tree._count = 0
        assert tree.closest_at_most(PAPER_FORMAT.max_value) is None
        for (cells, _stats), level in zip(tree._level_cells, tree._levels):
            assert cells is level._cells

    def test_clear_all_charges_one_root_write(self):
        tree = MultiBitTree(PAPER_FORMAT)
        for value in range(0, PAPER_FORMAT.max_value, 97):
            tree.insert_marker(value)
        before = [tree.level_stats(i).to_dict() for i in range(3)]
        tree.clear_all()
        after = [tree.level_stats(i).to_dict() for i in range(3)]
        assert after[0]["writes"] == before[0]["writes"] + 1
        assert after[0]["reads"] == before[0]["reads"]
        assert after[1:] == before[1:]
        assert tree.marked_values() == []
        tree.check_invariants()

    def test_section_clear_zeroes_only_its_subtree(self):
        tree = MultiBitTree(PAPER_FORMAT)
        values = [0x123, 0x1FF, 0x200, 0x2AB, 0x7FF]
        for value in values:
            tree.insert_marker(value)
        assert tree.clear_root_section(1) == 2
        assert tree.marked_values() == [0x200, 0x2AB, 0x7FF]
        tree.check_invariants()
