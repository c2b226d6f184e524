"""The multi-bit search tree (trie) of paper Section III-A.

The tree records, for every tag value currently in the scheduler, a *tag
marker*: one presence bit per literal per level.  A node at level ``d`` is
a ``b``-bit word (b = branching factor) whose bit ``i`` says "some stored
value has literal ``i`` here under this prefix".

The search implemented by :meth:`MultiBitTree.closest_at_most` is the
paper's closest-match discipline (Figs. 4 and 5):

* at each level the matching circuit returns an exact-or-next-smallest
  **primary** match and a **backup** match (next set bit below the
  primary);
* the moment the primary match is *non-exact*, every deeper level simply
  follows its maximum set bit ("all subsequent levels return their
  maximum value");
* if the primary search fails at some level (no set bit at or below the
  target literal — possible only while still on the exact-prefix path),
  the deepest recorded backup is taken and the remaining levels again
  follow maximum set bits (Fig. 5);
* if no backup exists anywhere, no stored value <= the key exists.  Under
  WFQ this means the tree is empty (new tags are never smaller than the
  current minimum) and the circuit enters initialization mode; the method
  returns ``None`` so the caller can handle both WFQ and general use.

Storage follows the silicon layout: the first two levels live in
registers, deeper levels in single-port SRAM
(:func:`repro.hwsim.memory.make_tree_level_memory`).  Stale-section
deletion for the wrapping tag space (Fig. 6) is provided by
:meth:`clear_root_section`.

:class:`MultiBitTree` is the gate-accurate reference: every node fetch
goes through the level memory's ``read``/``write`` and every search
through the matcher circuits.  :class:`FusedMultiBitTree` (the turbo
engine's flavour) overrides only the two per-operation methods with
raw-cell versions that charge the same accesses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..hwsim.errors import ConfigurationError, HardwareSimulationError
from ..hwsim.memory import make_tree_level_memory
from ..hwsim.stats import AccessStats
from .matching import DEFAULT_MATCHER, MatchingCircuit, highest_set_bit
from .words import WordFormat


class TreeInvariantError(HardwareSimulationError):
    """The tree's structural invariant was violated.

    Invariant: a set marker bit at level ``d`` implies its child node at
    level ``d+1`` is non-empty.  A violation means marker bookkeeping
    (insert/remove/section-clear) is buggy.
    """


class SearchOutcome:
    """Full instrumentation of one closest-match search.

    Hand-rolled with ``__slots__`` (rather than a dataclass): one of
    these is allocated per tree search, so it sits on the per-operation
    hot path alongside :class:`~repro.core.matching.base.MatchResult`.
    """

    __slots__ = (
        "key",
        "result",
        "exact",
        "used_backup",
        "fail_level",
        "path_literals",
        "sequential_node_reads",
        "parallel_node_reads",
    )

    def __init__(
        self,
        key: int,
        result: Optional[int],
        exact: bool = False,
        used_backup: bool = False,
        fail_level: Optional[int] = None,
        path_literals: Optional[List[int]] = None,
        sequential_node_reads: int = 0,
        parallel_node_reads: int = 0,
    ) -> None:
        self.key = key
        self.result = result
        self.exact = exact
        self.used_backup = used_backup
        self.fail_level = fail_level
        self.path_literals = [] if path_literals is None else path_literals
        self.sequential_node_reads = sequential_node_reads
        self.parallel_node_reads = parallel_node_reads

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchOutcome):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in SearchOutcome.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in SearchOutcome.__slots__
        )
        return f"SearchOutcome({fields})"

    @property
    def total_node_reads(self) -> int:
        """All node words fetched, primary plus backup path."""
        return self.sequential_node_reads + self.parallel_node_reads


class MultiBitTree:
    """A multi-bit trie of tag markers with closest-match search."""

    def __init__(
        self,
        fmt: WordFormat,
        *,
        matcher_factory=DEFAULT_MATCHER,
        register_levels: int = 2,
    ) -> None:
        self.fmt = fmt
        b = fmt.branching_factor
        self._levels = [
            make_tree_level_memory(
                level, b, b**level, register_levels=register_levels
            )
            for level in range(fmt.levels)
        ]
        # The paper uses identical matching circuits at every level
        # ("three identical matching circuits are required").
        self.matchers: List[MatchingCircuit] = [
            matcher_factory(b) for _ in range(fmt.levels)
        ]
        self._count = 0
        #: instrumentation of the most recent :meth:`search` (telemetry
        #: probe: lets a tracer report backup-path activations without
        #: re-running the search).
        self.last_outcome: Optional[SearchOutcome] = None
        for level in self._levels:
            level.fill(0)

    # ------------------------------------------------------------------
    # basic properties

    @property
    def marker_count(self) -> int:
        """Number of distinct tag values currently marked."""
        return self._count

    @property
    def is_empty(self) -> bool:
        """True when no markers are stored (initialization mode trigger)."""
        return self._count == 0

    def level_stats(self, level: int) -> AccessStats:
        """Access counters of one level's memory."""
        return self._levels[level].stats

    def total_stats(self) -> AccessStats:
        """Summed access counters across all levels."""
        combined = AccessStats()
        for level in self._levels:
            combined.reads += level.stats.reads
            combined.writes += level.stats.writes
        return combined

    # ------------------------------------------------------------------
    # marker maintenance

    def contains(self, value: int) -> bool:
        """Whether ``value`` is marked (reads one node per level)."""
        self.fmt.check_value(value)
        prefix = 0
        b = self.fmt.branching_factor
        for level, literal in enumerate(self.fmt.literals(value)):
            node = self._levels[level].read(prefix)
            if not node >> literal & 1:
                return False
            prefix = prefix * b + literal
        return True

    def insert_marker(self, value: int) -> bool:
        """Mark ``value`` as present.

        Returns True if the marker was new, False if it already existed
        (duplicate tag values share one marker; the translation table and
        linked list handle the duplicates, Fig. 11).  Only nodes whose bit
        is actually clear are written — in the Fig. 4 walkthrough a single
        node update suffices.
        """
        self.fmt.check_value(value)
        prefix = 0
        b = self.fmt.branching_factor
        new_marker = False
        for level, literal in enumerate(self.fmt.literals(value)):
            memory = self._levels[level]
            node = memory.read(prefix)
            if not node >> literal & 1:
                memory.write(prefix, node | (1 << literal))
                new_marker = True
            prefix = prefix * b + literal
        if new_marker:
            self._count += 1
        return new_marker

    def insert_markers(self, values) -> int:
        """Mark many values, amortizing node fetches across the batch.

        The node words along the previous value's path stay latched in
        registers, so a value sharing a path prefix with its predecessor
        re-reads only the levels below the first differing literal — the
        hardware analogue of keeping the last search path as a
        node-register cache.  Sorted (or monotone-run) inputs maximize
        prefix sharing; correctness holds for any order.  Access
        accounting is flushed to each level's stats once per batch.
        Returns the number of new distinct markers.
        """
        b = self.fmt.branching_factor
        depth = self.fmt.levels
        reads = [0] * depth
        writes = [0] * depth
        cells = [level._cells for level in self._levels]
        cached_literals: List[int] = []
        cached_prefixes: List[int] = []
        cached_nodes: List[int] = []
        added = 0
        for value in values:
            literals = self.fmt.literals(value)
            shared = 0
            while (
                shared < len(cached_literals)
                and cached_literals[shared] == literals[shared]
            ):
                shared += 1
            if shared == depth:
                continue  # duplicate of the previous value: bits all set
            new_marker = False
            prefix = cached_prefixes[shared] if shared < len(cached_prefixes) else 0
            del cached_literals[shared:]
            del cached_prefixes[shared:]
            for level in range(shared, depth):
                literal = literals[level]
                if level == shared and level < len(cached_nodes):
                    # Same node address as the cached path: reuse the
                    # latched word instead of re-reading it.
                    node = cached_nodes[level]
                else:
                    node = cells[level][prefix] or 0
                    reads[level] += 1
                if not node >> literal & 1:
                    node |= 1 << literal
                    cells[level][prefix] = node
                    writes[level] += 1
                    new_marker = True
                if level < len(cached_nodes):
                    cached_nodes[level] = node
                else:
                    cached_nodes.append(node)
                cached_literals.append(literal)
                cached_prefixes.append(prefix)
                prefix = prefix * b + literal
            del cached_nodes[depth:]
            if new_marker:
                added += 1
        for level in range(depth):
            if reads[level] or writes[level]:
                self._levels[level].stats.record_bulk(
                    reads=reads[level], writes=writes[level]
                )
        self._count += added
        return added

    def remove_marker(self, value: int) -> bool:
        """Unmark ``value``; prunes now-empty ancestors bottom-up.

        The downward verify pass latches each level's node word in a
        path register, so the upward clear phase is write-only: one read
        plus at most one write per level, never a re-read.  (Each word
        on the path is read exactly once, before any word is modified,
        and clearing a bit at level ``d`` only changes level ``d``'s
        word — the latched parents stay valid.)

        Returns True if a marker was removed, False if ``value`` was not
        marked.
        """
        self.fmt.check_value(value)
        b = self.fmt.branching_factor
        literals = self.fmt.literals(value)
        # Collect the path (and verify presence) top-down first.
        prefix = 0
        path: List[Tuple[int, int, int, int]] = []
        for level, literal in enumerate(literals):
            node = self._levels[level].read(prefix)
            if not node >> literal & 1:
                return False
            path.append((level, prefix, literal, node))
            prefix = prefix * b + literal
        # Clear bottom-up, stopping once a node stays non-empty.
        for level, node_prefix, literal, node in reversed(path):
            node &= ~(1 << literal)
            self._levels[level].write(node_prefix, node)
            if node != 0:
                break
        self._count -= 1
        return True

    def clear_all(self) -> None:
        """Global marker reset (the paper's initialization mode).

        When the scheduler drains completely the circuit re-enters
        initialization mode (Section III-A); stale markers left by
        deferred deletion are flushed with a parallel reset line, modeled
        as one root write plus an unaccounted in-place fill of the deeper
        levels.
        """
        self._levels[0].write(0, 0)
        for level in self._levels[1:]:
            level.fill(0)
        self._count = 0

    def clear_root_section(self, root_literal: int) -> int:
        """Bulk-delete one sixteenth of the tag space (Fig. 6).

        When the wrapping WFQ tag space vacates the range behind the
        current minimum, the corresponding root bit is cleared and "all
        child nodes stemming from this bit are isolated and deleted at the
        same time".  The hardware performs the subtree reset as a parallel
        section clear, so only the root update is accounted as a memory
        access; descendant words are zeroed directly.

        Returns the number of distinct marker values deleted.
        """
        b = self.fmt.branching_factor
        if not 0 <= root_literal < b:
            raise ConfigurationError(
                f"root literal {root_literal} outside [0, {b})"
            )
        root_memory = self._levels[0]
        root = root_memory.read(0)
        if not root >> root_literal & 1:
            return 0
        removed = self._count_section(root_literal)
        root_memory.write(0, root & ~(1 << root_literal))
        for level in range(1, self.fmt.levels):
            span = b ** (level - 1)
            start = root_literal * span
            self._levels[level].fill(0, start, start + span)
        self._count -= removed
        return removed

    def _count_section(self, root_literal: int) -> int:
        """Distinct marked values under one root literal (no accounting)."""
        if self.fmt.levels == 1:
            return 1  # presence already checked by the caller
        return self._popcount_subtree(level=1, prefix=root_literal)

    def _popcount_subtree(self, level: int, prefix: int) -> int:
        node = self._levels[level].peek(prefix)
        if node is None:
            node = 0
        if level == self.fmt.levels - 1:
            return bin(node).count("1")
        b = self.fmt.branching_factor
        total = 0
        for literal in range(b):
            if node >> literal & 1:
                total += self._popcount_subtree(level + 1, prefix * b + literal)
        return total

    # ------------------------------------------------------------------
    # the closest-match search (Figs. 4 and 5)

    def closest_at_most(self, key: int) -> Optional[int]:
        """Largest marked value <= ``key``, or None if none exists."""
        return self.search(key).result

    def search(self, key: int) -> SearchOutcome:
        """Run the full primary+backup search, with instrumentation."""
        self.fmt.check_value(key)
        outcome = SearchOutcome(key=key, result=None)
        self.last_outcome = outcome
        b = self.fmt.branching_factor
        literals = self.fmt.literals(key)
        backups: List[Tuple[int, int, int]] = []  # (level, prefix, bit)
        prefix = 0
        exact = True
        for level, target in enumerate(literals):
            node = self._levels[level].read(prefix)
            outcome.sequential_node_reads += 1
            if exact:
                match = self.matchers[level].search(node, target)
                if match.primary is None:
                    # Primary search failed (Fig. 5 point A): take the
                    # deepest backup recorded so far.
                    outcome.fail_level = level
                    outcome.used_backup = True
                    outcome.result = self._follow_backup(backups, outcome)
                    return outcome
                if match.backup is not None:
                    backups.append((level, prefix, match.backup))
                if match.primary == target:
                    outcome.path_literals.append(target)
                    prefix = prefix * b + target
                else:
                    # Non-exact: deeper levels follow their maxima.
                    exact = False
                    outcome.path_literals.append(match.primary)
                    prefix = prefix * b + match.primary
            else:
                top = highest_set_bit(node, b)
                if top is None:
                    raise TreeInvariantError(
                        f"empty node at level {level}, prefix {prefix:#x} "
                        "below a set marker bit"
                    )
                outcome.path_literals.append(top)
                prefix = prefix * b + top
        outcome.result = self.fmt.combine(outcome.path_literals)
        outcome.exact = outcome.result == key
        return outcome

    def _follow_backup(
        self,
        backups: List[Tuple[int, int, int]],
        outcome: SearchOutcome,
    ) -> Optional[int]:
        """Descend from the deepest backup, following maximum set bits.

        The backup search runs in parallel with the primary search in the
        hardware (Section III-A), so its node fetches are accounted as
        parallel reads: they cost memory bandwidth but do not extend the
        fixed search latency.
        """
        if not backups:
            # No smaller value exists anywhere: under WFQ this only
            # happens when the tree is empty (initialization mode).
            return None
        level, prefix, bit = backups[-1]
        b = self.fmt.branching_factor
        path = outcome.path_literals[:level] + [bit]
        prefix = prefix * b + bit
        for deeper in range(level + 1, self.fmt.levels):
            node = self._levels[deeper].read(prefix)
            outcome.parallel_node_reads += 1
            top = highest_set_bit(node, b)
            if top is None:
                raise TreeInvariantError(
                    f"empty node on backup path at level {deeper}"
                )
            path.append(top)
            prefix = prefix * b + top
        outcome.path_literals = path
        return self.fmt.combine(path)

    # ------------------------------------------------------------------
    # checkpoint / restore

    def to_state(self) -> dict:
        """Exact serializable snapshot: every node word plus accounting."""
        return {
            "kind": "multi_bit_tree",
            "levels": self.fmt.levels,
            "literal_bits": self.fmt.literal_bits,
            "nodes": [list(level._cells) for level in self._levels],
            "count": self._count,
            "stats": [level.stats.to_dict() for level in self._levels],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "multi_bit_tree":
            raise ConfigurationError(
                f"not a tree snapshot: kind={state.get('kind')!r}"
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
        for level, nodes in zip(self._levels, state["nodes"]):
            if len(nodes) != level.size:
                raise ConfigurationError(
                    f"{level.name}: snapshot holds {len(nodes)} nodes, "
                    f"memory holds {level.size}"
                )
            level._cells[:] = nodes
        self._count = state["count"]
        for level, stats in zip(self._levels, state["stats"]):
            level.stats.reads = stats["reads"]
            level.stats.writes = stats["writes"]
        self.last_outcome = None

    @classmethod
    def from_state(
        cls, state: dict, *, matcher_factory=DEFAULT_MATCHER
    ) -> "MultiBitTree":
        """Reconstruct a tree from a :meth:`to_state` snapshot."""
        fmt = WordFormat(
            levels=state["levels"], literal_bits=state["literal_bits"]
        )
        tree = cls(fmt, matcher_factory=matcher_factory)
        tree.load_state(state)
        return tree

    # ------------------------------------------------------------------
    # whole-tree queries (used by experiments and invariant checks)

    def min_marked(self) -> Optional[int]:
        """Smallest marked value, or None when empty (follows min bits)."""
        return self._extreme(smallest=True)

    def max_marked(self) -> Optional[int]:
        """Largest marked value, or None when empty (follows max bits)."""
        return self._extreme(smallest=False)

    def _extreme(self, *, smallest: bool) -> Optional[int]:
        if self.is_empty:
            return None
        b = self.fmt.branching_factor
        prefix = 0
        path = []
        for level in range(self.fmt.levels):
            node = self._levels[level].read(prefix)
            if node == 0:
                raise TreeInvariantError(
                    f"empty node at level {level} in a non-empty tree"
                )
            if smallest:
                literal = (node & -node).bit_length() - 1
            else:
                literal = node.bit_length() - 1
            path.append(literal)
            prefix = prefix * b + literal
        return self.fmt.combine(path)

    def marked_values(self) -> List[int]:
        """All marked values in ascending order (debug/verification walk)."""
        values: List[int] = []
        self._walk(0, 0, values)
        return values

    def _walk(self, level: int, prefix: int, out: List[int]) -> None:
        node = self._levels[level].peek(prefix)
        if not node:
            return
        b = self.fmt.branching_factor
        for literal in range(b):
            if not node >> literal & 1:
                continue
            if level == self.fmt.levels - 1:
                out.append(prefix * b + literal)
            else:
                self._walk(level + 1, prefix * b + literal, out)

    def check_invariants(self) -> None:
        """Verify structural consistency; raises TreeInvariantError."""
        values = self.marked_values()
        if len(values) != self._count:
            raise TreeInvariantError(
                f"marker count {self._count} != walked count {len(values)}"
            )
        b = self.fmt.branching_factor
        for level in range(self.fmt.levels - 1):
            memory = self._levels[level]
            child_memory = self._levels[level + 1]
            for prefix in range(memory.size):
                node = memory.peek(prefix) or 0
                for literal in range(b):
                    child = child_memory.peek(prefix * b + literal) or 0
                    bit_set = bool(node >> literal & 1)
                    if bit_set and child == 0:
                        raise TreeInvariantError(
                            f"set bit over empty child: level {level}, "
                            f"prefix {prefix}, literal {literal}"
                        )
                    if not bit_set and child != 0:
                        raise TreeInvariantError(
                            f"clear bit over non-empty child: level {level}, "
                            f"prefix {prefix}, literal {literal}"
                        )


class FusedMultiBitTree(MultiBitTree):
    """The tree with its two per-operation methods fused (``--mode turbo``).

    :meth:`closest_at_most` and :meth:`insert_marker` reach the same
    answers and charge the same per-level reads and writes as the
    reference methods, but they touch each level's raw cell list and
    :class:`AccessStats` directly, and the search replaces the matcher
    circuits with machine-word bit tricks: mask the node above the
    target literal, take the highest set bit as the primary match, strip
    it, and take the next as the backup.  That is the function every
    matcher topology computes (``tests/core/test_matching_fast.py``
    holds them equal).  Every other method, :meth:`search` and its
    :class:`SearchOutcome` included, is the reference one.
    """

    def __init__(self, fmt: WordFormat, **kwargs) -> None:
        super().__init__(fmt, **kwargs)
        #: per-level ``(cells, stats)`` pairs.  Both objects are
        #: identity-stable for the memory's lifetime (every reset path —
        #: clear_all, section clears, load_state — mutates them in
        #: place), so the loops skip two attribute hops per level.
        self._level_cells = tuple(
            (level._cells, level.stats) for level in self._levels
        )
        self._max_value = fmt.max_value
        self._literal_bits = fmt.literal_bits
        self._root_shift = (fmt.levels - 1) * fmt.literal_bits

    def insert_marker(self, value: int) -> bool:
        """:meth:`MultiBitTree.insert_marker` on the raw cells: one read
        per level, one write per newly set bit."""
        if not (type(value) is int and 0 <= value <= self._max_value):
            self.fmt.check_value(value)  # raises the canonical error
        k = self._literal_bits
        b = 1 << k
        lit_mask = b - 1
        shift = self._root_shift
        prefix = 0
        new_marker = False
        for cells, stats in self._level_cells:
            literal = (value >> shift) & lit_mask
            shift -= k
            node = cells[prefix] or 0
            stats.reads += 1
            if not node >> literal & 1:
                cells[prefix] = node | (1 << literal)
                stats.writes += 1
                new_marker = True
            prefix = prefix * b + literal
        if new_marker:
            self._count += 1
        return new_marker

    def closest_at_most(self, key: int) -> Optional[int]:
        """:meth:`MultiBitTree.closest_at_most` without the matchers.

        One sequential read per visited level, plus the backup descent's
        parallel reads after a primary failure, exactly as
        :meth:`search` charges them; no :class:`SearchOutcome` is built
        (:attr:`last_outcome` is cleared so a stale probe is never read).
        """
        if not (type(key) is int and 0 <= key <= self._max_value):
            self.fmt.check_value(key)  # raises the canonical error
        self.last_outcome = None
        k = self._literal_bits
        b = 1 << k
        walk = self._level_cells
        depth = len(walk)
        lit_mask = b - 1
        shift = self._root_shift
        backup_level = -1
        backup_prefix = 0
        backup_bit = 0
        prefix = 0
        level = 0
        # Exact phase: follow the key's literals while they match.
        for cells, stats in walk:
            node = cells[prefix] or 0
            stats.reads += 1
            target = (key >> shift) & lit_mask
            shift -= k
            masked = node & ((2 << target) - 1)
            if not masked:
                # Primary search failed (Fig. 5 point A): descend from
                # the deepest backup along maximum set bits.
                if backup_level < 0:
                    return None
                bprefix = backup_prefix * b + backup_bit
                for deeper in range(backup_level + 1, depth):
                    deep_cells, deep_stats = walk[deeper]
                    deep_node = deep_cells[bprefix] or 0
                    deep_stats.reads += 1
                    if not deep_node:
                        raise TreeInvariantError(
                            f"empty node on backup path at level {deeper}"
                        )
                    bprefix = bprefix * b + (deep_node.bit_length() - 1)
                return bprefix
            primary = masked.bit_length() - 1
            below = masked ^ (1 << primary)
            if below:
                backup_level = level
                backup_prefix = prefix
                backup_bit = below.bit_length() - 1
            prefix = prefix * b + primary
            level += 1
            if primary != target:
                break
        # Non-exact tail: deeper levels follow their maximum set bits.
        for deeper in range(level, depth):
            cells, stats = walk[deeper]
            node = cells[prefix] or 0
            stats.reads += 1
            if not node:
                raise TreeInvariantError(
                    f"empty node at level {deeper}, prefix {prefix:#x} "
                    "below a set marker bit"
                )
            prefix = prefix * b + (node.bit_length() - 1)
        return prefix
