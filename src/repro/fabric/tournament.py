"""The tournament aggregator: a reduction tree over shard head registers.

Every shard's sort/retrieve circuit latches its minimum tag in a head
register (:meth:`repro.core.sort_retrieve.TagSortRetrieveCircuit.peek_min`
— zero memory cost).  Selecting the *global* minimum across N shards is
then a pure register problem, and this module solves it the same way the
paper's multi-bit tree solves the within-circuit problem: a balanced
binary reduction tree whose internal nodes cache their subtree's winner.

When one shard's head changes (a push or pop on that shard), only the
nodes on its leaf-to-root path are recomputed — **O(log N) comparisons
per update**, counted in :attr:`TournamentAggregator.comparisons` so the
benchmarks can report aggregation overhead exactly.  An update that
leaves the head tag as it was replays nothing: no comparator's inputs
changed, so in hardware no comparator does any work, and the counters
(:attr:`~TournamentAggregator.comparisons`,
:attr:`~TournamentAggregator.updates`) count only real replays.  A push
behind the head, or a cancel or retag away from it, leaves the head as
it was; how often depends on the traffic (DESIGN.md §9 gives the
measured share per serve workload).

Ordering is **wrap-aware**: raw tags live in the circuits' cyclical
Fig. 6 tag space, so comparisons use the serial-number rule — ``a``
precedes ``b`` iff the wrapped distance ``(a - b) mod space`` is at
least half the space — which is unambiguous exactly while the live span
stays under half the tag space (the same window the per-circuit span
guard enforces).  Ties break toward the lower shard index, giving the
fabric a deterministic FCFS-by-shard discipline for equal quanta.
"""

from __future__ import annotations

from typing import List, Optional

from ..hwsim.errors import ConfigurationError


class TournamentAggregator:
    """Incremental winner tree over per-shard minimum tags."""

    def __init__(self, leaves: int, *, space: Optional[int] = None) -> None:
        if leaves < 1:
            raise ConfigurationError("tournament needs at least one leaf")
        if space is not None and space < 2:
            raise ConfigurationError("tag space must be at least 2")
        self.leaves = leaves
        self.space = space
        self._half = space // 2 if space is not None else None
        size = 1
        while size < leaves:
            size <<= 1
        self._size = size
        #: per-leaf head tag (None = shard empty)
        self._tags: List[Optional[int]] = [None] * leaves
        #: heap-shaped winner tree: node i's children are 2i and 2i+1,
        #: leaves occupy [size, size+leaves); cells hold the winning
        #: *leaf index* (None = empty subtree).  The root is node 1.
        self._nodes: List[Optional[int]] = [None] * (2 * size)
        #: head-to-head comparisons performed over the aggregator's life
        self.comparisons = 0
        #: leaf updates that changed a head tag (and so replayed a path)
        self.updates = 0

    # ------------------------------------------------------------------
    # ordering

    def precedes(self, a: int, b: int) -> bool:
        """True when tag ``a`` strictly precedes ``b`` in service order."""
        if self.space is None:
            return a < b
        return (a - b) % self.space >= self._half

    def _pick(self, left: Optional[int], right: Optional[int]) -> Optional[int]:
        """Winner of two leaf indices (left always has the lower index)."""
        if left is None:
            return right
        if right is None:
            return left
        self.comparisons += 1
        # Tie → left, i.e. the lower shard index (FCFS across shards).
        if self.precedes(self._tags[right], self._tags[left]):
            return right
        return left

    # ------------------------------------------------------------------
    # updates

    def update(self, leaf: int, tag: Optional[int]) -> int:
        """Set one shard's head tag; replays its leaf-to-root path.

        Returns the number of comparisons this update performed
        (<= ceil(log2 N); empty siblings compare for free, as in
        hardware where a valid bit gates the comparator).  An unchanged
        tag returns 0 at once: every cached winner is still right.
        """
        if not 0 <= leaf < self.leaves:
            raise ConfigurationError(
                f"leaf {leaf} outside [0, {self.leaves})"
            )
        if tag == self._tags[leaf]:
            return 0
        before = self.comparisons
        self.updates += 1
        self._tags[leaf] = tag
        node = self._size + leaf
        self._nodes[node] = leaf if tag is not None else None
        node >>= 1
        while node:
            self._nodes[node] = self._pick(
                self._nodes[2 * node], self._nodes[2 * node + 1]
            )
            node >>= 1
        return self.comparisons - before

    def rebuild(self, tags: List[Optional[int]]) -> None:
        """Reload every leaf at once (the restore path)."""
        if len(tags) != self.leaves:
            raise ConfigurationError(
                f"expected {self.leaves} head tags, got {len(tags)}"
            )
        for leaf, tag in enumerate(tags):
            self.update(leaf, tag)

    # ------------------------------------------------------------------
    # queries (registers only — no memory traffic anywhere here)

    @property
    def winner(self) -> Optional[int]:
        """Shard index holding the global minimum (None = all empty)."""
        return self._nodes[1]

    def winner_tag(self) -> Optional[int]:
        """The global minimum tag itself (None = all empty)."""
        winner = self._nodes[1]
        return None if winner is None else self._tags[winner]

    def leaf_tag(self, leaf: int) -> Optional[int]:
        """The head tag currently recorded for one shard."""
        return self._tags[leaf]

    def runner_up(self) -> Optional[int]:
        """The best shard *excluding* the current winner.

        Walks the winner's root path once, comparing the siblings'
        cached winners — O(log N) comparisons, the classic
        replacement-selection trick.  Lets a batched dequeue drain the
        winner shard in a run: every head at or before the runner-up's
        tag (ties included only when the winner has the lower index) is
        globally minimal without re-running the tournament.
        """
        winner = self._nodes[1]
        if winner is None:
            return None
        best: Optional[int] = None
        node = self._size + winner
        while node > 1:
            sibling = self._nodes[node ^ 1]
            if sibling is not None:
                if best is None:
                    best = sibling
                else:
                    self.comparisons += 1
                    sib_tag = self._tags[sibling]
                    best_tag = self._tags[best]
                    if self.precedes(sib_tag, best_tag) or (
                        sib_tag == best_tag and sibling < best
                    ):
                        best = sibling
            node >>= 1
        return best

    def describe(self) -> dict:
        """Machine-readable configuration and counters."""
        return {
            "leaves": self.leaves,
            "space": self.space,
            "depth": self._size.bit_length() - 1,
            "comparisons": self.comparisons,
            "updates": self.updates,
        }
