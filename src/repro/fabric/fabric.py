"""`ScheduleFabric`: N sort/retrieve circuits behind one tag store.

The facade presents the same push/pop contract as a single
:class:`~repro.net.hardware_store.HardwareTagStore`, but spreads flows
across ``shards`` independent circuits:

* enqueue — :class:`~repro.fabric.partitioner.FlowPartitioner` pins the
  flow to a shard, :class:`~repro.fabric.manager.ShardManager` may spill
  the tag to a roomier neighbour near overflow, and the shard's circuit
  inserts it;
* dequeue — the :class:`~repro.fabric.tournament.TournamentAggregator`
  names the shard holding the global minimum in O(log N) register
  comparisons, that shard's circuit serves its head, and only the
  winner's leaf-to-root tournament path refreshes.

**Global service order.**  Each circuit serves its own tags in
non-decreasing (wrap-aware) order, and the tournament always serves the
minimum over all shard heads, so the merged stream is exactly the
sequence one big circuit would produce — the k-way merge argument —
provided all live tags fit a half-tag-space window.  Every shard's own
span guard enforces its local window; the shards share one virtual-time
base (the WFQ tag computation), so the global span obeys the same bound
whenever any single circuit's would.

**Modeled parallel time.**  The shards are independent hardware, so
fabric busy time is the *makespan* — the maximum per-shard cycle count
— not the sum (:attr:`ScheduleFabric.cycles`).  An N-way balanced
fabric therefore enqueues ~N× faster in modeled time than one circuit,
which is the scale-out claim the fabric benchmark phase measures.

**Batched dequeues** pay per shard, not per entry.  A drain of
:data:`MERGE_MIN_BATCH` entries or more is planned as the k-way merge
it is: every shard lists its next tags without moving anything
(``peek_tags``), the fabric sorts them by wrap-aware offset from the
winner's tag (ties to the lower shard index), makes one
:meth:`HardwareTagStore.pop_batch` per touched shard and interleaves
the results; occupancy, per-flow counts and the tournament leaves are
updated once per batch.  Smaller drains keep the runner-up fence loop:
the winner drains in runs bounded by the second-best head, so a k-entry
run costs one tournament refresh instead of k (DESIGN.md §9).
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import le
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.engine import read_legacy_keys, resolve_mode
from ..core.words import PAPER_FORMAT, WordFormat
from ..hwsim.errors import ConfigurationError, ProtocolError
from ..net.hardware_store import HardwareTagStore
from ..obs.tracer import NULL_TRACER, ComponentTracer
from .manager import FabricPolicy, ShardManager
from .partitioner import FlowPartitioner
from .tournament import TournamentAggregator


def shard_component(shard: int) -> str:
    """The canonical ``component`` label for shard ``shard``'s events."""
    return f"shard{shard}"


#: The ``component`` label on fabric-level events (routing, tournament,
#: rebalance) as opposed to shard-local circuit events.
FABRIC_COMPONENT = "fabric"

#: Smallest :meth:`ScheduleFabric.pop_batch` served as a k-way merge.
#: Below it the fence loop is as cheap as peeking, sorting and one store
#: call per shard (the measured crossover is in DESIGN.md §9).
MERGE_MIN_BATCH = 64


class ScheduleFabric:
    """Sharded multi-circuit tag store with tournament aggregation."""

    def __init__(
        self,
        *,
        shards: int = 4,
        fmt: WordFormat = PAPER_FORMAT,
        granularity: float = 1.0,
        capacity_per_shard: int = 4096,
        mode: Optional[str] = None,
        partition_policy: str = "hash",
        flow_space: int = 1024,
        policy: Optional[FabricPolicy] = None,
        tracer=None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("fabric needs at least one shard")
        self.shards = shards
        self.fmt = fmt
        self.granularity = granularity
        self.capacity_per_shard = capacity_per_shard
        self.mode = resolve_mode(mode)
        self.stores: List[HardwareTagStore] = [
            HardwareTagStore(
                fmt=fmt,
                granularity=granularity,
                capacity=capacity_per_shard,
                mode=self.mode,
            )
            for _ in range(shards)
        ]
        self.partitioner = FlowPartitioner(
            shards, policy=partition_policy, flow_space=flow_space
        )
        self.manager = ShardManager(
            self.partitioner,
            shard_capacity=capacity_per_shard,
            policy=policy,
        )
        self.tournament = TournamentAggregator(shards, space=fmt.capacity)
        #: live tag count per flow id (drives rebalance planning)
        self._flow_live: Dict[int, int] = {}
        #: live tag count per shard, kept incrementally by every path
        #: that moves entries in or out of a store (push, push_batch,
        #: pop_min, pop_batch, remove, migration) and rebuilt by
        #: load_state, so routing and rebalance planning never recount
        #: the stores.
        self._occupancy: List[int] = [0] * shards
        self.pushes = 0
        self.pops = 0
        self.cancels = 0
        self.repins = 0
        self._tracer = NULL_TRACER
        self._relocation_listeners: List[
            Callable[[Dict[int, int]], None]
        ] = []
        if tracer is not None:
            self.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # introspection

    def occupancies(self) -> List[int]:
        """Live tag count per shard (index-aligned with ``stores``).

        A fresh list each call: callers (``push_batch``) may mutate it.
        """
        return list(self._occupancy)

    def __len__(self) -> int:
        return sum(self._occupancy)

    @property
    def operations(self) -> int:
        """Circuit operations summed over all shards (total work)."""
        return sum(store.operations for store in self.stores)

    @property
    def cycles(self) -> int:
        """Modeled busy time: the *makespan* over the parallel shards.

        Each shard is independent hardware clocked in parallel, so the
        fabric is busy for as long as its busiest shard — the scale-out
        quantity the benchmarks compare against one circuit's cycles.
        """
        return max(store.cycles for store in self.stores)

    @property
    def cycles_total(self) -> int:
        """Cycles summed over all shards (total energy/work, not time)."""
        return sum(store.cycles for store in self.stores)

    def describe(self) -> dict:
        """Machine-readable configuration and counters."""
        config = self.stores[0].describe()
        config.update(
            {
                "shards": self.shards,
                "capacity_per_shard": self.capacity_per_shard,
                "partition": self.partitioner.describe(),
                "manager": self.manager.describe(),
                "tournament": self.tournament.describe(),
                "pushes": self.pushes,
                "pops": self.pops,
                "cancels": self.cancels,
                "repins": self.repins,
            }
        )
        return config

    @property
    def flow_live(self) -> Dict[int, int]:
        """A copy of the per-flow live tag counts."""
        return dict(self._flow_live)

    def flow_backlog(self, flow_id: int) -> int:
        """One flow's live tag count (O(1); 0 when nothing is queued).

        Unlike :attr:`flow_live` this does not copy the whole table, so
        per-packet policies (backpressure marking, admission checks) can
        consult it on the hot path.
        """
        return self._flow_live.get(flow_id, 0)

    # ------------------------------------------------------------------
    # enqueue path

    def _sync_head(self, shard: int) -> int:
        """Refresh one shard's tournament leaf from its head register."""
        return self.tournament.update(
            shard, self.stores[shard].circuit.peek_min()
        )

    def _track_push(self, flow_id: int) -> None:
        self._flow_live[flow_id] = self._flow_live.get(flow_id, 0) + 1

    def _track_pop(self, flow_id: int) -> None:
        live = self._flow_live.get(flow_id, 0) - 1
        if live > 0:
            self._flow_live[flow_id] = live
        else:
            self._flow_live.pop(flow_id, None)

    def add_relocation_listener(
        self, listener: Callable[[Dict[int, int]], None]
    ) -> None:
        """Register a callback for handle relocations.

        Backlog migration moves live entries between shards, which
        changes their fabric handles.  Each listener is invoked with an
        ``{old_handle: new_handle}`` dict immediately after a migration,
        so handle-holding layers (timer wheels, connection sessions) can
        remap before they next dereference.
        """
        self._relocation_listeners.append(listener)

    def _maybe_rebalance(self) -> Dict[int, int]:
        """Plan/apply a rebalance; returns any handle relocations.

        The ``rebalance`` event carries the *pre-migration* occupancies
        (the state the decision was made on) and is emitted before the
        migration's own per-shard remove/insert events, so trace ledgers
        reconcile op-for-op.
        """
        plan = self.manager.plan_rebalance(
            self._occupancy, self._flow_live, self.pushes + self.pops
        )
        if plan is None:
            return {}
        if self._tracer.enabled:
            self._tracer.event(
                "rebalance",
                component=FABRIC_COMPONENT,
                occupancies=self.occupancies(),
                **plan.to_dict(),
            )
        if not self.manager.policy.migrate_backlog:
            return {}
        relocations = self._migrate_backlog(plan)
        if relocations:
            for listener in self._relocation_listeners:
                listener(relocations)
        return relocations

    def _migrate_backlog(self, plan) -> Dict[int, int]:
        """Physically move a re-pinned flow's queued entries.

        Remove-by-handle on the source shard, re-push at the identical
        exact tag on the target — enumerated head-first so within-flow
        FCFS order is preserved.  An entry migrates only when the target
        can hold it *at its own quantum* (no clamping, no span-guard
        trip) and has a free slot; anything else stays on the source,
        which is always correct — rebalancing is an optimization, never
        a requirement.  At most half the occupancy gap moves: migration
        *equalizes* the shards rather than dumping the whole backlog,
        which would invert the skew and ping-pong the flow back on the
        next rebalance.  Returns ``{old_handle: new_handle}``.
        """
        moved_flows = {flow_id for flow_id, _ in plan.moves}
        source_store = self.stores[plan.source]
        target_store = self.stores[plan.target]
        occupancy = self._occupancy
        quota = max(0, (occupancy[plan.source] - occupancy[plan.target]) // 2)
        base_source = plan.source * self.capacity_per_shard
        base_target = plan.target * self.capacity_per_shard
        # Snapshot the candidates before mutating: walk() is peek-only
        # and head-first (service order), and removing one entry never
        # disturbs another's storage address.
        candidates = []
        for _raw, address in source_store.circuit.storage.walk():
            finish_tag, (flow_id, _payload) = (
                source_store.handle_payload(address)
            )
            if flow_id in moved_flows:
                candidates.append((address, finish_tag))
        free = self.capacity_per_shard - occupancy[plan.target]
        relocations: Dict[int, int] = {}
        migrated = 0
        skipped = 0
        for address, finish_tag in candidates:
            if migrated >= quota or free <= 0:
                skipped += 1
                continue
            if not target_store.accepts_without_clamp(finish_tag):
                skipped += 1
                continue
            exact_tag, entry = source_store.remove(address)
            occupancy[plan.source] -= 1
            try:
                new_local = target_store.push(exact_tag, entry[0], entry)
            except ProtocolError:
                # The target refused after all (belt-and-braces: the
                # accepts check should have caught it).  Re-push on the
                # source — its slot is guaranteed free, though the new
                # address may differ from the old one.
                back_local = source_store.push(exact_tag, entry[0], entry)
                occupancy[plan.source] += 1
                if back_local != address:
                    relocations[base_source + address] = (
                        base_source + back_local
                    )
                skipped += 1
                continue
            occupancy[plan.target] += 1
            free -= 1
            migrated += 1
            relocations[base_source + address] = base_target + new_local
        if migrated:
            self._sync_head(plan.source)
            self._sync_head(plan.target)
            self.manager.entries_migrated += migrated
        if self._tracer.enabled:
            self._tracer.event(
                "shard_migrate",
                component=FABRIC_COMPONENT,
                source=plan.source,
                target=plan.target,
                entries=migrated,
                skipped=skipped,
                flows=len(moved_flows),
            )
        return relocations

    def push(self, finish_tag: float, flow_id: int, payload=None) -> int:
        """Route and insert one tag; returns its fabric handle.

        ``payload`` defaults to ``flow_id`` (the bare
        :class:`~repro.sched.wfq.TagStore` contract); the scheduler
        facade passes the packet-buffer pointer instead.  The handle
        encodes the routed shard and the shard-local circuit handle
        (``shard * capacity_per_shard + address``), and stays valid for
        :meth:`remove` / :meth:`retag` until the entry is served.
        """
        if payload is None:
            payload = flow_id
        shard, spilled = self.manager.route(flow_id, self._occupancy)
        local = self.stores[shard].push(
            finish_tag, flow_id, (flow_id, payload)
        )
        self._occupancy[shard] += 1
        self._track_push(flow_id)
        self.pushes += 1
        self._sync_head(shard)
        if self._tracer.enabled:
            if spilled:
                self._tracer.event(
                    "spill",
                    component=FABRIC_COMPONENT,
                    flow=flow_id,
                    home=self.partitioner.shard_for(flow_id),
                    shard=shard,
                )
            self._tracer.event(
                "shard_enqueue",
                component=FABRIC_COMPONENT,
                shard=shard,
                flow=flow_id,
                count=1,
                spilled=1 if spilled else 0,
            )
        relocations = self._maybe_rebalance()
        handle = shard * self.capacity_per_shard + local
        # The rebalance may have migrated the entry just inserted; the
        # caller must receive the post-migration handle.
        return relocations.get(handle, handle)

    def push_batch(self, items: Iterable[Sequence]) -> None:
        """Route and insert a run of tags in one pass.

        Items are ``(finish_tag, flow_id)`` or
        ``(finish_tag, flow_id, payload)``.  Routing is a scalar pass
        with in-batch occupancy estimates (so spill decisions see the
        batch's own fill-up), then each touched shard takes its group as
        one :meth:`HardwareTagStore.push_batch`.
        """
        items = list(items)
        if not items:
            return
        occupancies = self.occupancies()
        groups: List[List[Tuple[float, int, Tuple[int, object]]]] = [
            [] for _ in range(self.shards)
        ]
        spilled_counts = [0] * self.shards
        traced = self._tracer.enabled
        for item in items:
            if len(item) == 3:
                finish_tag, flow_id, payload = item
            else:
                finish_tag, flow_id = item
                payload = flow_id
            shard, spilled = self.manager.route(flow_id, occupancies)
            occupancies[shard] += 1
            groups[shard].append((finish_tag, flow_id, (flow_id, payload)))
            self._track_push(flow_id)
            if spilled:
                spilled_counts[shard] += 1
                if traced:
                    self._tracer.event(
                        "spill",
                        component=FABRIC_COMPONENT,
                        flow=flow_id,
                        home=self.partitioner.shard_for(flow_id),
                        shard=shard,
                    )
        self.pushes += len(items)
        for shard, group in enumerate(groups):
            if not group:
                continue
            self.stores[shard].push_batch(group)
            self._occupancy[shard] += len(group)
            self._sync_head(shard)
            if traced:
                self._tracer.event(
                    "shard_enqueue",
                    component=FABRIC_COMPONENT,
                    shard=shard,
                    count=len(group),
                    spilled=spilled_counts[shard],
                )
        self._maybe_rebalance()

    # ------------------------------------------------------------------
    # dequeue path

    def peek_min_exact(self) -> Optional[Tuple[float, object]]:
        """The global head's exact ``(finish_tag, payload)``, if any."""
        winner = self.tournament.winner
        if winner is None:
            return None
        head = self.stores[winner].peek_min_exact()
        if head is None:  # pragma: no cover - tournament/head desync guard
            raise ProtocolError(f"tournament winner shard{winner} is empty")
        finish_tag, (_flow_id, payload) = head
        return finish_tag, payload

    def pop_min(self) -> Tuple[float, object]:
        """Serve the global minimum tag; ``(finish_tag, payload)`` back."""
        winner = self.tournament.winner
        if winner is None:
            raise ProtocolError("pop_min from an empty fabric")
        comparisons_before = self.tournament.comparisons
        finish_tag, (flow_id, payload) = self.stores[winner].pop_min()
        self._occupancy[winner] -= 1
        self._track_pop(flow_id)
        self.pops += 1
        self._sync_head(winner)
        if self._tracer.enabled:
            self._tracer.event(
                "tournament_select",
                component=FABRIC_COMPONENT,
                shard=winner,
                chunk=1,
                comparisons=self.tournament.comparisons - comparisons_before,
            )
        return finish_tag, payload

    def pop_batch(self, count: int) -> List[Tuple[float, object]]:
        """Serve the ``count`` globally smallest tags, in service order.

        Identical sequence to ``count`` :meth:`pop_min` calls.  A drain
        of :data:`MERGE_MIN_BATCH` entries or more is planned as a k-way
        merge of the shards' peeked streams (:meth:`_plan_merge`) and
        served with one :meth:`HardwareTagStore.pop_batch` per touched
        shard (:meth:`_pop_merged`).  A smaller drain, or one the merge
        cannot order, drains the winner shard in runs bounded by the
        **runner-up fence**: while its new head still precedes the
        second-best shard's head (ties included only when the winner has
        the lower index — the tournament's tie rule), no other shard can
        hold the global minimum, so a run costs one tournament refresh.
        """
        if count < 0:
            raise ConfigurationError("pop_batch count must be non-negative")
        held = len(self)
        if count > held:
            raise ProtocolError(
                f"pop_batch({count}) from a fabric holding {held}"
            )
        if count >= MERGE_MIN_BATCH:
            order = self._plan_merge(count)
            if order is not None:
                return self._pop_merged(order)
        out: List[Tuple[float, object]] = []
        remaining = count
        while remaining > 0:
            winner = self.tournament.winner
            if winner is None:  # pragma: no cover - guarded by held check
                raise ProtocolError("fabric drained mid pop_batch")
            comparisons_before = self.tournament.comparisons
            fence_shard = self.tournament.runner_up()
            fence_tag = (
                None
                if fence_shard is None
                else self.tournament.leaf_tag(fence_shard)
            )
            store = self.stores[winner]
            chunk = 0
            while remaining > 0:
                finish_tag, (flow_id, payload) = store.pop_min()
                self._track_pop(flow_id)
                out.append((finish_tag, payload))
                remaining -= 1
                chunk += 1
                head = store.circuit.peek_min()
                if head is None:
                    break
                if fence_tag is not None:
                    if head == fence_tag:
                        if winner > fence_shard:
                            break
                    elif not self.tournament.precedes(head, fence_tag):
                        break
            self._occupancy[winner] -= chunk
            self.pops += chunk
            self._sync_head(winner)
            if self._tracer.enabled:
                self._tracer.event(
                    "tournament_select",
                    component=FABRIC_COMPONENT,
                    shard=winner,
                    chunk=chunk,
                    comparisons=(
                        self.tournament.comparisons - comparisons_before
                    ),
                )
        return out

    def _plan_merge(self, count: int) -> Optional[List[int]]:
        """The shard of each of the next ``count`` entries, in order.

        Every non-empty shard lists the raw tags of its next
        ``min(count, occupancy)`` entries
        (:meth:`~repro.core.engine.DataPlaneEngine.peek_tags`).  The
        sort key of a tag is its wrap-aware offset from the winner's
        tag, ties to the lower shard index: ``offset * shards + shard``.
        While every listed tag lies less than half the tag space past
        the winner's (the window the span guards keep) and each shard's
        offsets are non-decreasing, that key orders heads exactly as
        the tournament does, so the sorted keys are the sequence
        repeated :meth:`pop_min` serves.  Otherwise ``None``: the fence
        loop, which compares heads as the tournament does, serves.
        """
        shards = self.shards
        occupancy = self._occupancy
        live = [shard for shard in range(shards) if occupancy[shard]]
        if len(live) == 1:
            return live * count
        space = self.tournament.space
        winner_tag = self.tournament.winner_tag()
        keys: List[int] = []
        for shard in live:
            tags = self.stores[shard].circuit.peek_tags(
                min(count, occupancy[shard])
            )
            shard_keys = [
                ((tag - winner_tag) % space) * shards + shard for tag in tags
            ]
            if not all(map(le, shard_keys, shard_keys[1:])):
                return None
            keys += shard_keys
        if max(keys) >= (space // 2) * shards:
            return None
        keys.sort()
        return [key % shards for key in keys[:count]]

    def _pop_merged(self, order: List[int]) -> List[Tuple[float, object]]:
        """Serve a merge plan: one store ``pop_batch`` per touched shard.

        ``order`` names the shard of each served entry, in service
        order.  Occupancy, per-flow live counts, ``pops`` and the touched
        shards' tournament leaves are updated once per batch; the
        tournament replays one leaf per touched shard (DESIGN.md §9).
        Traced, the plan goes out first as one ``drain_plan`` event whose
        ``runs`` (``[[shard, count], ...]``) let the order monitor check
        the per-shard dequeue events in service order.
        """
        taken = Counter(order)
        if self._tracer.enabled:
            self._tracer.event(
                "drain_plan",
                component=FABRIC_COMPONENT,
                count=len(order),
                runs=[
                    [shard, sum(1 for _ in run)]
                    for shard, run in groupby(order)
                ],
            )
        streams: Dict[int, Iterator] = {}
        for shard, count in taken.items():
            streams[shard] = iter(self.stores[shard].pop_batch(count))
            self._occupancy[shard] -= count
        # (finish_tag, (flow_id, payload)) per entry, in service order
        served = list(map(next, map(streams.__getitem__, order)))
        flow_live = self._flow_live
        per_flow = Counter([flow_id for _, (flow_id, _) in served])
        for flow_id, count in per_flow.items():
            live = flow_live.get(flow_id, 0) - count
            if live > 0:
                flow_live[flow_id] = live
            else:
                flow_live.pop(flow_id, None)
        self.pops += len(order)
        for shard in taken:
            self._sync_head(shard)
        return [(finish_tag, payload) for finish_tag, (_, payload) in served]

    # ------------------------------------------------------------------
    # dynamic updates (cancel / repin without drain-and-refill)

    def handle_location(self, handle: int) -> Tuple[int, int]:
        """Decode a fabric handle into ``(shard, local handle)``."""
        if not 0 <= handle < self.shards * self.capacity_per_shard:
            raise ProtocolError(
                f"fabric handle {handle} outside the "
                f"{self.shards}×{self.capacity_per_shard} handle space"
            )
        return divmod(handle, self.capacity_per_shard)

    def handle_payload(self, handle: int) -> Tuple[float, object]:
        """A live handle's exact ``(finish_tag, payload)`` (no access
        accounting; a stale handle raises
        :class:`~repro.hwsim.errors.ProtocolError`)."""
        shard, local = self.handle_location(handle)
        finish_tag, (_flow_id, payload) = self.stores[shard].handle_payload(
            local
        )
        return finish_tag, payload

    def owner_head(self, handle: int) -> Optional[Tuple[float, object]]:
        """The exact ``(finish_tag, payload)`` at the head of the shard
        holding ``handle`` — not the global head: a push is clamped to
        its own shard's minimum."""
        shard, _ = self.handle_location(handle)
        head = self.stores[shard].peek_min_exact()
        if head is None:
            return None
        finish_tag, (_flow_id, payload) = head
        return finish_tag, payload

    @property
    def clamped_inserts(self) -> int:
        """Pushes clamped to a shard minimum, over all shards."""
        return sum(store.clamped_inserts for store in self.stores)

    def remove(self, handle: int) -> Tuple[float, object]:
        """Cancel a live entry by its :meth:`push` handle, in place.

        Only the owning shard is touched — no drain-and-refill, no
        tournament rebuild beyond that shard's head refresh.  Returns
        the cancelled entry's exact ``(finish_tag, payload)``.
        """
        shard, local = self.handle_location(handle)
        finish_tag, (flow_id, payload) = self.stores[shard].remove(local)
        self._occupancy[shard] -= 1
        self._track_pop(flow_id)
        self.cancels += 1
        self._sync_head(shard)
        if self._tracer.enabled:
            self._tracer.event(
                "shard_cancel",
                component=FABRIC_COMPONENT,
                shard=shard,
                flow=flow_id,
            )
        self._maybe_rebalance()
        return finish_tag, payload

    def retag(self, handle: int, new_finish_tag: float) -> int:
        """Repin a live entry to a new finishing tag; new handle back.

        The entry stays on its shard (flow-to-shard pinning is what
        keeps per-flow service order intact), moving only inside that
        shard's circuit under the full wrap discipline.  The other
        shards keep serving throughout — repin never drains anything.
        """
        shard, local = self.handle_location(handle)
        store = self.stores[shard]
        try:
            new_local = store.retag(local, new_finish_tag)
        except BaseException:
            # A retag is occupancy-neutral, but one that fails after its
            # removal step leaves the entry gone: recount that shard.
            self._occupancy[shard] = len(store)
            raise
        self.repins += 1
        self._sync_head(shard)
        if self._tracer.enabled:
            self._tracer.event(
                "shard_repin",
                component=FABRIC_COMPONENT,
                shard=shard,
            )
        relocations = self._maybe_rebalance()
        new_handle = shard * self.capacity_per_shard + new_local
        return relocations.get(new_handle, new_handle)

    # ------------------------------------------------------------------
    # telemetry

    @property
    def tracer(self):
        """The fabric-level tracer (:data:`NULL_TRACER` when off)."""
        return self._tracer

    def attach_tracer(self, tracer) -> None:
        """Trace the fabric: shard circuits get per-component views."""
        self._tracer = tracer
        for shard, store in enumerate(self.stores):
            store.attach_tracer(ComponentTracer(tracer, shard_component(shard)))

    def detach_tracer(self) -> None:
        """Stop tracing fabric and shards."""
        for store in self.stores:
            store.detach_tracer()
        self._tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # checkpoint / restore

    def to_state(self) -> dict:
        """Exact serializable snapshot of the whole fabric.

        Includes every shard's full circuit snapshot plus the routing
        state (partitioner overrides, manager counters, per-flow live
        counts).  The tournament is *not* serialized — it is a pure
        function of the shard head registers and is rebuilt on load.
        """
        return {
            "kind": "schedule_fabric",
            "shards": self.shards,
            "granularity": self.granularity,
            "capacity_per_shard": self.capacity_per_shard,
            "mode": self.mode,
            "levels": self.fmt.levels,
            "literal_bits": self.fmt.literal_bits,
            "pushes": self.pushes,
            "pops": self.pops,
            "cancels": self.cancels,
            "repins": self.repins,
            "flow_live": sorted(self._flow_live.items()),
            "stores": [store.to_state() for store in self.stores],
            "partitioner": self.partitioner.to_state(),
            "manager": self.manager.to_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "schedule_fabric":
            raise ConfigurationError(
                f"not a fabric snapshot: kind={state.get('kind')!r}"
            )
        if state["shards"] != self.shards:
            raise ConfigurationError(
                f"snapshot has {state['shards']} shards, fabric has "
                f"{self.shards}"
            )
        for store, store_state in zip(self.stores, state["stores"]):
            store.load_state(store_state)
        self._occupancy = [len(store) for store in self.stores]
        self.partitioner.load_state(state["partitioner"])
        self.manager.load_state(state["manager"])
        self.pushes = state["pushes"]
        self.pops = state["pops"]
        # Absent in pre-dynamic-update snapshots.
        self.cancels = state.get("cancels", 0)
        self.repins = state.get("repins", 0)
        self._flow_live = {
            int(flow_id): int(live) for flow_id, live in state["flow_live"]
        }
        self.tournament.rebuild(
            [store.circuit.peek_min() for store in self.stores]
        )

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        mode: Optional[str] = None,
        policy: Optional[FabricPolicy] = None,
        tracer=None,
    ) -> "ScheduleFabric":
        """Reconstruct a fabric from a :meth:`to_state` snapshot.

        ``mode`` overrides the snapshot's engine (snapshots are
        engine-neutral); legacy snapshots without a ``mode`` key fall
        back to their ``turbo`` flag (:func:`read_legacy_keys`).
        """
        partitioner_state = state["partitioner"]
        fabric = cls(
            shards=state["shards"],
            fmt=WordFormat(
                levels=state["levels"], literal_bits=state["literal_bits"]
            ),
            granularity=state["granularity"],
            capacity_per_shard=state["capacity_per_shard"],
            mode=mode or read_legacy_keys(state)[0],
            partition_policy=partitioner_state["policy"],
            flow_space=partitioner_state["flow_space"],
            policy=policy,
        )
        fabric.load_state(state)
        if tracer is not None:
            fabric.attach_tracer(tracer)
        return fabric
