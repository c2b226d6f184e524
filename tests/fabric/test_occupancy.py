"""The fabric's incremental per-shard occupancy count stays exact."""

import json

from hypothesis import given, settings, strategies as st

from repro.fabric.fabric import ScheduleFabric
from repro.fabric.manager import FabricPolicy

#: spills early and rebalances (with migration) after almost every op
MIGRATING = FabricPolicy(
    spill_threshold=0.25,
    rebalance_ratio=1.5,
    rebalance_min_backlog=4,
    rebalance_cooldown_ops=0,
    max_moves_per_rebalance=2,
)

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["push", "push_batch", "pop_min", "pop_batch", "remove", "retag"]
        ),
        st.integers(0, 7),  # flow id
        st.integers(0, 40),  # tag offset / batch size / victim index
    ),
    max_size=60,
)


def assert_counts_exact(fabric):
    actual = [len(store) for store in fabric.stores]
    assert fabric.occupancies() == actual
    assert len(fabric) == sum(actual)


class Driver:
    """Applies ops to a fabric while tracking live entries by handle."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.handles = {}  # payload id -> live fabric handle
        self.next_id = 0
        self.clock = 0.0
        fabric.add_relocation_listener(self._relocate)

    def _relocate(self, moves):
        for payload, handle in self.handles.items():
            self.handles[payload] = moves.get(handle, handle)

    def _new_payload(self):
        self.next_id += 1
        return self.next_id

    def _served(self, entries):
        for _tag, payload in entries:
            self.handles.pop(payload, None)

    def apply(self, kind, flow, arg):
        fabric = self.fabric
        self.clock += 1.0
        tag = self.clock + arg
        if kind == "push":
            payload = self._new_payload()
            self.handles[payload] = fabric.push(tag, flow, payload)
        elif kind == "push_batch":
            # Batched pushes hand back no handles; their entries can be
            # served but not cancelled.
            fabric.push_batch(
                [
                    (tag + i, (flow + i) % 8, self._new_payload())
                    for i in range(arg % 6)
                ]
            )
        elif kind == "pop_min" and len(fabric):
            self._served([fabric.pop_min()])
        elif kind == "pop_batch":
            self._served(fabric.pop_batch(min(arg % 9, len(fabric))))
        elif kind in ("remove", "retag") and self.handles:
            payloads = sorted(self.handles)
            payload = payloads[arg % len(payloads)]
            handle = self.handles[payload]
            if kind == "remove":
                assert fabric.remove(handle)[1] == payload
                del self.handles[payload]
            else:
                self.handles[payload] = fabric.retag(handle, tag)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_occupancy_count_matches_recount(ops):
    fabric = ScheduleFabric(
        shards=3, capacity_per_shard=64, mode="turbo", policy=MIGRATING
    )
    driver = Driver(fabric)
    for kind, flow, arg in ops:
        driver.apply(kind, flow, arg)
        assert_counts_exact(fabric)
    state = json.loads(json.dumps(fabric.to_state()))
    restored = ScheduleFabric.from_state(state, policy=MIGRATING)
    assert_counts_exact(restored)
    assert restored.occupancies() == fabric.occupancies()
    # load_state over a fabric holding other entries rebuilds the count.
    other = ScheduleFabric(
        shards=3, capacity_per_shard=64, mode="turbo", policy=MIGRATING
    )
    other.push(1.0, 0)
    other.load_state(state)
    assert other.occupancies() == fabric.occupancies()
    assert_counts_exact(other)


def test_migrating_policy_really_migrates():
    """The property above exercises the migration paths."""
    fabric = ScheduleFabric(
        shards=3, capacity_per_shard=64, mode="turbo", policy=MIGRATING
    )
    driver = Driver(fabric)
    for step in range(40):
        driver.apply("push", 1, step % 5)
        assert_counts_exact(fabric)
    assert fabric.manager.entries_migrated > 0
    assert fabric.manager.spill_count > 0
