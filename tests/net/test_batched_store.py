"""Batched wrap-managed store: parity with the per-op tag store.

The ISSUE-level acceptance property: on randomized WFQ traces — bursty
pushes with drifting tags, wrap-arounds, drains to empty, occasional
regressions — the coalesced :meth:`HardwareTagStore.push_batch` /
:meth:`pop_batch` discipline serves the *identical* sequence as per-op
:meth:`push` / :meth:`pop_min`, with identical wrap bookkeeping
(clamps, cleared sections, purged markers) and cycle accounting.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.engine import numpy_or_none
from repro.core.words import PAPER_FORMAT
from repro.net.hardware_store import HardwareTagStore

#: every engine this environment can build (vector needs numpy)
ENGINES = ("gate", "turbo") + (
    ("vector",) if numpy_or_none() is not None else ()
)


def coalesce(ops):
    """Group an op stream into alternating push/pop runs."""
    groups = []
    for op in ops:
        if groups and groups[-1][0][0] == op[0]:
            groups[-1].append(op)
        else:
            groups.append([op])
    return groups


def drive_per_op(store, ops):
    served = []
    for op in ops:
        if op[0] == "push":
            store.push(op[1], op[2])
        else:
            served.append(store.pop_min())
    return served


def drive_batched(store, ops):
    served = []
    for group in coalesce(ops):
        if group[0][0] == "push":
            store.push_batch([(op[1], op[2]) for op in group])
        else:
            served.extend(store.pop_batch(len(group)))
    return served


def wfq_like_ops(seed, count=500):
    """Bursty pushes with drifting finish tags, bursty pops, occasional
    drains; tags wrap the 12-bit space several times at granularity 1."""
    rng = random.Random(seed)
    ops, live, vt = [], 0, 0.0
    while len(ops) < count:
        for _ in range(rng.randint(1, 12)):
            if len(ops) >= count:
                break
            vt += rng.random() * 30
            finish = max(0.0, vt + rng.random() * 200 - 20)
            ops.append(("push", finish, len(ops)))
            live += 1
        pops = rng.randint(1, 12)
        if rng.random() < 0.05:
            pops = live  # full drain: epoch reset path
        for _ in range(min(pops, live)):
            if len(ops) >= count:
                break
            ops.append(("pop",))
            live -= 1
    return ops


#: the seeds below 40 whose 2,000-op :func:`wfq_like_ops` stream laps
#: the tag space inside one busy period, so the wrap manager clears
#: sections that still hold stale markers (no 500-op stream does, nor do
#: the other seeds' 2,000-op streams)
PURGING_SEEDS = (3, 4, 11, 13, 18, 22, 29, 30, 31, 33, 34, 35)


class TestBatchedParity:
    def test_seeded_traces_full_state_parity(self):
        for seed in PURGING_SEEDS:
            ops = wfq_like_ops(seed, count=2000)
            reference = HardwareTagStore(granularity=1.0)
            served_ref = drive_per_op(reference, ops)
            assert reference.markers_purged > 0, seed
            for mode in ENGINES:
                store = HardwareTagStore(granularity=1.0, mode=mode)
                served = drive_batched(store, ops)
                assert served == served_ref
                assert store.clamped_inserts == reference.clamped_inserts
                assert store.clamp_error_quanta == reference.clamp_error_quanta
                assert store.sections_cleared == reference.sections_cleared
                assert store.markers_purged == reference.markers_purged
                assert store.cycles == reference.cycles
                assert store.operations == reference.operations
                assert len(store) == len(reference)
                store.circuit.check_invariants()

    def test_push_batch_is_atomic_on_span_violation(self):
        """A span violation rejects the whole batch before any insert —
        documented divergence from the per-op loop, which would stop
        mid-run with a partial prefix inserted."""
        import pytest

        from repro.hwsim.errors import ProtocolError

        store = HardwareTagStore(granularity=1.0, capacity=64)
        store.push(10.0, 0)
        half_span = PAPER_FORMAT.capacity // 2
        with pytest.raises(ProtocolError, match="span"):
            store.push_batch([(20.0, 1), (10.0 + half_span + 5, 2)])
        assert len(store) == 1
        assert store.pop_min() == (10.0, 0)

    def test_empty_batches(self):
        store = HardwareTagStore(granularity=1.0)
        store.push_batch([])
        assert len(store) == 0
        assert store.pop_batch(0) == []


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.one_of(
                st.floats(min_value=0.0, max_value=60.0),
                st.floats(min_value=-800.0, max_value=0.0),
            ),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_identical_service_order(steps):
    """Hypothesis-shrunk parity: every (drift, pushes, pops) trace —
    including backward drifts that trigger clamping — serves the same
    sequence batched as per-op, on both verification modes."""
    ops = []
    vt, live = 0.0, 0
    for drift, pushes, pops in steps:
        vt = max(0.0, vt + drift)
        for index in range(pushes):
            ops.append(("push", vt + 17.0 * index, len(ops)))
            live += 1
        for _ in range(min(pops, live)):
            ops.append(("pop",))
            live -= 1
    if not ops:
        return
    reference = HardwareTagStore(granularity=1.0, capacity=1024)
    served_ref = drive_per_op(reference, ops)
    for mode in ("gate", "turbo"):
        store = HardwareTagStore(granularity=1.0, capacity=1024, mode=mode)
        assert drive_batched(store, ops) == served_ref
        assert store.clamped_inserts == reference.clamped_inserts
        store.circuit.check_invariants()
