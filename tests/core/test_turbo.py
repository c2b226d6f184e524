"""Gate-vs-turbo equivalence for the access-fused turbo engine.

The turbo engine (:class:`FusedSortRetrieveCircuit`) runs the circuit's
one set of operation bodies over the fused structure flavours, and
promises *exact* parity with the gate-accurate reference: identical
served order, identical cycle and per-structure access accounting,
identical structure state — only the Python work to get there is
fused.  These tests drive both engines with the same
WFQ-legal operation streams (a ``heapq`` shadow keeps every generated
tag ahead of the live minimum) and compare everything observable.
"""

import heapq
import random

import pytest

from repro.core.engine import circuit_from_state, make_circuit
from repro.core.sort_retrieve import FusedSortRetrieveCircuit, ServedTag
from repro.core.tree import FusedMultiBitTree, MultiBitTree
from repro.core.words import PAPER_FORMAT
from repro.obs.tracer import Tracer


def _registry_snapshot(circuit):
    """Per-structure (reads, writes) — the exact-parity accounting unit."""
    return {
        name: (stats.reads, stats.writes)
        for name, stats in circuit.registry.snapshot_all().items()
    }


def make_wfq_ops(count, seed, *, drift=48):
    """A WFQ-legal op stream for the *non-modular* circuit.

    A ``heapq`` shadow tracks the live minimum so every generated tag is
    clamped to ``max(candidate, current_min)`` — the monotonicity rule
    the circuit enforces — and capped at the word format's maximum.
    """
    rng = random.Random(seed)
    top = PAPER_FORMAT.max_value
    shadow = []
    ops = []
    vt = 0
    while len(ops) < count:
        roll = rng.random()
        if not shadow or (roll < 0.55 and vt < top):
            vt = min(top, vt + rng.randint(0, 6))
            floor = shadow[0] if shadow else 0
            tag = min(top, max(vt + rng.randint(0, drift), floor))
            ops.append(("insert", tag))
            heapq.heappush(shadow, tag)
        elif roll < 0.90 or len(shadow) < 2:
            ops.append(("dequeue",))
            heapq.heappop(shadow)
        else:
            floor = shadow[0]
            tag = min(top, max(floor + rng.randint(0, drift), floor))
            ops.append(("replace", tag))
            heapq.heappop(shadow)
            heapq.heappush(shadow, tag)
    return ops


def _drive(circuit, ops):
    served = []
    for op in ops:
        if op[0] == "insert":
            circuit.insert(op[1], payload=("p", op[1]))
        elif op[0] == "dequeue":
            served.append(circuit.dequeue_min())
        else:
            head, _ = circuit.insert_and_dequeue(op[1], payload=("r", op[1]))
            served.append(head)
    return served


def _fresh(mode="gate", **kwargs):
    return make_circuit(PAPER_FORMAT, mode=mode, capacity=1024, **kwargs)


@pytest.mark.parametrize("seed", [1, 17, 20060101])
def test_turbo_parity_full_observables(seed):
    """Served order, cycles, and per-structure accounting all identical."""
    ops = make_wfq_ops(1500, seed)
    gate, turbo = _fresh(), _fresh("turbo")
    gate_served = _drive(gate, ops)
    turbo_served = _drive(turbo, ops)
    assert gate_served == turbo_served  # tags, payloads, and addresses
    assert turbo.cycles == gate.cycles
    assert turbo.operations == gate.operations
    assert _registry_snapshot(turbo) == _registry_snapshot(gate)
    assert turbo.peek_min() == gate.peek_min()
    assert turbo.count == gate.count
    # The whole structure state matches, not just the outputs: the
    # snapshot names no engine.
    assert turbo.to_state() == gate.to_state()
    turbo.check_invariants()


def test_turbo_drains_identically():
    ops = make_wfq_ops(800, 5)
    gate, turbo = _fresh(), _fresh("turbo")
    _drive(gate, ops)
    _drive(turbo, ops)
    while not gate.is_empty:
        assert turbo.dequeue_min() == gate.dequeue_min()
    assert turbo.is_empty
    assert _registry_snapshot(turbo) == _registry_snapshot(gate)


def test_turbo_toggle_mid_stream_preserves_parity():
    """Switching engines mid-stream (through a snapshot, the one way a
    host changes engine) continues the gate stream exactly."""
    ops = make_wfq_ops(1000, 23)
    reference = _fresh()
    ref_served = _drive(reference, ops)
    toggled = _fresh()
    served = _drive(toggled, ops[:400])
    toggled = circuit_from_state(toggled.to_state(), mode="turbo")
    assert toggled.mode == "turbo"
    served += _drive(toggled, ops[400:700])
    toggled = circuit_from_state(toggled.to_state(), mode="gate")
    assert toggled.mode == "gate"
    served += _drive(toggled, ops[700:])
    assert served == ref_served
    assert toggled.cycles == reference.cycles
    assert _registry_snapshot(toggled) == _registry_snapshot(reference)


def test_turbo_engine_choice_survives_checkpoint_crossing():
    """A gate checkpoint restores into a turbo host and vice versa."""
    ops = make_wfq_ops(900, 31)
    gate, turbo = _fresh(), _fresh("turbo")
    _drive(gate, ops[:500])
    _drive(turbo, ops[:500])
    # Cross-load: each engine resumes from the *other* engine's snapshot.
    crossed_turbo = _fresh("turbo")
    crossed_turbo.load_state(gate.to_state())
    crossed_gate = _fresh()
    crossed_gate.load_state(turbo.to_state())
    tail = ops[500:]
    want = _drive(gate, tail)
    assert _drive(crossed_turbo, tail) == want
    assert _drive(crossed_gate, tail) == want
    assert crossed_turbo.cycles == gate.cycles
    assert _registry_snapshot(crossed_turbo) == _registry_snapshot(gate)
    # Snapshots are engine-neutral: the restoring host picks the engine.
    assert FusedSortRetrieveCircuit.from_state(gate.to_state()).mode == "turbo"
    assert circuit_from_state(turbo.to_state()).mode == "gate"
    assert circuit_from_state(gate.to_state(), mode="turbo").mode == "turbo"


def test_traced_turbo_matches_traced_gate_event_for_event():
    ops = make_wfq_ops(600, 41)
    gate_tracer, turbo_tracer = Tracer(), Tracer()
    gate = _fresh(tracer=gate_tracer)
    turbo = _fresh("turbo", tracer=turbo_tracer)
    assert _drive(turbo, ops) == _drive(gate, ops)
    gate_events = gate_tracer.events()
    turbo_events = turbo_tracer.events()
    assert len(turbo_events) == len(gate_events)
    for mine, theirs in zip(turbo_events, gate_events):
        assert mine.kind == theirs.kind
        assert mine.name == theirs.name
        assert mine.deltas == theirs.deltas
        assert mine.attrs == theirs.attrs
    assert _registry_snapshot(turbo) == _registry_snapshot(gate)


def test_served_tag_is_immutable_and_hashable():
    tag = ServedTag(tag=7, payload="x", address=3)
    with pytest.raises(AttributeError):
        tag.tag = 8
    assert tag == ServedTag(tag=7, payload="x", address=3)
    assert hash(tag) == hash(ServedTag(tag=7, payload="x", address=3))
    assert tag != ServedTag(tag=7, payload="x", address=4)


# ----------------------------------------------------------------------
# tree-level kernels


def test_fused_closest_matches_reference_search_and_charges_identically():
    rng = random.Random(99)
    values = sorted(rng.sample(range(PAPER_FORMAT.capacity), 200))
    lean, probed = (
        FusedMultiBitTree(PAPER_FORMAT),
        MultiBitTree(PAPER_FORMAT),
    )
    for value in values:
        lean.insert_marker(value)
        probed.insert_marker(value)
    for key in range(0, PAPER_FORMAT.capacity, 7):
        lean_reads = [lean.level_stats(i).reads for i in range(3)]
        probed_reads = [probed.level_stats(i).reads for i in range(3)]
        outcome = probed.search(key)
        closest = lean.closest_at_most(key)
        assert closest == outcome.result
        assert lean.last_outcome is None  # the lean path allocates nothing
        # Identical per-level read accounting on both variants.
        assert [
            lean.level_stats(i).reads - lean_reads[i] for i in range(3)
        ] == [
            probed.level_stats(i).reads - probed_reads[i] for i in range(3)
        ]


def test_fast_marker_insert_matches_gate_insert():
    gate, fast = MultiBitTree(PAPER_FORMAT), FusedMultiBitTree(PAPER_FORMAT)
    rng = random.Random(3)
    for value in rng.sample(range(PAPER_FORMAT.capacity), 300):
        assert fast.insert_marker(value) == gate.insert_marker(value)
    assert fast.to_state() == gate.to_state()
    for key in rng.sample(range(PAPER_FORMAT.capacity), 64):
        want = gate.search(key).result
        assert fast.search(key).result == want
        assert fast.closest_at_most(key) == want


def _spy_flushes(tree):
    """Record each ``clear_all``'s per-level (reads, writes) deltas."""
    deltas = []
    clear_all = tree.clear_all
    depth = tree.fmt.levels

    def spy():
        before = [tree.level_stats(i).to_dict() for i in range(depth)]
        clear_all()
        after = [tree.level_stats(i).to_dict() for i in range(depth)]
        deltas.append(
            [
                (a["reads"] - b["reads"], a["writes"] - b["writes"])
                for b, a in zip(before, after)
            ]
        )

    tree.clear_all = spy
    return deltas


def test_flush_parity_over_many_busy_periods():
    """Drain-to-empty busy periods: every re-entry into initialization
    mode flushes the stale markers with exactly one root write, and the
    two engines serve and charge identically throughout."""
    rng = random.Random(2006)
    top = PAPER_FORMAT.max_value
    periods = []
    for _ in range(150):
        base = rng.randrange(0, top - 600)
        count = rng.randint(1, 20)
        tags = sorted(base + rng.randrange(0, 600) for _ in range(count))
        ops = []
        live = 0
        for tag in tags:
            ops.append(("insert", tag))
            live += 1
            if live > 1 and rng.random() < 0.3:
                ops.append(("dequeue",))
                live -= 1
        ops.extend([("dequeue",)] * live)
        periods.append(ops)
    gate, turbo = _fresh(), _fresh("turbo")
    flushes = {
        "gate": _spy_flushes(gate.tree),
        "turbo": _spy_flushes(turbo.tree),
    }
    for ops in periods:
        assert _drive(turbo, ops) == _drive(gate, ops)
        assert gate.is_empty and turbo.is_empty
        assert _registry_snapshot(turbo) == _registry_snapshot(gate)
    # Every busy period after the first opens on a tree of stale markers.
    assert len(flushes["gate"]) == len(flushes["turbo"]) == len(periods) - 1
    root_write_only = [(0, 1)] + [(0, 0)] * (PAPER_FORMAT.levels - 1)
    for deltas in flushes.values():
        assert all(delta == root_write_only for delta in deltas)
    assert turbo.cycles == gate.cycles
    for level, memory in enumerate(turbo.tree._levels):
        assert turbo.tree._level_cells[level][0] is memory._cells
