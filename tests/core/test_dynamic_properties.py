"""Property-based tests for dynamic updates (hypothesis).

Random interleavings of insert / dequeue / remove / retag are executed
on three engines — gate-accurate per-op, turbo per-op, and the batched
path (coalesced ``insert_batch``/``dequeue_batch`` runs with per-op
dynamic updates, the same shape :meth:`run_mixed` produces) — and on a
plain reference model (a list with FCFS tie-breaking).  Every engine
must serve the same (tag, payload) sequence; gate and turbo must also
agree on exact cycle counts and per-registry access totals, because the
turbo engine fuses accesses without changing what the paper's circuit
would have charged.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import make_circuit
from repro.core.words import WordFormat

SMALL_FORMAT = WordFormat(levels=2, literal_bits=3)  # 6-bit, 64 values

TAGS = st.integers(min_value=0, max_value=SMALL_FORMAT.max_value)
INDICES = st.integers(min_value=0, max_value=2**20)


@st.composite
def dynamic_streams(draw):
    """Random insert/dequeue/remove/retag interleavings.

    remove/retag carry a raw index that is resolved against the live
    entry list (``index % len(live)``) at execution time, so the same
    abstract stream names the same entries on every engine.
    """
    kinds = st.sampled_from(
        ("insert", "insert", "insert", "dequeue", "remove", "retag")
    )
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=70))):
        kind = draw(kinds)
        if kind == "insert":
            ops.append(("insert", draw(TAGS)))
        elif kind == "dequeue":
            ops.append(("dequeue",))
        elif kind == "remove":
            ops.append(("remove", draw(INDICES)))
        else:
            ops.append(("retag", draw(INDICES), draw(TAGS)))
    return ops


def reference_run(ops):
    """Execute the stream on a plain list model with FCFS ties.

    Entries are ``[tag, arrival, payload]``; payload is the insert
    sequence number, which uniquely identifies each logical entry.
    """
    live = []
    served = []
    seq = 0
    arrival = 0
    for op in ops:
        if op[0] == "insert":
            live.append([op[1], arrival, seq])
            seq += 1
            arrival += 1
        elif op[0] == "dequeue":
            if not live:
                continue
            entry = min(live, key=lambda e: (e[0], e[1]))
            live.remove(entry)
            served.append((entry[0], entry[2]))
        elif op[0] == "remove":
            if not live:
                continue
            live.pop(op[1] % len(live))
        else:  # retag: remove + reinsert => fresh arrival, same payload
            if not live:
                continue
            index = op[1] % len(live)
            live[index] = [op[2], arrival, live[index][2]]
            arrival += 1
    rest = sorted(live, key=lambda e: (e[0], e[1]))
    return served, [(entry[0], entry[2]) for entry in rest]


def engine_run(ops, *, mode="gate", batched=False):
    """Execute the stream on a real circuit; return parity evidence."""
    circuit = make_circuit(
        SMALL_FORMAT, mode=mode, capacity=128, eager_marker_removal=True
    )
    live = []  # handles in insertion order (retag replaces in place)
    served = []
    seq = 0
    pending_inserts = []
    pending_dequeues = 0

    def flush():
        nonlocal pending_inserts, pending_dequeues
        if pending_inserts:
            live.extend(
                circuit.insert_batch(
                    [tag for tag, _ in pending_inserts],
                    [payload for _, payload in pending_inserts],
                )
            )
            pending_inserts = []
        if pending_dequeues:
            for tag in circuit.dequeue_batch(pending_dequeues):
                served.append((tag.tag, tag.payload))
                live.remove(tag.address)
            pending_dequeues = 0

    def available():
        return len(live) + len(pending_inserts) - pending_dequeues

    for op in ops:
        if op[0] == "insert":
            if batched:
                if pending_dequeues:
                    flush()
                pending_inserts.append((op[1], seq))
            else:
                live.append(circuit.insert(op[1], seq))
            seq += 1
        elif op[0] == "dequeue":
            if available() == 0:
                continue
            if batched:
                if pending_inserts:
                    flush()
                pending_dequeues += 1
            else:
                tag = circuit.dequeue_min()
                served.append((tag.tag, tag.payload))
                live.remove(tag.address)
        elif op[0] == "remove":
            flush()
            if not live:
                continue
            circuit.remove(live.pop(op[1] % len(live)))
        else:  # retag
            flush()
            if not live:
                continue
            index = op[1] % len(live)
            live[index] = circuit.retag(live[index], op[2])
    flush()
    circuit.check_invariants()
    assert circuit.live_handles == circuit.count == len(live)
    rest = [
        (tag.tag, tag.payload)
        for tag in (circuit.dequeue_min() for _ in range(circuit.count))
    ]
    total = circuit.registry.total()
    return {
        "served": served,
        "rest": rest,
        "cycles": circuit.cycles,
        "operations": circuit.operations,
        "accesses": (total.reads, total.writes),
    }


@settings(max_examples=150, deadline=None)
@given(ops=dynamic_streams())
def test_gate_engine_matches_reference_model(ops):
    expected_served, expected_rest = reference_run(ops)
    gate = engine_run(ops)
    assert gate["served"] == expected_served
    assert gate["rest"] == expected_rest


@settings(max_examples=150, deadline=None)
@given(ops=dynamic_streams())
def test_turbo_engine_exact_parity_with_gate(ops):
    """Turbo fuses accesses but must not change *what* is charged:
    identical service order, cycle count, and read/write totals."""
    gate = engine_run(ops)
    turbo = engine_run(ops, mode="turbo")
    assert turbo["served"] == gate["served"]
    assert turbo["rest"] == gate["rest"]
    assert turbo["cycles"] == gate["cycles"]
    assert turbo["operations"] == gate["operations"]
    assert turbo["accesses"] == gate["accesses"]


@settings(max_examples=150, deadline=None)
@given(ops=dynamic_streams())
def test_batched_engine_serves_identically(ops):
    """Coalescing insert/dequeue runs into batches (with dynamic
    updates flushing in stream order) must preserve service order —
    batches amortize overhead, they never reorder."""
    gate = engine_run(ops)
    batched = engine_run(ops, batched=True)
    assert batched["served"] == gate["served"]
    assert batched["rest"] == gate["rest"]


@settings(max_examples=100, deadline=None)
@given(ops=dynamic_streams())
def test_handle_accounting_is_exact_under_churn(ops):
    """Every inserted entry is accounted for exactly once: served,
    removed, or still live at the end."""
    circuit = make_circuit(
        SMALL_FORMAT, capacity=128, eager_marker_removal=True
    )
    live = []
    inserted = served = removed = 0
    for op in ops:
        if op[0] == "insert":
            live.append(circuit.insert(op[1]))
            inserted += 1
        elif op[0] == "dequeue":
            if not live:
                continue
            live.remove(circuit.dequeue_min().address)
            served += 1
        elif op[0] == "remove":
            if not live:
                continue
            circuit.remove(live.pop(op[1] % len(live)))
            removed += 1
        else:
            if not live:
                continue
            index = op[1] % len(live)
            live[index] = circuit.retag(live[index], op[2])
    assert inserted == served + removed + circuit.count
    assert circuit.live_handles == circuit.count
    circuit.check_invariants()
