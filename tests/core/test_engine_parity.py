"""Pairwise differential parity across the gate, turbo, and vector engines.

The engine contract (DESIGN.md §15) splits in two: served order,
payloads, slot addresses, results, errors, and logical snapshots must be
identical across engines, while cycle counts and per-structure access
counters are modeled per-engine.  These tests drive every engine pair
through the same randomized op streams — including remove-by-handle,
retag, and checkpoint/restore — comparing the portable half op for op
and stripping the modeled half from snapshots before comparing them.
"""

import io
import itertools
import json
import random

import pytest

from repro.bench.perf import make_flow_ops
from repro.core.engine import circuit_from_state, make_circuit, numpy_or_none
from repro.core.words import PAPER_FORMAT, WordFormat
from repro.fabric.fabric import ScheduleFabric
from repro.hwsim.errors import ConfigurationError, ProtocolError
from repro.net.hardware_store import HardwareTagStore
from repro.obs.tracer import Tracer

ENGINES = ("gate", "turbo", "vector")
PAIRS = list(itertools.combinations(ENGINES, 2))
CAPACITY = 256

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy is not installed"
)


def pair_params():
    out = []
    for left, right in PAIRS:
        marks = [needs_numpy] if "vector" in (left, right) else []
        out.append(pytest.param(left, right, marks=marks, id=f"{left}-{right}"))
    return out


def normalized_state(state):
    """Portable snapshot: drop modeled cycles and access counters."""
    out = dict(state)
    out.pop("cycles", None)
    if isinstance(out.get("config"), dict):
        config = dict(out["config"])
        for key in ("turbo", "engine", "mode"):  # engine identity markers
            config.pop(key, None)
        out["config"] = config
    for key in ("tree", "translation", "storage"):
        if key in out and isinstance(out[key], dict):
            section = dict(out[key])
            section.pop("stats", None)
            out[key] = section
    return out


def apply_op(circuit, op, served, results):
    kind = op[0]
    try:
        if kind == "insert":
            results.append(("addr", circuit.insert(op[1], op[2])))
        elif kind == "dequeue":
            tag = circuit.dequeue_min()
            served.append((tag.tag, tag.payload, tag.address))
        elif kind == "insdeq":
            tag, address = circuit.insert_and_dequeue(op[1], op[2])
            served.append((tag.tag, tag.payload, tag.address))
            results.append(("addr", address))
        elif kind == "ibatch":
            results.append(("batch", tuple(circuit.insert_batch(op[1], op[2]))))
        elif kind == "dbatch":
            for tag in circuit.dequeue_batch(op[1]):
                served.append((tag.tag, tag.payload, tag.address))
        elif kind == "remove":
            tag = circuit.remove(op[1])
            results.append(("removed", tag.tag, tag.payload, tag.address))
        elif kind == "retag":
            results.append(("retag", circuit.retag(op[1], op[2])))
        elif kind == "mixed":
            for tag in circuit.run_mixed(op[1]):
                served.append((tag.tag, tag.payload, tag.address))
    except Exception as error:  # errors are part of the portable contract
        results.append(("err", type(error).__name__, str(error)))


def next_op(rng, reference, step, base):
    """One randomized op, shaped by the reference engine's live state."""
    space = PAPER_FORMAT.capacity
    base = (base + rng.randrange(3)) % space
    tag = (base + rng.randrange(40)) % space
    payload = rng.choice([None, f"p{step}"])
    roll = rng.random()
    if roll < 0.35:
        return ("insert", tag, payload), base
    if roll < 0.50 and reference.count + 8 < CAPACITY - 6:
        tags = []
        cursor = tag
        for _ in range(rng.randrange(1, 8)):
            tags.append(cursor)
            cursor = (cursor + rng.randrange(3)) % space
        rng.shuffle(tags)
        return ("ibatch", tags, [f"b{step}.{i}" for i in range(len(tags))]), base
    if roll < 0.62:
        return ("dequeue",), base
    if roll < 0.70:
        return ("dbatch", rng.randrange(0, 6)), base
    if roll < 0.78 and reference.count:
        return ("insdeq", tag, payload), base
    if roll < 0.86:
        live = [address for _, address in reference.storage.walk()]
        if live:
            return ("remove", rng.choice(live)), base
        return ("insert", tag, payload), base
    if roll < 0.94:
        live = [address for _, address in reference.storage.walk()]
        if live:
            return ("retag", rng.choice(live), tag), base
        return ("insert", tag, payload), base
    stream = []
    cursor = tag
    for _ in range(rng.randrange(1, 6)):
        if rng.random() < 0.6:
            stream.append(("insert", cursor, f"m{step}"))
            cursor = (cursor + 1) % space
        else:
            stream.append(("dequeue",))
    return ("mixed", stream), base


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("left,right", pair_params())
def test_engines_agree_op_for_op(left, right, seed):
    rng = random.Random(seed)
    circuits = [
        make_circuit(PAPER_FORMAT, mode=mode, capacity=CAPACITY, modular=True)
        for mode in (left, right)
    ]
    base = 0
    for step in range(300):
        op, base = next_op(rng, circuits[0], step, base)
        outputs = []
        for circuit in circuits:
            served, results = [], []
            apply_op(circuit, op, served, results)
            outputs.append((served, results))
        assert outputs[0] == outputs[1], f"step {step}: {op}"
        assert circuits[0].count == circuits[1].count
        assert circuits[0].peek_min() == circuits[1].peek_min()
        if step % 97 == 0:
            assert normalized_state(circuits[0].to_state()) == normalized_state(
                circuits[1].to_state()
            )


@pytest.mark.parametrize("seed", [11])
@pytest.mark.parametrize("left,right", pair_params())
def test_checkpoint_restores_across_engines(left, right, seed):
    """A snapshot from one engine resumes exactly in another."""
    rng = random.Random(seed)
    source = make_circuit(PAPER_FORMAT, mode=left, capacity=CAPACITY, modular=True)
    base = 0
    for step in range(150):
        op, base = next_op(rng, source, step, base)
        apply_op(source, op, [], [])
    state = source.to_state()

    resumed = make_circuit(PAPER_FORMAT, mode=right, capacity=CAPACITY, modular=True)
    resumed.load_state(state)
    assert normalized_state(resumed.to_state()) == normalized_state(state)
    resumed.check_invariants()

    for step in range(150, 300):
        op, base = next_op(rng, source, step, base)
        outputs = []
        for circuit in (source, resumed):
            served, results = [], []
            apply_op(circuit, op, served, results)
            outputs.append((served, results))
        assert outputs[0] == outputs[1], f"step {step}: {op}"
    assert normalized_state(source.to_state()) == normalized_state(
        resumed.to_state()
    )


@pytest.mark.parametrize("seed", [3, 17])
def test_one_shard_fabric_service_order_identical_across_engines(seed):
    """shards=1 fabric serves the same events under every engine."""
    ops = make_flow_ops(2_000, seed)
    runs = {}
    for mode in ENGINES:
        if mode == "vector" and numpy_or_none() is None:
            continue
        fabric = ScheduleFabric(shards=1, granularity=8.0, mode=mode)
        served = []
        for op in ops:
            if op[0] == "push":
                fabric.push(op[1], op[2])
            else:
                served.append(fabric.pop_min())
        runs[mode] = served
    baseline = runs["gate"]
    for mode, served in runs.items():
        assert served == baseline, f"{mode} fabric diverged from gate"


@pytest.mark.parametrize("mode", ["turbo", pytest.param("vector", marks=needs_numpy)])
def test_store_service_order_identical_across_engines(mode, seed=29):
    """HardwareTagStore batched drains agree with the gate engine."""
    ops = make_flow_ops(2_000, seed)
    stores = [
        HardwareTagStore(granularity=8.0, mode=engine)
        for engine in ("gate", mode)
    ]
    outputs = []
    for store in stores:
        served = []
        pending = []
        pops = 0
        for op in ops:
            if op[0] == "push":
                if pops:
                    served.extend(store.pop_batch(pops))
                    pops = 0
                pending.append((op[1], op[2]))
            else:
                if pending:
                    store.push_batch(pending)
                    pending = []
                pops += 1
        if pending:
            store.push_batch(pending)
        if pops:
            served.extend(store.pop_batch(pops))
        outputs.append(served)
    assert outputs[0] == outputs[1]


#: Each call hands a ``bool`` to an engine where a tag belongs.
BOOL_TAG_CALLS = {
    "insert": lambda circuit, handle: circuit.insert(True),
    "insert_batch": lambda circuit, handle: circuit.insert_batch([40, True]),
    "insert_and_dequeue": lambda circuit, handle: circuit.insert_and_dequeue(
        True
    ),
    "retag": lambda circuit, handle: circuit.retag(handle, True),
}


@pytest.mark.parametrize("call", sorted(BOOL_TAG_CALLS))
@pytest.mark.parametrize(
    "mode", ["gate", "turbo", pytest.param("vector", marks=needs_numpy)]
)
def test_bool_tag_refused_before_anything_moves(mode, call):
    """A bool is an int to Python but never a tag: every engine answers
    the canonical ConfigurationError and leaves its state untouched."""
    circuit = make_circuit(PAPER_FORMAT, mode=mode, capacity=16)
    circuit.insert(0, "a")
    handle = circuit.insert(9, "b")
    circuit.insert(30, "c")
    before = circuit.to_state()
    with pytest.raises(ConfigurationError, match="got bool"):
        BOOL_TAG_CALLS[call](circuit, handle)
    assert circuit.to_state() == before
    circuit.check_invariants()


#: Values Python equates with live handle 1 (``1.0 == 1``, ``True ==
#: 1``) that still name no entry.
BAD_HANDLES = {"float": 1.0, "bool": True}

#: Each call hands such a value to an engine where a handle belongs.
BAD_HANDLE_CALLS = {
    "remove": lambda circuit, handle: circuit.remove(handle),
    "retag": lambda circuit, handle: circuit.retag(handle, 40),
}


@pytest.mark.parametrize("bad", sorted(BAD_HANDLES))
@pytest.mark.parametrize("call", sorted(BAD_HANDLE_CALLS))
@pytest.mark.parametrize(
    "mode", ["gate", "turbo", pytest.param("vector", marks=needs_numpy)]
)
def test_non_integer_handle_refused_before_anything_moves(mode, call, bad):
    """A float or a bool names no entry on any engine: the call raises
    ProtocolError before a single access is charged, and the handle
    observers agree that it is not live."""
    circuit = make_circuit(PAPER_FORMAT, mode=mode, capacity=16)
    circuit.insert(0, "a")
    assert circuit.insert(9, "b") == 1
    circuit.insert(30, "c")
    before = circuit.to_state()
    handle = BAD_HANDLES[bad]
    with pytest.raises(ProtocolError, match="does not name a live entry"):
        BAD_HANDLE_CALLS[call](circuit, handle)
    assert circuit.to_state() == before
    assert not circuit.is_live_handle(handle)
    assert circuit.handle_tag(handle) is None
    with pytest.raises(ProtocolError, match="does not name a live entry"):
        circuit.handle_payload(handle)
    assert circuit.handle_tag(1) == 9
    circuit.check_invariants()


#: Each call hands live handle 1 to an engine, as a plain int or as a
#: numpy integer (what an index into a numpy array yields).
NUMPY_HANDLE_CALLS = {
    "remove": lambda circuit, handle: circuit.remove(handle),
    "retag": lambda circuit, handle: circuit.retag(handle, 40),
    "handle_tag": lambda circuit, handle: circuit.handle_tag(handle),
}


@needs_numpy
@pytest.mark.parametrize("call", sorted(NUMPY_HANDLE_CALLS))
@pytest.mark.parametrize("mode", ENGINES)
def test_numpy_integer_handle_acts_as_a_python_int(mode, call):
    """A numpy integer handle is the int it equals, on every engine:
    traced to a JSONL sink the call neither raises nor writes a numpy
    value, the trace and the final state equal the plain-int call's, and
    a removed entry's address is a Python int, traced or not."""
    np = numpy_or_none()
    outcomes = []
    runs = ((1, True), (np.int64(1), True), (np.int64(1), False))
    for handle, traced in runs:
        circuit = make_circuit(PAPER_FORMAT, mode=mode, capacity=16)
        circuit.insert(0, "a")
        circuit.insert(9, "b")
        circuit.insert(30, "c")
        sink = io.StringIO()
        if traced:
            circuit.attach_tracer(Tracer(sink=sink))
        result = NUMPY_HANDLE_CALLS[call](circuit, handle)
        if call == "remove":
            assert type(result.address) is int
        else:
            assert type(result) is int
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        for event in events:
            assert event["attrs"]["address"] == 1
        assert len(events) == (traced and call != "handle_tag")
        circuit.check_invariants()
        outcomes.append((result, circuit.to_state(), sink.getvalue()))
    (int_result, int_state, int_trace), (np_result, np_state, np_trace), (
        untraced_result, untraced_state, _,
    ) = outcomes
    assert np_result == int_result == untraced_result
    assert np_state == int_state == untraced_state
    assert np_trace == int_trace


SECTIONS = WordFormat(levels=3, literal_bits=2)  # 64 values, 4 sections


def _section_leaf_writes(circuit):
    return circuit.registry[f"tree_level_{SECTIONS.levels - 1}"].writes


@needs_numpy
@pytest.mark.parametrize("seed", [3, 17])
def test_section_clears_agree_with_gate_on_a_wrapping_stream(seed):
    """A clear frontier sweeps ahead of the inserts, as the hardware
    store's does.  The vector root word skips clean sections; every
    clear returns what gate's returns, and a clean clear charges the
    section's leaf words like a scanning one."""
    rng = random.Random(seed)
    gate = make_circuit(SECTIONS, mode="gate", capacity=32, modular=True)
    vector = make_circuit(SECTIONS, mode="vector", capacity=32, modular=True)
    span = SECTIONS.capacity // 4
    words_per_section = 4 ** (SECTIONS.levels - 2)
    vnow = frontier = clean = 0
    for step in range(3000):
        if gate.count and (gate.count >= 12 or rng.random() < 0.45):
            assert gate.dequeue_min() == vector.dequeue_min()
            continue
        arrivals = [vnow + rng.randrange(4)]
        if rng.random() < 0.3:  # a batch of up to four
            for _ in range(rng.randrange(3)):
                arrivals.append(arrivals[-1] + rng.randrange(4))
        vnow = arrivals[-1]
        tags = [arrival % SECTIONS.capacity for arrival in arrivals]
        if gate.count:
            lag = (tags[-1] - gate.peek_min()) % SECTIONS.capacity
            if lag >= SECTIONS.capacity // 2:
                continue
            while frontier < vnow // span:
                frontier += 1
                before = _section_leaf_writes(vector)
                purged = vector.clear_stale_section(frontier % 4)
                assert purged == gate.clear_stale_section(frontier % 4)
                assert _section_leaf_writes(vector) - before == (
                    words_per_section
                )
                clean += purged == 0
        else:
            frontier = vnow // span  # the insert wipes the tree
        if len(tags) == 1:
            assert gate.insert(tags[0]) == vector.insert(tags[0])
        else:
            payloads = [None] * len(tags)
            assert gate.insert_batch(tags, payloads) == (
                vector.insert_batch(tags, payloads)
            )
            vector.check_invariants()  # the batch flagged its sections
        if step % 100 == 0:
            vector.check_invariants()
            vector = circuit_from_state(vector.to_state(), mode="vector")
    vector.check_invariants()
    assert gate.to_state()["tree"]["nodes"][-1] == (
        vector.to_state()["tree"]["nodes"][-1]
    )
    assert clean  # the stream did reach the skipped path


@needs_numpy
@pytest.mark.parametrize(
    "fmt, tags, served, stale",
    [
        # section 0 (values 0-15) keeps the stale markers of 2 and 5
        (SECTIONS, (2, 5, 20, 30), 2, 0),
        # one level: the leaf word is the root, each value a section
        (WordFormat(levels=1, literal_bits=3), (2, 5), 1, 2),
    ],
)
def test_restored_stale_section_is_cleared_like_gate(fmt, tags, served, stale):
    """A snapshot whose section holds only stale markers restores into a
    vector circuit whose clear of that section purges them, as gate's
    does."""
    gate = make_circuit(fmt, mode="gate", capacity=8, modular=True)
    for tag in tags:
        gate.insert(tag)
    for _ in range(served):
        gate.dequeue_min()
    vector = circuit_from_state(gate.to_state(), mode="vector")
    purged = gate.clear_stale_section(stale)
    assert purged == served
    assert vector.clear_stale_section(stale) == purged
    vector.check_invariants()
    assert vector.to_state()["tree"]["nodes"][-1] == (
        gate.to_state()["tree"]["nodes"][-1]
    )
