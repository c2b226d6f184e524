"""``peek_tags``: the next tags in service order, touching nothing.

On every engine, ``peek_tags(k)`` must list exactly the tags a following
``dequeue_batch(k)`` serves, and leave the snapshot, the cycle count and
every access counter as they were — including across a tag-space wrap,
duplicate tags, and removals that leave holes in the list.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import make_circuit, numpy_or_none
from repro.core.words import PAPER_FORMAT
from repro.hwsim.errors import ConfigurationError, EmptyStructureError

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy is not installed"
)
ENGINES = [
    pytest.param("gate", id="gate"),
    pytest.param("turbo", id="turbo"),
    pytest.param("vector", id="vector", marks=needs_numpy),
]
SPACE = PAPER_FORMAT.capacity


def untouched(circuit):
    """Everything a peek must leave as it found it."""
    return (
        json.dumps(circuit.to_state(), sort_keys=True),
        circuit.cycles,
        circuit.operations,
        circuit.registry.total().reads,
        circuit.registry.total().writes,
    )


def filled(mode, base, steps, removals):
    """A modular circuit fed a monotone (wrapping) run of tags."""
    circuit = make_circuit(PAPER_FORMAT, mode=mode, capacity=512, modular=True)
    tag = base
    handles = []
    for index, step in enumerate(steps):
        tag = (tag + step) % SPACE
        handles.append(circuit.insert(tag, payload=("p", index)))
    for pick in removals:
        live = [handle for handle in handles if circuit.is_live_handle(handle)]
        if len(live) > 1:
            circuit.remove(live[pick % len(live)])
    return circuit


@pytest.mark.parametrize("mode", ENGINES)
@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(SPACE - 300, SPACE - 1),
    steps=st.lists(st.integers(0, 15), min_size=1, max_size=120),
    removals=st.lists(st.integers(0, 10**6), max_size=10),
    fraction=st.floats(0.0, 1.0),
)
def test_peek_tags_lists_what_dequeue_batch_serves(
    mode, base, steps, removals, fraction
):
    circuit = filled(mode, base, steps, removals)
    count = round(fraction * circuit.count)
    before = untouched(circuit)
    tags = circuit.peek_tags(count)
    assert untouched(circuit) == before
    assert len(tags) == count
    assert [served.tag for served in circuit.dequeue_batch(count)] == tags


@pytest.mark.parametrize("mode", ENGINES)
def test_peek_tags_over_ask_raises_before_reading(mode):
    circuit = filled(mode, SPACE - 5, [1, 2, 0, 3], [])
    before = untouched(circuit)
    with pytest.raises(EmptyStructureError):
        circuit.peek_tags(circuit.count + 1)
    with pytest.raises(ConfigurationError):
        circuit.peek_tags(-1)
    assert untouched(circuit) == before
    assert circuit.peek_tags(0) == []
    empty = make_circuit(PAPER_FORMAT, mode=mode, capacity=8, modular=True)
    assert empty.peek_tags(0) == []
    with pytest.raises(EmptyStructureError):
        empty.peek_tags(1)
