"""Snapshots written by older releases keep restoring on every engine.

Two halves:

* the legacy-key rule — how each snapshot kind names its engine when it
  predates the ``mode`` field, and which keys no loader reads any more —
  lives in one function, :func:`repro.core.engine.read_legacy_keys`, and
  each kind's historical mapping is pinned here;
* ``tests/fixtures/parent_snapshots`` holds snapshots written by the
  release that still carried the ``turbo`` flag, the ``fast_mode``
  switch and the ``live_tags`` verification shadow (a gate circuit, a
  turbo tag store, a two-shard fabric and a serve engine), each with the
  operations that followed it and what that release served.  Every
  engine must restore them and serve the same remaining order.
"""

import json
from pathlib import Path

import pytest

from repro.core.engine import (
    LEGACY_SNAPSHOT_KEYS,
    circuit_from_state,
    make_circuit,
    numpy_or_none,
    read_legacy_keys,
)
from repro.fabric.fabric import ScheduleFabric
from repro.net.hardware_store import HardwareTagStore
from repro.serve import lifecycle
from repro.serve.server import ServeConfig, ServeEngine

FIXTURES = (
    Path(__file__).resolve().parent.parent / "fixtures" / "parent_snapshots"
)

MODES = [
    "gate",
    "turbo",
    pytest.param(
        "vector",
        marks=pytest.mark.skipif(
            numpy_or_none() is None, reason="numpy is not installed"
        ),
    ),
]


def load(name):
    return json.loads((FIXTURES / name).read_text())


# ----------------------------------------------------------------------
# the one legacy-key rule


def test_read_legacy_keys_names_the_engine_and_drops_legacy_keys():
    block = {"levels": 3, "turbo": True, "fast_mode": False, "live_tags": []}
    mode, current = read_legacy_keys(block)
    assert mode == "turbo"
    assert current == {"levels": 3}
    assert LEGACY_SNAPSHOT_KEYS == {"turbo", "fast_mode", "live_tags"}
    # A ``mode`` field wins over the legacy bool.
    assert read_legacy_keys({"mode": "vector", "turbo": True})[0] == "vector"
    assert read_legacy_keys({"turbo": False}, default_mode="turbo")[0] == "gate"
    assert read_legacy_keys({})[0] == "gate"
    assert read_legacy_keys({}, default_mode="turbo")[0] == "turbo"


def _circuit_state(**legacy):
    state = make_circuit(capacity=8).to_state()
    state["config"].update(legacy)
    return state


def test_circuit_snapshot_mapping():
    assert circuit_from_state(_circuit_state(turbo=True)).mode == "turbo"
    assert circuit_from_state(_circuit_state(turbo=False)).mode == "gate"
    assert circuit_from_state(_circuit_state()).mode == "gate"
    assert circuit_from_state(_circuit_state(), mode="turbo").mode == "turbo"


def _store_state(**legacy):
    state = HardwareTagStore(capacity=8).to_state()
    del state["mode"]
    state["circuit"]["config"].update(legacy)
    return state


def test_store_snapshot_mapping():
    # The store's own ``mode`` field first, then its circuit's legacy
    # ``turbo`` bool, then gate.
    restore = HardwareTagStore.from_state
    assert restore(_store_state(turbo=True)).mode == "turbo"
    assert restore(_store_state(turbo=False)).mode == "gate"
    assert restore(_store_state()).mode == "gate"
    assert restore(dict(_store_state(turbo=True), mode="gate")).mode == "gate"


def _fabric_state(**legacy):
    state = ScheduleFabric(shards=2, capacity_per_shard=8).to_state()
    del state["mode"]
    state.update(legacy)
    return state


def test_fabric_snapshot_mapping():
    restore = ScheduleFabric.from_state
    assert restore(_fabric_state(turbo=True)).mode == "turbo"
    assert restore(_fabric_state(turbo=False)).mode == "gate"
    assert restore(_fabric_state()).mode == "gate"
    assert restore(dict(_fabric_state(), mode="turbo")).mode == "turbo"
    named = dict(_fabric_state(turbo=True), mode="vector")
    assert restore(named, mode="gate").mode == "gate"


def test_serve_config_mapping():
    # A serve config predating engine names defaults to turbo, the
    # server's default engine.
    recorded = ServeConfig(mode="gate").to_dict()
    del recorded["mode"]
    for legacy, want in (
        ({"turbo": False}, "gate"),
        ({"turbo": True}, "turbo"),
        ({}, "turbo"),
    ):
        config = ServeConfig(mode="vector")
        config.adopt_scheduling_fields(dict(recorded, **legacy))
        assert config.mode == want
    config = ServeConfig()
    config.adopt_scheduling_fields(dict(recorded, mode="gate", turbo=True))
    assert config.mode == "gate"


def test_writers_emit_no_legacy_keys():
    circuit = make_circuit(capacity=8).to_state()
    assert not LEGACY_SNAPSHOT_KEYS & set(circuit)
    assert not LEGACY_SNAPSHOT_KEYS & set(circuit["config"])
    fabric = ScheduleFabric(shards=2, capacity_per_shard=8).to_state()
    assert not LEGACY_SNAPSHOT_KEYS & set(fabric)


# ----------------------------------------------------------------------
# snapshots written by the release with the legacy keys


@pytest.mark.parametrize("mode", MODES)
def test_gate_circuit_with_live_tags_restores(mode):
    fixture = load("circuit_gate.json")
    assert fixture["snapshot"]["live_tags"]
    circuit = circuit_from_state(fixture["snapshot"], mode=mode)
    circuit.check_invariants()
    for _, tag, payload in fixture["tail"]:
        circuit.insert(tag, payload)
    served = []
    while not circuit.is_empty:
        entry = circuit.dequeue_min()
        served.append([entry.tag, entry.payload, entry.address])
    assert served == fixture["served"]


@pytest.mark.parametrize("mode", MODES)
def test_turbo_store_restores(mode):
    fixture = load("store_turbo.json")
    assert fixture["snapshot"]["circuit"]["config"]["turbo"] is True
    store = HardwareTagStore.from_state(fixture["snapshot"], mode=mode)
    assert store.circuit.mode == mode
    for tag, flow in fixture["tail"]:
        store.push(tag, flow)
    served = []
    while len(store):
        served.append(list(store.pop_min()))
    assert served == fixture["served"]
    store.circuit.check_invariants()


@pytest.mark.parametrize("mode", MODES)
def test_two_shard_fabric_restores(mode):
    fixture = load("fabric_2shard.json")
    fabric = ScheduleFabric.from_state(fixture["snapshot"], mode=mode)
    for tag, flow, payload in fixture["tail"]:
        fabric.push(tag, flow, payload)
    served = [list(entry) for entry in fabric.pop_batch(len(fabric))]
    assert served == fixture["served"]


@pytest.mark.parametrize("mode", MODES)
def test_serve_snapshot_restores(mode):
    fixture = load("serve.json")
    snapshot = fixture["snapshot"]
    engine = ServeEngine(ServeConfig(**dict(snapshot["config"], mode=mode)))
    try:
        lifecycle.restore_state(engine, snapshot)
        responses = [engine.handle_request(dict(r)) for r in fixture["tail"]]
    finally:
        engine.close()
    assert json.loads(json.dumps(responses)) == fixture["responses"]
