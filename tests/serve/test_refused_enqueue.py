"""A refused enqueue leaves the WFQ clock as if the packet never arrived.

The span guard refuses a packet whose tag lies half the tag space or
more past the span floor; the server answers "tag space exhausted" and
the client backs off.  The packet was tagged before the store refused
it, so the system takes the arrival back: a client that retries keeps
its flow's service position, exactly like one that waited.
"""

import pytest

from repro.hwsim.errors import ProtocolError
from repro.net import HardwareWFQSystem
from repro.net.fabric_system import FabricSchedulerSystem
from repro.sched import Packet
from repro.serve.server import ServeConfig, ServeEngine


def opened_engine():
    engine = ServeEngine(ServeConfig(shards=1))
    for flow in (1, 2):
        response = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": flow, "rate_bps": 1e6}
        )
        assert response["ok"], response
    return engine


def enqueue(engine, flow):
    return engine.handle_request({"op": "enqueue", "flow": flow, "size": 1500})


def test_retried_refusals_cost_the_flow_nothing():
    waiting, retrying = opened_engine(), opened_engine()
    accepted = 0
    while True:
        answer = enqueue(waiting, 1)
        assert enqueue(retrying, 1) == answer
        if not answer["ok"]:
            break
        accepted += 1
    assert accepted == 128
    assert answer["reason"].startswith("tag space exhausted for flow 1")
    for _ in range(3):
        assert enqueue(retrying, 1) == answer
    assert (
        retrying.system.clock.to_state() == waiting.system.clock.to_state()
    )
    # The rest of the run is the same on both twins: a full drain,
    # then both flows again.
    drained = [
        engine.handle_request({"op": "drain", "count": 1000})["served"]
        for engine in (waiting, retrying)
    ]
    assert drained[0] == drained[1]
    assert len(drained[0]) == accepted
    after = [
        [enqueue(engine, flow) for flow in (1, 2, 1)]
        for engine in (waiting, retrying)
    ]
    assert all(answer["ok"] for answer in after[0])
    assert after[0] == after[1]
    # One packet (16 quanta) past the last accepted one, not four.
    step = 1500 * 8 / (1e6 / 40e9)
    assert after[0][0]["tag"] == pytest.approx(drained[0][-1]["tag"] + step)
    assert (
        retrying.system.clock.to_state() == waiting.system.clock.to_state()
    )


@pytest.mark.parametrize(
    "system_cls", [HardwareWFQSystem, FabricSchedulerSystem]
)
def test_system_refusal_takes_the_arrival_back(system_cls):
    """Both systems' enqueue: slot released, clock restored, error raised."""
    system = system_cls(1e9, granularity=100.0)
    system.add_flow(1, 1.0)
    system.add_flow(2, 3.0)
    now = 0.0
    for _ in range(1000):
        system.enqueue(Packet(2, 200, now), now)
        before = system.clock.to_state()
        try:
            system.enqueue(Packet(1, 1500, now), now)
        except ProtocolError as exc:
            assert "tag space" in str(exc)
            break
        now += 1e-9
    else:
        pytest.fail("the span guard never refused flow 1")
    assert system.clock.to_state() == before
    occupancy = system.buffer.occupancy
    assert occupancy == len(system.store)
    # The clock can advance and tag again from the restored state.
    assert system.enqueue(Packet(2, 200, now), now) is not None
