"""FabricSchedulerSystem: the sharded fabric behind the Fig. 1 facade."""

import random

import pytest

from repro.hwsim.errors import ConfigurationError
from repro.net import FabricSchedulerSystem, HardwareWFQSystem
from repro.sched.base import simulate
from repro.sched.packet import Packet


def make_arrivals(count, seed, flows=8):
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(count):
        now += rng.random() * 1e-5
        arrivals.append(
            Packet(
                flow_id=rng.randrange(flows) + 1,
                size_bytes=rng.randint(64, 1500),
                arrival_time=now,
            )
        )
    return arrivals


def register_flows(system, flows=8):
    for flow in range(1, flows + 1):
        system.add_flow(flow, weight=1.0 + (flow % 3))
    return system


def record(result):
    return [
        (p.flow_id, p.arrival_time, p.finish_tag, p.departure_time)
        for p in result.packets
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_one_shard_system_matches_single_circuit_system(seed):
    arrivals = make_arrivals(1_000, seed)
    fabric_system = register_flows(FabricSchedulerSystem(1e9, shards=1))
    plain_system = register_flows(HardwareWFQSystem(1e9))
    fabric_result = simulate(fabric_system, arrivals)
    plain_result = simulate(plain_system, make_arrivals(1_000, seed))
    assert record(fabric_result) == record(plain_result)
    assert fabric_system.store.cycles == plain_system.store.cycles


def test_four_shard_system_serves_every_packet():
    arrivals = make_arrivals(2_000, 7)
    system = register_flows(FabricSchedulerSystem(1e9, shards=4))
    result = simulate(system, arrivals)
    assert len(result.packets) == 2_000
    assert system.dropped == 0
    # Parallel shards: modeled busy time is the makespan, strictly
    # below the summed work of one circuit doing everything.
    assert system.store.cycles < system.store.cycles_total


def test_sustained_throughput_scales_with_shards():
    one = FabricSchedulerSystem(1e9, shards=1)
    four = FabricSchedulerSystem(1e9, shards=4)
    assert four.sustained_packets_per_second() == pytest.approx(
        4 * one.sustained_packets_per_second()
    )


def test_shard_capacity_covers_buffer_share():
    system = FabricSchedulerSystem(1e9, shards=4, buffer_capacity=8192)
    system.add_flow(1)
    assert system.store.capacity_per_shard == 2048


def test_rejects_zero_shards():
    with pytest.raises(ConfigurationError):
        FabricSchedulerSystem(1e9, shards=0)

