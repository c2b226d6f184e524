"""One call contract for the tag store and the scheduling fabric.

:class:`~repro.net.hardware_store.HardwareTagStore` and
:class:`~repro.fabric.fabric.ScheduleFabric` take the same calls, so
the scheduler system and the timer wheel each have one path over
either: ``push(finish_tag, flow_id, payload=None)`` with the payload
defaulting to the flow id, ``push_batch`` of the same tuples,
``handle_payload``, ``owner_head`` (the head of the circuit holding a
handle: the clamp target) and ``clamped_inserts``.  A one-shard fabric
answers exactly what the bare store answers.
"""

import random

import pytest

from repro.fabric.fabric import ScheduleFabric
from repro.hwsim.errors import ProtocolError
from repro.net import HardwareWFQSystem
from repro.net.hardware_store import HardwareTagStore
from repro.sched.packet import Packet

BACKENDS = {
    "store": lambda: HardwareTagStore(capacity=4096),
    "fabric1": lambda: ScheduleFabric(shards=1, capacity_per_shard=4096),
    "fabric4": lambda: ScheduleFabric(shards=4, capacity_per_shard=1024),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]()


def drain(store):
    return store.pop_batch(len(store))


def test_push_takes_flow_id_and_payload(backend):
    with_payload = backend.push(10.0, 7, ("pkt", 1))
    defaulted = backend.push(20.0, 8)
    assert backend.handle_payload(with_payload) == (10.0, ("pkt", 1))
    assert backend.handle_payload(defaulted) == (20.0, 8)
    assert backend.pop_min() == (10.0, ("pkt", 1))
    assert backend.pop_min() == (20.0, 8)
    assert len(backend) == 0


def test_push_batch_takes_the_same_tuples(backend):
    backend.push_batch([(1.0, 2, "a"), (2.0, 3), (3.0, 1, "c")])
    assert len(backend) == 3
    assert drain(backend) == [(1.0, "a"), (2.0, 3), (3.0, "c")]


def test_handle_payload_is_exact_and_refuses_a_stale_handle(backend):
    handles = [backend.push(10.0 + 0.25 * i, i, f"p{i}") for i in range(8)]
    for i, handle in enumerate(handles):
        assert backend.handle_payload(handle) == (10.0 + 0.25 * i, f"p{i}")
    assert backend.remove(handles[3]) == (10.75, "p3")
    with pytest.raises(ProtocolError):
        backend.handle_payload(handles[3])


def test_retag_and_remove_keep_the_payload(backend):
    handles = [backend.push(10.0 * (i + 1), i, f"p{i}") for i in range(6)]
    moved = backend.retag(handles[1], 75.0)
    assert backend.handle_payload(moved) == (75.0, "p1")
    assert backend.remove(handles[4]) == (50.0, "p4")
    assert drain(backend) == [
        (10.0, "p0"), (30.0, "p2"), (40.0, "p3"), (60.0, "p5"), (75.0, "p1"),
    ]


def test_owner_head_is_where_a_clamped_push_is_served(backend):
    for flow in range(8):
        backend.push(100.0 + 10.0 * flow, flow, f"p{flow}")
    before = backend.clamped_inserts
    late = backend.push(50.0, 3, "late")  # behind every head: clamped
    assert backend.clamped_inserts == before + 1
    head = backend.owner_head(late)
    assert head is not None and head[0] >= 100.0
    # The clamped entry shares its owner head's quantum and is served
    # right after it (FCFS), whatever the other circuits hold.
    served = [payload for _, payload in drain(backend)]
    assert served[served.index(head[1]) + 1] == "late"


def test_clamped_inserts_counts_every_shard():
    fabric = ScheduleFabric(shards=4, capacity_per_shard=1024)
    for flow in range(16):
        fabric.push(100.0 + flow, flow)
    for flow in range(16):
        fabric.push(1.0, flow)  # each behind its own shard's head
    assert fabric.clamped_inserts == 16
    assert fabric.clamped_inserts == sum(
        store.clamped_inserts for store in fabric.stores
    )


def test_owner_head_is_the_owning_shard_not_the_global_head():
    fabric = ScheduleFabric(shards=4, capacity_per_shard=1024)
    handles = {
        flow: fabric.push(100.0 + flow, flow, flow) for flow in range(16)
    }
    global_head = fabric.peek_min_exact()
    heads = {fabric.owner_head(handle) for handle in handles.values()}
    assert global_head in heads and len(heads) > 1
    for flow, handle in handles.items():
        head_tag, head_flow = fabric.owner_head(handle)
        assert head_tag <= 100.0 + flow
        # The head's own entry is on the same shard as the handle's.
        assert fabric.owner_head(handles[head_flow]) == (head_tag, head_flow)


def script(store):
    """Every contract call once, with its answer; handles included."""
    rng = random.Random(5)
    log = []
    handles = []
    for i in range(40):
        tag = 10.0 + i + rng.random()
        handle = store.push(tag, i % 5, ("pkt", i))
        handles.append(handle)
        log.append(("push", handle, store.clamped_inserts))
    store.push_batch([(60.0 + i, i % 5, ("batch", i)) for i in range(10)])
    store.push_batch([(5.0, 1, "behind"), (75.0, 2)])
    log.append(("clamped", store.clamped_inserts))
    for handle in handles[::7]:
        log.append(("payload", store.handle_payload(handle)))
        log.append(("owner", store.owner_head(handle)))
    for handle in handles[1::9]:
        new = store.retag(handle, 80.0 + rng.random())
        log.append(("retag", new, store.handle_payload(new)))
    for handle in handles[2::9]:
        log.append(("remove", store.remove(handle)))
    log.append(("pop", store.pop_min()))
    log.append(("batch", store.pop_batch(20)))
    log.append(("rest", drain(store), store.clamped_inserts))
    return log


def test_one_shard_fabric_answers_what_the_store_answers():
    store = script(BACKENDS["store"]())
    fabric = script(BACKENDS["fabric1"]())
    assert fabric == store
    assert ("clamped", 1) in store


def packets(count, seed, now=0.0, flows=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        now += rng.random() * 1e-6
        out.append(Packet(rng.randrange(flows), rng.randint(64, 1500), now))
    return out


def system_run(shards):
    """Enqueue, cancel, reschedule and both batch paths on one system."""
    system = HardwareWFQSystem(1e9, shards=shards)
    for flow in range(6):
        system.add_flow(flow, weight=1.0 + flow % 3)
    log = []
    handles = []
    for packet in packets(300, 3):
        handles.append(system.enqueue(packet, packet.arrival_time))
    for handle in handles[::11]:
        log.append(("cancel", system.cancel(handle).arrival_time))
    head_tag = system.store.peek_min_exact()[0]
    repinned = [h for i, h in enumerate(handles) if i % 13 == 5 and i % 11]
    for offset, handle in enumerate(repinned):
        new = system.reschedule(handle, head_tag + 1e4 * (offset + 1))
        log.append(("reschedule", system.store.handle_payload(new)[0]))
    log.append(("batch", system.enqueue_batch(packets(100, 4, now=1e-3))))
    served = system.select_batch(150, 1.0)
    while system.backlog:
        served.append(system.select_next(1.0))
    log += [(p.arrival_time, p.flow_id, p.finish_tag) for p in served]
    return log


def test_system_serves_the_same_over_a_store_and_a_one_shard_fabric():
    plain = system_run(None)
    assert system_run(1) == plain
    assert len(plain) > 300
