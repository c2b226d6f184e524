#!/usr/bin/env python3
"""Live service tour: the always-on WFQ scheduling server, in process.

Five stops:

1. boot a server on an ephemeral port (manual-drain mode) with a
   snapshot path and the live metrics plane attached;
2. a tenant opens SLA-admitted flows and pushes a mixed workload —
   enqueues, a cancel, a reschedule — through the wire protocol;
3. backpressure: fill the shared buffer past the marking threshold and
   watch ECN marks, then past the reject threshold and watch
   admission-reject responses;
4. scrape ``/metrics`` and ``/health`` mid-soak, live;
5. the lifecycle proof: snapshot, hard-stop the server, restore a
   fresh one from the snapshot, and show the continued service order
   matches an uninterrupted reference, event for event.

Run: ``python examples/live_service.py``
"""

import asyncio
import json
import threading
import time
import urllib.request

from repro.serve import lifecycle
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeEngine, WfqServer


def serve_in_thread(engine):
    """Run one WfqServer on a daemon thread; returns (server, done)."""
    server = WfqServer(engine)
    done = threading.Event()

    def runner():
        asyncio.run(server.serve())
        done.set()

    threading.Thread(target=runner, daemon=True).start()
    while server.port is None:
        time.sleep(0.01)
    return server, done


def stop(client, done):
    client.shutdown()
    client.close()
    done.wait(10)


def main():
    config = ServeConfig(
        link_rate_bps=1e9,
        shards=4,
        buffer_capacity=512,
        table_capacity=512,
        min_rate_bps=1e6,
        mark_fraction=0.5,
        reject_fraction=0.75,
        snapshot_path="/tmp/live_service_snapshot.json",
        metrics_port=0,
    )

    # -- stop 1: boot ------------------------------------------------
    engine = ServeEngine(config)
    server, done = serve_in_thread(engine)
    print("== the always-on scheduling server ==")
    print(f"serving on 127.0.0.1:{server.port}, "
          f"metrics on :{server.metrics_port}")

    client = ServeClient("127.0.0.1", server.port, retries=20).connect()
    hello = client.hello()
    print(f"hello: protocol v{hello['protocol']}, "
          f"{hello['link_rate_bps'] / 1e9:.0f} Gb/s link, "
          f"{hello['shards']} shards\n")

    # -- stop 2: sessions and the data plane -------------------------
    print("== SLA admission and the data plane ==")
    for flow in range(4):
        decision = client.open_flow("acme", flow, rate_bps=(flow + 1) * 1e7)
        print(f"  open flow {flow} @ {(flow + 1) * 10} Mb/s -> "
              f"admitted, weight {decision['weight']:.3f}, "
              f"delay bound {decision['delay_bound_s'] * 1e3:.2f} ms")
    first = client.enqueue(0, 1500)
    second = client.enqueue(0, 1500)
    client.enqueue(1, 700)
    print(f"  enqueue -> handle {first['handle']}, tag {first['tag']:.0f}")
    print(f"  cancel handle {second['handle']}:",
          client.cancel(second["handle"])["ok"])
    moved = client.reschedule(first["handle"], first["tag"] * 4)
    print(f"  reschedule handle {first['handle']} -> ok={moved['ok']}")
    served = client.drain(16)["served"]
    print(f"  drain: {len(served)} packets, flows "
          f"{[record['flow'] for record in served]}\n")

    # -- stop 3: backpressure ----------------------------------------
    print("== backpressure: marks, then rejects ==")
    marked = rejected = accepted = 0
    for index in range(600):
        response = client.enqueue(index % 4, 1000)
        if not response["ok"]:
            rejected += 1
        else:
            accepted += 1
            if response["ecn"]:
                marked += 1
    print(f"  600 enqueues: {accepted} accepted "
          f"({marked} ECN-marked), {rejected} rejected")
    stats = client.stats()["stats"]
    print(f"  buffer {stats['buffer']['occupancy']}/"
          f"{stats['buffer']['capacity']} "
          f"(watermark {stats['buffer']['high_watermark']}), "
          f"thresholds mark={stats['backpressure']['mark_threshold']} "
          f"reject={stats['backpressure']['reject_threshold']}\n")

    # -- stop 4: the live plane --------------------------------------
    print("== live observability, mid-soak ==")
    base = f"http://127.0.0.1:{server.metrics_port}"
    health = json.loads(urllib.request.urlopen(base + "/health").read())
    print(f"  /health -> {health['status']}, monitors "
          f"{health['monitors']['violations']} violations over "
          f"{health['monitors']['checked']} events")
    metrics = urllib.request.urlopen(base + "/metrics").read().decode()
    for line in metrics.splitlines():
        if line.startswith("repro_occupancy") and "shard" not in line:
            print(f"  /metrics -> {line}")
            break
    print()

    # -- stop 5: the lifecycle proof ---------------------------------
    print("== snapshot / restore: provably continued service ==")
    client.snapshot()
    state = lifecycle.read_snapshot(config.snapshot_path)
    print(f"  snapshot at served_seq={state['served_seq']}, "
          f"backlog={stats['fabric']['backlog']}")

    # Reference: keep serving the original uninterrupted.
    reference_tail = client.drain(10_000)["served"]
    stop(client, done)

    # Recovery: a fresh engine restored from the snapshot.
    restored = ServeEngine(ServeConfig(**{
        **config.to_dict(), "metrics_port": None, "snapshot_path": None,
    }))
    lifecycle.restore_state(restored, state)
    restored_tail = restored.handle_request(
        {"op": "drain", "count": 10_000}
    )["served"]
    identical = restored_tail == reference_tail
    print(f"  restored server drains {len(restored_tail)} packets: "
          f"{'IDENTICAL to uninterrupted reference' if identical else 'MISMATCH'}")
    assert identical
    restored.close()
    print("\nSame packets, same order, same sequence numbers — the "
          "restart is invisible to the service stream.")


if __name__ == "__main__":
    main()
