"""Seeded traffic for the serve benchmark.

The generators live here, not in ``repro.serve.client``, so that a change
to the program cannot change the traffic it is measured with.  Every
stream is a Python generator: it yields one request dict at a time and
is sent the parsed response, so a request that depends on an earlier
answer (cancel the handle an enqueue returned) stays closed-loop.  The
same seed gives the same requests, and because the server's data plane
never reads the wall clock, the same responses too.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

Request = Dict[str, Any]

#: packet sizes drawn uniformly from this range (bytes)
SIZE_MIN, SIZE_MAX = 64, 1500
#: SLA rates drawn uniformly from this range (bits/s)
RATE_MIN, RATE_MAX = 1e6, 10e6


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server it runs against.

    Why each workload exists is recorded in ``BENCHMARK.json`` and the
    README.
    """

    name: str
    transport: str  # "loopback" or "inproc"
    mode: str  # circuit engine
    traffic: str  # "mixed", "deep_drain" or "churn"
    flows: int
    tenants: int
    #: snapshot every N mutating ops (loopback only; 0 = never)
    snapshot_interval: int = 0
    #: admission rate floor, which sizes the tag quantum
    min_rate_bps: float = 1e6
    #: requests run untimed before the first measured phase
    warmup_requests: int = 2000

    def server_args(self) -> List[str]:
        """The ``repro serve`` flags that differ from its defaults."""
        args = ["--shards", "4", "--mode", self.mode]
        if self.min_rate_bps != 1e6:
            args += ["--min-rate", repr(self.min_rate_bps)]
        if self.snapshot_interval:
            args += ["--snapshot-interval", str(self.snapshot_interval)]
        return args

    def config_fields(self) -> Dict[str, Any]:
        """The scheduling settings as ``ServeConfig`` keyword arguments."""
        return {"shards": 4, "mode": self.mode, "min_rate_bps": self.min_rate_bps}


def open_requests(seed: int, flows: int, tenants: int) -> List[Request]:
    """The set-up: one ``open`` per flow, rates drawn from the seed."""
    rng = random.Random(f"open:{seed}")
    return [
        {
            "op": "open",
            "tenant": f"tenant-{flow % tenants}",
            "flow": flow,
            "rate_bps": rng.uniform(RATE_MIN, RATE_MAX),
        }
        for flow in range(flows)
    ]


def _enqueue(flow: int, rng: random.Random) -> Request:
    return {"op": "enqueue", "flow": flow, "size": rng.randint(SIZE_MIN, SIZE_MAX)}


class MixedTraffic:
    """The ``repro client`` default mix, endless.

    Per script op: 70% enqueue, 5% enqueue then cancel it, 5% enqueue
    then reschedule it 1..64 quanta later, 20% ``drain 32``; flows
    uniform.
    """

    def __init__(self, seed: int, flows: int, granularity: float) -> None:
        self.rng = random.Random(f"mixed:{seed}")
        self.flows = flows
        self.granularity = granularity

    def stream(self) -> Iterator[Request]:
        rng = self.rng
        while True:
            roll = rng.random()
            flow = rng.randrange(self.flows)
            if roll < 0.20:
                yield {"op": "drain", "count": 32}
            elif roll < 0.25:
                response = yield _enqueue(flow, rng)
                if response["ok"]:
                    yield {"op": "cancel", "handle": response["handle"]}
            elif roll < 0.30:
                enqueue = _enqueue(flow, rng)
                bump = rng.randint(1, 64)
                response = yield enqueue
                if response["ok"]:
                    yield {
                        "op": "reschedule",
                        "handle": response["handle"],
                        "tag": response["tag"] + bump * self.granularity,
                    }
            else:
                yield _enqueue(flow, rng)


class DeepDrainTraffic:
    """Rounds of ``depth`` enqueues over uniform flows, then ``drain depth``.

    Depth 512 stays under the cold-start span guard: every round empties
    the store, and an undrained burst of more than ~950 enqueues over
    1024 flows is refused with "tag space exhausted".
    """

    depth = 512

    def __init__(self, seed: int, flows: int) -> None:
        self.rng = random.Random(f"deep_drain:{seed}")
        self.flows = flows

    def stream(self) -> Iterator[Request]:
        rng = self.rng
        while True:
            for _ in range(self.depth):
                yield _enqueue(rng.randrange(self.flows), rng)
            yield {"op": "drain", "count": self.depth}


class ChurnTraffic:
    """Cancel/reschedule churn over ~``target`` live handles.

    Each step enqueues with probability 0.5 while fewer than ``target``
    handles are live (0.08 otherwise); the rest of the step splits
    0.25 : 0.20 : 0.05 between cancelling a uniformly random live handle,
    rescheduling one to its enqueue tag plus 1..64 quanta, and
    ``drain 4``.  Flows are drawn in proportion to their SLA rate, so no
    flow outruns its weight and the live tag span stays bounded.  The
    stream starts by enqueuing ``target`` packets.  Served handles are
    retired by matching each drain record's ``(flow, tag)``.
    """

    target = 2048
    drain_count = 4

    def __init__(
        self, seed: int, flows: int, granularity: float, rates: List[float]
    ) -> None:
        self.rng = random.Random(f"churn:{seed}")
        self.granularity = granularity
        self.cumulative = list(itertools.accumulate(rates))
        self.live: List[int] = []
        self._index: Dict[int, int] = {}
        #: token → (flow, current tag, enqueue tag)
        self._entry: Dict[int, tuple] = {}
        self._by_key: Dict[tuple, List[int]] = {}

    def _flow(self) -> int:
        return bisect.bisect(self.cumulative, self.rng.random() * self.cumulative[-1])

    def _add(self, token: int, flow: int, tag: float, enqueue_tag: float) -> None:
        self._index[token] = len(self.live)
        self.live.append(token)
        self._entry[token] = (flow, tag, enqueue_tag)
        self._by_key.setdefault((flow, tag), []).append(token)

    def _drop(self, token: int) -> None:
        index = self._index.pop(token)
        last = self.live.pop()
        if last != token:
            self.live[index] = last
            self._index[last] = index
        flow, tag, _ = self._entry.pop(token)
        tokens = self._by_key[flow, tag]
        tokens.remove(token)
        if not tokens:
            del self._by_key[flow, tag]

    def _enqueue(self) -> Iterator[Request]:
        flow = self._flow()
        response = yield _enqueue(flow, self.rng)
        if response["ok"]:
            self._add(response["handle"], flow, response["tag"], response["tag"])

    def stream(self) -> Iterator[Request]:
        rng = self.rng
        for _ in range(self.target):
            yield from self._enqueue()
        while True:
            p_enqueue = 0.5 if len(self.live) < self.target else 0.08
            roll = rng.random()
            if roll < p_enqueue or not self.live:
                yield from self._enqueue()
                continue
            roll = (roll - p_enqueue) / (1.0 - p_enqueue)
            if roll < 0.9:
                token = self.live[rng.randrange(len(self.live))]
            if roll < 0.5:
                response = yield {"op": "cancel", "handle": token}
                if response["ok"]:
                    self._drop(token)
            elif roll < 0.9:
                flow, _, enqueue_tag = self._entry[token]
                tag = enqueue_tag + rng.randint(1, 64) * self.granularity
                response = yield {"op": "reschedule", "handle": token, "tag": tag}
                if response["ok"]:
                    self._drop(token)
                    self._add(token, flow, tag, enqueue_tag)
            else:
                response = yield {"op": "drain", "count": self.drain_count}
                for record in response.get("served", ()):
                    self._drop(self._by_key[record["flow"], record["tag"]][0])


def make_traffic(
    workload: Workload, seed: int, granularity: float, opens: List[Request]
):
    """The traffic object for one workload run."""
    if workload.traffic == "mixed":
        return MixedTraffic(seed, workload.flows, granularity)
    if workload.traffic == "deep_drain":
        return DeepDrainTraffic(seed, workload.flows)
    rates = [request["rate_bps"] for request in opens]
    return ChurnTraffic(seed, workload.flows, granularity, rates)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mixed_loopback",
            transport="loopback",
            mode="turbo",
            traffic="mixed",
            flows=64,
            tenants=4,
            snapshot_interval=2000,
        ),
        Workload(
            name="mixed_inproc",
            transport="inproc",
            mode="turbo",
            traffic="mixed",
            flows=64,
            tenants=4,
        ),
        Workload(
            name="deep_drain",
            transport="inproc",
            mode="vector",
            traffic="deep_drain",
            flows=1024,
            tenants=16,
            warmup_requests=2 * (DeepDrainTraffic.depth + 1),
        ),
        Workload(
            name="churn",
            transport="inproc",
            mode="turbo",
            traffic="churn",
            flows=1024,
            tenants=16,
            # a 10x coarser tag quantum keeps ~2048 never-drained live
            # tags inside the span guard
            min_rate_bps=1e5,
            warmup_requests=ChurnTraffic.target + 4000,
        ),
    )
}
