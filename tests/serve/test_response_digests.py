"""The serve responses and modeled accounting, pinned per workload.

Each workload of the serve benchmark (``benchmarks/serve/workloads.py``,
loaded from its file and never edited here) runs in process for 30,000
seeded requests after ``hello`` and its ``open`` set-up, then one
``stats``.  The SHA-256 over every encoded response must equal the
recorded digest, and the per-shard modeled cycles, the per-shard access
registry totals and the packet buffer's access counts must equal the
recorded values.  A change that alters one response byte or one modeled
counter fails here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.serve import server

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS_FILE = ROOT / "benchmarks" / "serve" / "workloads.py"
REQUESTS = 30_000
SEED = 1

_MIXED = {
    "digest": "142fd7060b9b435728df355002aacc62c75c5c8090209866d20ac15e2c84c71f",
    "cycles": [47006, 45694, 45995, 46781],
    "registry": [[46265, 38305], [44297, 37407], [44978, 37594], [45769, 38039]],
    "buffer": [21751, 21752],
}
#: workload → recorded digest, per-shard cycles, per-shard registry
#: [reads, writes] and buffer [reads, writes]; the two mixed workloads
#: differ only in transport, so in process they agree
PINNED = {
    "mixed_loopback": _MIXED,
    "mixed_inproc": _MIXED,
    "deep_drain": {
        "digest": "f4bb93c8940b71a0e4124d4efa5b9ab89f2a167b9a1d5a6e4a0717b93f009d90",
        "cycles": [59572, 59576, 59872, 59532],
        "registry": [
            [52116, 55362], [52102, 55486], [52356, 55765], [52066, 55401]
        ],
        "buffer": [29696, 29942],
    },
    "churn": {
        "digest": "de44e2b8de93b2aa0c57f8b0b7be1284f9603b031f9ba84c9ec3a42b5c4d96f8",
        "cycles": [41806, 42051, 42196, 42595],
        "registry": [
            [74582, 29074], [75134, 29269], [75792, 29535], [76147, 29558]
        ],
        "buffer": [13194, 15236],
    },
}


def _load_workloads():
    name = "serve_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclass resolves its own module.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def replay(workload, workloads) -> dict:
    engine = server.ServeEngine(server.ServeConfig(**workload.config_fields()))
    digest = hashlib.sha256()

    def call(request):
        line = json.dumps(request, separators=(",", ":")).encode("utf-8")
        encoded = server.encode(
            engine.handle_request(server.decode_line(line))
        )
        digest.update(encoded)
        return json.loads(encoded)

    call({"op": "hello"})
    opens = workloads.open_requests(SEED, workload.flows, workload.tenants)
    for request in opens:
        assert call(request)["ok"]
    stream = workloads.make_traffic(
        workload, SEED, engine.granularity, opens
    ).stream()
    request = next(stream)
    for _ in range(REQUESTS - 1):
        request = stream.send(call(request))
    call(request)
    call({"op": "stats"})
    stores = engine.system.store.stores
    totals = [store.circuit.registry.total() for store in stores]
    buffer = engine.system.buffer.stats
    engine.close()
    return {
        "digest": digest.hexdigest(),
        "cycles": [store.cycles for store in stores],
        "registry": [[total.reads, total.writes] for total in totals],
        "buffer": [buffer.reads, buffer.writes],
    }


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED))
def test_responses_and_accounting_are_pinned(name):
    workloads = _load_workloads()
    assert sorted(workloads.WORKLOADS) == sorted(PINNED)
    workload = workloads.WORKLOADS[name]
    if workload.mode == "vector":
        pytest.importorskip("numpy")
    assert replay(workload, workloads) == PINNED[name]
