"""The run harness: one flag table, one wiring, one set of exit rules."""

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro.fabric.runner import main as fabric_main
from repro.net.hardware_store import HardwareTagStore
from repro.net.timer import main as timer_main, run_timer_soak
from repro.obs.harness import RunHarness, soak_kwargs
from repro.obs.runner import build_parser as obs_parser
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeEngine, WfqServer


def header(store):
    return dict(seed=1, mode="per_op", config=store.describe(), ops=0)


def serve_in_thread(engine):
    server = WfqServer(engine)
    done = threading.Event()
    result = {}

    def runner():
        result["status"] = asyncio.run(server.serve())
        done.set()

    threading.Thread(target=runner, daemon=True).start()
    deadline = time.monotonic() + 10
    while server.port is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.port is not None
    return server, done, result


def stop(server, done):
    with ServeClient("127.0.0.1", server.port, retries=10) as client:
        assert client.shutdown()["ok"]
    assert done.wait(10)


class TestFlagTable:
    def test_shared_flags_map_onto_soak_keywords(self):
        args = obs_parser().parse_args(
            ["--trace", "t.jsonl", "--serve", "0", "--watchdog", "2",
             "--flight", "f.jsonl", "--mode", "turbo", "--metrics", "m"]
        )
        kwargs = soak_kwargs(args)
        assert kwargs["trace_sink"] == "t.jsonl"
        assert kwargs["serve_port"] == 0
        assert kwargs["watchdog_timeout"] == 2.0
        assert kwargs["flight_path"] == "f.jsonl"
        assert kwargs["mode"] == "turbo"
        # CLI-only flags, and flags obs does not offer, stay out.
        assert "metrics" not in kwargs and "serve_host" not in kwargs


class TestHarness:
    def test_untraced_harness_builds_nothing(self):
        store = HardwareTagStore(granularity=1.0)
        harness = RunHarness(
            store, header=header(store), traced=False, monitor=True,
            serve_port=0,
        )
        with harness:
            store.push(5.0, "x")
        assert harness.tracer is None and harness.plane is None
        assert harness.monitors is None and harness.live is None
        assert store.tracer.enabled is False
        assert harness.failures(allow_lossy=False) == []

    def test_teardown_runs_when_the_workload_raises(self, tmp_path):
        store = HardwareTagStore(granularity=1.0)
        trace = tmp_path / "trace.jsonl"
        harness = RunHarness(
            store, header=header(store), trace_sink=str(trace),
            monitor=True, serve_port=0, live_interval=0.05,
        )
        with pytest.raises(RuntimeError):
            with harness:
                store.push(5.0, "x")
                raise RuntimeError("workload failed")
        assert harness.live is not None
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "trace_header"
        assert json.loads(lines[-1])["kind"] == "trace_footer"
        with pytest.raises(Exception):
            urllib.request.urlopen(
                f"http://127.0.0.1:{harness.live['port']}/health", timeout=1
            )

    def test_live_callbacks_follow_the_stores(self):
        store = HardwareTagStore(granularity=1.0)
        harness = RunHarness(store, header=header(store), serve_port=0)
        with harness:
            for tag in range(5):
                store.push(float(tag), tag)
            status, payload = harness.plane.render_health()
        assert status == 200
        assert payload["occupancy"] == 5
        assert "shards" not in payload  # a single store has no shards


class TestTracerExistence:
    def test_timer_traces_only_when_something_consumes_it(self):
        assert run_timer_soak(events=200).tracer is None
        monitored = run_timer_soak(events=200, monitor=True)
        assert monitored.tracer is not None and monitored.monitors.ok

    def test_serve_traces_only_with_metrics(self):
        engine = ServeEngine(ServeConfig(shards=2, trace_path="unused"))
        server, done, result = serve_in_thread(engine)
        assert server.metrics_port is None
        assert server._harness.tracer is None
        stop(server, done)
        assert result["status"] == 0


class TestExitRules:
    def test_lossy_rule_applies_where_allow_lossy_is_offered(self, tmp_path):
        out = str(tmp_path / "r.txt")
        lossy = ["--ops", "400", "--shards", "2", "--buffer-size", "16",
                 "--output", out]
        assert fabric_main(lossy) == 1
        assert fabric_main(lossy + ["--allow-lossy"]) == 0
        # timer offers no --allow-lossy, so eviction never fails it
        assert timer_main(
            ["--events", "400", "--monitor", "--buffer-size", "16",
             "--output", out]
        ) == 0


class TestServeOnTheHarness:
    def test_metrics_plane_trace_and_status(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        engine = ServeEngine(
            ServeConfig(
                shards=2, metrics_port=0, live_interval=0.05,
                trace_path=str(trace),
            )
        )
        server, done, result = serve_in_thread(engine)
        assert server.metrics_port is not None
        with ServeClient("127.0.0.1", server.port, retries=10) as client:
            assert client.open_flow("t", 1, 2e7)["admitted"]
            assert client.enqueue(1, 500)["ok"]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.metrics_port}/health", timeout=5
        ) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["serve"]["sessions"] == 1
        assert sum(health["shards"]["occupancies"]) == 1.0
        stop(server, done)
        assert result["status"] == 0
        lines = trace.read_text().splitlines()
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["purpose"] == "serve" and first["engine"] == "turbo"
        assert last["kind"] == "trace_footer"
