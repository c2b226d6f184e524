"""Perfetto timeline export: valid Chrome trace-event JSON, monotone
timestamps per pid/tid — the export half of the acceptance criteria."""

import json

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.net.hardware_store import HardwareTagStore
from repro.obs.events import INVARIANT_KIND, TraceEvent
from repro.obs.timeline import (
    PID,
    TID_BATCH,
    TID_MAINTENANCE,
    TID_OPS,
    build_timeline,
    write_timeline,
)
from repro.obs.tracer import Tracer

SEED = 20060101


def traced_events(*, batched, ops=1_500):
    tracer = Tracer()
    store = HardwareTagStore(
        granularity=8.0, tracer=tracer
    )
    drive = _drive_batched if batched else _drive_per_op
    drive(store, make_mixed_ops(ops, SEED))
    return tracer.events()


def assert_monotonic_per_track(document):
    last = {}
    for entry in document["traceEvents"]:
        if "ts" not in entry:
            continue  # metadata records carry no timestamp
        track = (entry["pid"], entry.get("tid"))
        assert entry["ts"] >= last.get(track, -1), entry
        last[track] = entry["ts"]
        assert entry.get("dur", 0) >= 0


class TestTimelineExport:
    def test_per_op_timeline_valid_and_monotonic(self):
        document = build_timeline(traced_events(batched=False))
        json.dumps(document)  # valid JSON end to end
        assert_monotonic_per_track(document)
        slices = [
            e for e in document["traceEvents"] if e.get("ph") == "X"
        ]
        assert slices
        assert all(entry["pid"] == PID for entry in slices)
        assert any(entry["tid"] == TID_OPS for entry in slices)

    def test_batched_timeline_renders_spans_on_their_thread(self):
        document = build_timeline(traced_events(batched=True))
        assert_monotonic_per_track(document)
        spans = [
            e
            for e in document["traceEvents"]
            if e.get("tid") == TID_BATCH and e.get("ph") == "X"
        ]
        assert spans
        assert {entry["name"] for entry in spans} <= {
            "insert_batch", "dequeue_batch", "marker_flush"
        }
        # a batch span stretches over its children: wider than zero
        assert any(entry["dur"] > 0 for entry in spans)

    def test_thread_metadata_and_counters(self):
        document = build_timeline(traced_events(batched=False, ops=400))
        names = {
            (entry.get("tid"), entry["args"]["name"])
            for entry in document["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert (TID_OPS, "ops") in names
        assert (TID_MAINTENANCE, "maintenance") in names
        assert (TID_BATCH, "batch spans") in names
        counters = [
            entry
            for entry in document["traceEvents"]
            if entry["ph"] == "C"
        ]
        assert {entry["name"] for entry in counters} == {
            "occupancy", "free_list_depth"
        }

    def test_violation_becomes_instant_marker(self):
        events = [
            TraceEvent(seq=0, kind="insert", name="insert",
                       attrs={"tag": 9, "cycles": 4, "occupancy": 1}),
            TraceEvent(seq=1, kind=INVARIANT_KIND, name="insert_budget",
                       attrs={"monitor": "insert_budget",
                              "message": "over budget"}),
        ]
        document = build_timeline(events)
        instants = [
            entry
            for entry in document["traceEvents"]
            if entry["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["name"] == "violation:insert_budget"
        assert instants[0]["s"] == "p"

    def test_header_lands_in_other_data(self):
        document = build_timeline([], header={"seed": 7, "mode": "per_op"})
        assert document["otherData"]["trace_header"]["seed"] == 7

    def test_write_timeline_round_trips(self, tmp_path):
        out = tmp_path / "timeline.json"
        count = write_timeline(
            traced_events(batched=False, ops=300), str(out)
        )
        loaded = json.loads(out.read_text())
        assert len(loaded["traceEvents"]) == count
        assert_monotonic_per_track(loaded)

    def test_op_duration_prefers_modeled_cycles(self):
        events = [
            TraceEvent(seq=0, kind="insert", name="insert",
                       attrs={"tag": 1, "cycles": 4, "occupancy": 1}),
        ]
        document = build_timeline(events)
        op = [e for e in document["traceEvents"] if e.get("ph") == "X"][0]
        assert op["dur"] == 4


def sharded_events(*, shards=3, ops=800):
    from repro.fabric.fabric import ScheduleFabric

    tracer = Tracer()
    fabric = ScheduleFabric(shards=shards, granularity=8.0, tracer=tracer)
    _drive_per_op(fabric, make_mixed_ops(ops, SEED))
    return tracer.events()


class TestPerComponentTracks:
    def test_components_get_their_own_process(self):
        document = build_timeline(sharded_events())
        names = {
            entry["pid"]: entry["args"]["name"]
            for entry in document["traceEvents"]
            if entry.get("name") == "process_name"
        }
        assert names[PID] == "sort_retrieve_circuit"
        components = {name for pid, name in names.items() if pid != PID}
        assert {"shard0", "shard1", "shard2"} <= components

    def test_component_processes_carry_the_thread_trio(self):
        document = build_timeline(sharded_events())
        threads = {}
        for entry in document["traceEvents"]:
            if entry.get("name") == "thread_name":
                threads.setdefault(entry["pid"], {})[entry["tid"]] = entry[
                    "args"
                ]["name"]
        pids = {
            entry["pid"]
            for entry in document["traceEvents"]
            if entry.get("name") == "process_name"
        }
        for pid in pids:
            assert threads[pid] == {
                TID_OPS: "ops",
                TID_MAINTENANCE: "maintenance",
                TID_BATCH: "batch spans",
            }

    def test_slices_land_on_their_component_pid(self):
        events = sharded_events()
        document = build_timeline(events)
        names = {
            entry["pid"]: entry["args"]["name"]
            for entry in document["traceEvents"]
            if entry.get("name") == "process_name"
        }
        slices = [
            entry
            for entry in document["traceEvents"]
            if entry.get("ph") == "X"
        ]
        assert slices
        # Every component-stamped event renders under its own process.
        by_seq = {event.seq: event for event in events}
        for entry in slices:
            event = by_seq[entry["args"]["seq"]]
            component = event.attrs.get("component")
            expected = component if component is not None else (
                "sort_retrieve_circuit"
            )
            assert names[entry["pid"]] == expected

    def test_sharded_timeline_stays_monotonic_per_track(self):
        assert_monotonic_per_track(build_timeline(sharded_events()))

    def test_unstamped_trace_is_byte_identical_to_before(self):
        events = [
            TraceEvent(seq=0, kind="insert", name="insert", attrs={"tag": 1}),
            TraceEvent(
                seq=1, kind="dequeue", name="dequeue", attrs={"tag": 1}
            ),
        ]
        document = build_timeline(events)
        pids = {entry["pid"] for entry in document["traceEvents"]}
        assert pids == {PID}
