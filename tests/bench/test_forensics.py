"""The bench harness's forensic reference trace: deterministic,
framed, and diffable against a fresh run of the same workload."""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

from repro.bench.perf import (
    _SCHEMA,
    REFERENCE_TRACE_OPS,
    record_reference_trace,
    reference_trace_path,
)
from repro.obs.diff import diff_traces
from repro.obs.exporters import read_trace


class TestReferenceTracePath:
    def test_derives_from_baseline_name(self):
        assert (
            reference_trace_path("BENCH_sort_retrieve.json")
            == "BENCH_sort_retrieve.trace.jsonl"
        )
        assert reference_trace_path("odd.name") == "odd.name.trace.jsonl"


class TestRecordReferenceTrace:
    def test_framed_and_deterministic(self, tmp_path):
        path = tmp_path / "ref.trace.jsonl"
        events, header = record_reference_trace(str(path), seed=11, ops=400)
        assert header["seed"] == 11
        assert header["mode"] == "per_op"
        assert header["purpose"] == "bench_reference"

        document = read_trace(str(path))
        assert document.header == header
        assert document.dropped == 0
        assert document.missing == 0
        assert len(document.events) == len(events)

        again, _ = record_reference_trace(seed=11, ops=400)
        assert [e.to_dict() for e in again] == [
            e.to_dict() for e in events
        ]

    def test_fresh_run_diffs_clean_against_the_reference(self, tmp_path):
        path = tmp_path / "ref.trace.jsonl"
        record_reference_trace(str(path), seed=3, ops=400)
        reference = read_trace(str(path))
        events, header = record_reference_trace(seed=3, ops=400)
        diff = diff_traces(
            reference.events,
            events,
            header_a=reference.header,
            header_b=header,
        )
        assert diff.aligned
        assert all(
            delta["accesses"] == 0 for delta in diff.kind_deltas().values()
        )


class TestCommittedBaseline:
    def test_baseline_is_current_schema_with_reference_trace(self):
        assert _SCHEMA == 8
        baseline_path = REPO_ROOT / "BENCH_sort_retrieve.json"
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert baseline["schema"] == 8
        document = read_trace(reference_trace_path(str(baseline_path)))
        assert document.header is not None
        assert document.header["seed"] == baseline["seed"]
        assert document.header["ops"] == REFERENCE_TRACE_OPS
        assert document.dropped == 0
        assert document.missing == 0
