"""Differential trace analysis: alignment, divergence forensics, and
header compatibility gating.

The acceptance claim: per-op and batched traces of the same seeded
workload align with zero logical-op divergence — the batched discipline
changes *cost attribution*, never the served operation sequence.
"""

import pytest

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.net.hardware_store import HardwareTagStore
from repro.obs.diff import (
    TraceCompatibilityError,
    diff_traces,
    logical_ops,
)
from repro.obs.events import build_trace_header
from repro.obs.tracer import Tracer

SEED = 20060101


def traced(*, batched, ops=2_000, seed=SEED):
    tracer = Tracer()
    store = HardwareTagStore(
        granularity=8.0, tracer=tracer
    )
    header = build_trace_header(
        seed=seed,
        mode="batched" if batched else "per_op",
        config=store.describe(),
    )
    drive = _drive_batched if batched else _drive_per_op
    drive(store, make_mixed_ops(ops, seed))
    return tracer.events(), header


class TestAcceptanceAlignment:
    def test_per_op_vs_batched_zero_divergence(self):
        events_a, header_a = traced(batched=False)
        events_b, header_b = traced(batched=True)
        diff = diff_traces(
            events_a, events_b, header_a=header_a, header_b=header_b
        )
        assert diff.aligned
        assert diff.divergence is None
        assert diff.ops_a == diff.ops_b > 0
        deltas = diff.kind_deltas()
        # identical op counts and cycles; batched insert traffic is
        # *lower* (amortized finger walk), never higher
        for kind in ("insert", "dequeue"):
            assert deltas[kind]["count"] == 0
            assert deltas[kind]["cycles"] == 0
        assert deltas["insert"]["accesses"] < 0
        assert deltas["dequeue"]["accesses"] == 0
        assert "identical" in diff.report()

    def test_span_traffic_folds_into_op_kinds(self):
        events_b, _ = traced(batched=True, ops=800)
        diff = diff_traces(events_b, events_b)
        total = sum(
            slot["accesses"] for slot in diff.kind_totals_a.values()
        )
        assert total == sum(e.delta_total for e in events_b)
        assert "span" not in diff.kind_totals_a  # folded, not a kind


class TestDivergenceForensics:
    def test_dropped_op_is_located_with_context(self):
        events_a, _ = traced(batched=False, ops=400)
        ops_a = logical_ops(events_a)
        victim = ops_a[50]
        events_b = [
            e for e in events_a if e.seq != victim.seq
        ]
        diff = diff_traces(events_a, events_b, labels=("good", "bad"))
        assert not diff.aligned
        assert diff.divergence.index == 50
        assert diff.divergence.op_a.key == victim.key
        assert len(diff.divergence.context_a) == 3
        report = diff.report()
        assert "DIVERGE" in report
        assert "first divergence at logical op #50" in report

    def test_length_mismatch_diverges_at_the_tail(self):
        events_a, _ = traced(batched=False, ops=300)
        ops_count = len(logical_ops(events_a))
        last = logical_ops(events_a)[-1]
        events_b = [e for e in events_a if e.seq != last.seq]
        diff = diff_traces(events_a, events_b)
        assert not diff.aligned
        assert diff.divergence.index == ops_count - 1
        assert diff.divergence.op_b is None  # b's sequence ended

    def test_failed_and_non_op_events_never_align(self):
        from repro.hwsim.stats import AccessStats
        from repro.obs.events import TraceEvent

        events = [
            TraceEvent(seq=0, kind="insert", name="insert",
                       attrs={"tag": 5}),
            TraceEvent(seq=1, kind="dequeue", name="dequeue",
                       attrs={"failed": True}),
            TraceEvent(seq=2, kind="section_clear", name="section_clear",
                       deltas={"t": AccessStats(reads=1)}),
        ]
        assert [op.key for op in logical_ops(events)] == [("insert", 5)]


class TestHeaderGating:
    def test_seed_mismatch_refused(self):
        events_a, header_a = traced(batched=False, ops=200)
        events_b, header_b = traced(batched=False, ops=200, seed=7)
        with pytest.raises(TraceCompatibilityError) as err:
            diff_traces(
                events_a, events_b, header_a=header_a, header_b=header_b
            )
        assert "seed mismatch" in str(err.value)

    def test_config_mismatch_refused(self):
        events_a, header_a = traced(batched=False, ops=200)
        header_b = dict(header_a)
        header_b["config"] = dict(header_a["config"], levels=4)
        with pytest.raises(TraceCompatibilityError) as err:
            diff_traces(
                events_a, events_a, header_a=header_a, header_b=header_b
            )
        assert "levels" in str(err.value)

    def test_force_demotes_mismatch_to_note(self):
        events_a, header_a = traced(batched=False, ops=200)
        events_b, header_b = traced(batched=False, ops=200, seed=7)
        diff = diff_traces(
            events_a,
            events_b,
            header_a=header_a,
            header_b=header_b,
            force=True,
        )
        assert any("forced past" in note for note in diff.notes)
        assert not diff.aligned  # different workloads really do diverge

    def test_mode_is_never_gated(self):
        events_a, header_a = traced(batched=False, ops=200)
        events_b, header_b = traced(batched=True, ops=200)
        assert header_a["mode"] != header_b["mode"]
        diff = diff_traces(
            events_a, events_b, header_a=header_a, header_b=header_b
        )
        assert diff.aligned

    def test_unframed_traces_diff_with_note(self):
        events_a, _ = traced(batched=False, ops=200)
        diff = diff_traces(events_a, events_a)
        assert diff.aligned
        assert any("unframed" in note for note in diff.notes)

    def test_granularity_compares_as_float(self):
        events_a, header_a = traced(batched=False, ops=100)
        header_b = dict(header_a)
        header_b["config"] = dict(header_a["config"])
        header_b["config"]["granularity"] = int(
            header_a["config"]["granularity"]
        )
        diff = diff_traces(
            events_a, events_a, header_a=header_a, header_b=header_b
        )
        assert diff.aligned
        assert not any("granularity" in note for note in diff.notes)

    def test_to_dict_is_json_ready(self):
        import json

        events_a, header_a = traced(batched=False, ops=100)
        diff = diff_traces(events_a, events_a, header_a=header_a,
                           header_b=header_a)
        payload = diff.to_dict()
        json.dumps(payload)
        assert payload["aligned"] is True
        assert payload["first_divergence"] is None
