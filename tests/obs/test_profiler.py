"""Cycle/access attribution profiler: rollups preserve the attribution
invariant, span ancestry reconstructs, worst cases carry context."""

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.hwsim.stats import AccessStats
from repro.net.hardware_store import HardwareTagStore
from repro.obs.events import SPAN_KIND, TraceEvent
from repro.obs.profiler import profile_events
from repro.obs.tracer import Tracer

SEED = 20060101


def traced_events(*, batched, ops=2_000):
    tracer = Tracer()
    store = HardwareTagStore(
        granularity=8.0, tracer=tracer
    )
    drive = _drive_batched if batched else _drive_per_op
    drive(store, make_mixed_ops(ops, SEED))
    return tracer.events(), store


class TestRealTraceRollups:
    def test_totals_reconcile_with_registry(self):
        """The profile is a *complete* ledger: component totals sum to
        exactly the registry grand total, in both modes."""
        for batched in (False, True):
            events, store = traced_events(batched=batched)
            profile = profile_events(events)
            assert (
                profile.total_accesses()
                == store.circuit.registry.total().total
            )

    def test_per_op_kinds(self):
        events, _ = traced_events(batched=False)
        profile = profile_events(events)
        inserts = profile.kinds["insert"]
        assert inserts.count == sum(
            1 for e in events if e.kind == "insert"
        )
        # per-op mode: no spans, self == total
        assert inserts.child_accesses == 0
        assert inserts.self_accesses == inserts.total_accesses
        assert profile.kinds["dequeue"].cycles > 0

    def test_batched_span_totals_absorb_children(self):
        events, _ = traced_events(batched=True)
        profile = profile_events(events)
        span = profile.kinds["span:insert_batch"]
        assert span.count > 0
        # fast-mode batch deltas live on the span, so its self-cost is
        # the whole batch; totals can only add on top of self
        assert span.total_accesses >= span.self_accesses > 0

    def test_flamegraph_lines_sum_to_total(self):
        events, store = traced_events(batched=True)
        profile = profile_events(events)
        lines = profile.flamegraph_lines()
        assert lines
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == store.circuit.registry.total().total
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path
            assert int(value) > 0

    def test_report_renders(self):
        events, _ = traced_events(batched=False, ops=600)
        report = profile_events(events).report(top_k=3, window=2)
        assert "per-component memory traffic" in report
        assert "tag_storage" in report
        assert "worst-case forensics" in report
        payload = profile_events(events).to_dict()
        assert payload["events"] == len(events)


def _delta(reads, writes):
    return {"tag_storage": AccessStats(reads=reads, writes=writes)}


class TestSyntheticAncestry:
    """Hand-built nested spans: exact self/total and path semantics."""

    def events(self):
        return [
            TraceEvent(seq=0, kind="insert", name="insert",
                       span_id=1, attrs={"batched": True}),
            TraceEvent(seq=1, kind="clamp", name="clamp",
                       span_id=1, deltas=_delta(2, 0)),
            TraceEvent(seq=2, kind=SPAN_KIND, name="insert_batch",
                       deltas=_delta(3, 4),
                       attrs={"span": 1, "count": 1}),
            TraceEvent(seq=3, kind="dequeue", name="dequeue",
                       deltas=_delta(1, 1), attrs={"cycles": 4}),
        ]

    def test_span_self_vs_total(self):
        profile = profile_events(self.events())
        span = profile.kinds["span:insert_batch"]
        assert span.self_accesses == 7  # the span's own amortized work
        assert span.child_accesses == 2  # the clamp's claimed traffic
        assert span.total_accesses == 9
        assert profile.kinds["dequeue"].self_accesses == 2

    def test_frame_paths_reconstruct_ancestry(self):
        profile = profile_events(self.events())
        assert "insert_batch;clamp" in profile.frames
        assert "insert_batch;insert" in profile.frames
        assert "dequeue" in profile.frames
        assert profile.frames["insert_batch;clamp"].self_accesses == 2

    def test_worst_cases_ranked_with_window(self):
        profile = profile_events(self.events())
        cases = profile.worst_cases(2, window=1)
        assert [case.cost for case in cases] == [7, 2]
        top = cases[0]
        assert top.event.seq == 2
        assert [e.seq for e in top.window] == [1, 2, 3]
        assert "insert_batch" in top.describe()

    def test_zero_cost_events_never_rank(self):
        profile = profile_events(self.events())
        ranked_seqs = {c.event.seq for c in profile.worst_cases(10)}
        assert 0 not in ranked_seqs  # the delta-less child insert


class TestPerShardRollups:
    def sharded_events(self, *, shards=3, ops=800):
        from repro.fabric.fabric import ScheduleFabric

        tracer = Tracer()
        fabric = ScheduleFabric(
            shards=shards, granularity=8.0, tracer=tracer
        )
        _drive_per_op(fabric, make_mixed_ops(ops, SEED))
        return tracer.events()

    def test_shards_roll_up_component_stamped_cost(self):
        profile = profile_events(self.sharded_events())
        assert {"shard0", "shard1", "shard2"} <= set(profile.shards)
        stamped_total = sum(
            event.delta_total
            for event in profile.events
            if "component" in event.attrs
        )
        assert (
            sum(r.self_accesses for r in profile.shards.values())
            == stamped_total
        )

    def test_unstamped_trace_has_no_shards(self):
        events, _ = traced_events(batched=False, ops=300)
        profile = profile_events(events)
        assert profile.shards == {}
        assert "per-shard cost" not in profile.report()

    def test_shards_in_document_and_report(self):
        profile = profile_events(self.sharded_events())
        document = profile.to_dict()
        assert set(document["shards"]) == set(profile.shards)
        for name, rollup in profile.shards.items():
            assert document["shards"][name]["count"] == rollup.count
        report = profile.report()
        assert "per-shard cost" in report
        assert "shard0" in report
