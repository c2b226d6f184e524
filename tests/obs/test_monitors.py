"""Online invariant monitors: clean soaks stay silent, seeded faults
are each caught by exactly their intended monitor.

The fault-injection hooks on the circuit perturb *telemetry only* (the
served sequences stay correct), so every test here is a pure
observability check: did the right monitor notice, and did no other
monitor false-positive through the fault?
"""

import random

import pytest

from repro.bench.perf import _drive_batched, _drive_per_op, make_mixed_ops
from repro.core.engine import numpy_or_none
from repro.core.sort_retrieve import FaultInjection
from repro.hwsim.stats import AccessStats
from repro.net.hardware_store import HardwareTagStore
from repro.obs.events import INVARIANT_KIND, TraceEvent
from repro.obs.monitors import (
    MonitorConfig,
    MonitorSuite,
    check_trace,
)
from repro.obs.runner import run_traced_soak
from repro.obs.tracer import Tracer

SEED = 20060101

#: every engine: the traced wrappers that apply the faults are shared
ENGINES = [
    "gate",
    "turbo",
    pytest.param(
        "vector",
        marks=pytest.mark.skipif(
            numpy_or_none() is None, reason="numpy is not installed"
        ),
    ),
]


def faulted_suite(
    fault, *, batched, ops=1_500, warmup=200, seed=SEED, mode=None
):
    """Run a mixed soak, enabling ``fault`` only after a clean warmup.

    The warmup matters: monitors need reference state (a serve
    watermark, the live-tag set) before a fault can be attributed to
    the *specific* guarantee it breaks rather than a first-observation
    fallback.  The faulted phase stops at the first diagnosis — a
    telemetry fault left running forever eventually poisons *reality*
    as other monitors see it (e.g. a misreported serve stream slowly
    rots the live-tag ledger), and those downstream echoes are not the
    attribution under test.
    """
    tracer = Tracer()
    store = HardwareTagStore(
        granularity=8.0, mode=mode, tracer=tracer
    )
    suite = MonitorSuite.for_circuit(store.circuit, tracer=tracer)
    tracer.add_observer(suite)
    stream = make_mixed_ops(ops, seed)
    drive = _drive_batched if batched else _drive_per_op
    drive(store, stream[:warmup])
    assert suite.ok, "warmup must be violation-free"
    store.circuit.fault_injection = fault
    chunk = 40
    for start in range(warmup, ops, chunk):
        drive(store, stream[start:start + chunk])
        if suite.violations:
            break
    return suite, tracer


class TestCleanSoaksAreSilent:
    """Zero false positives on healthy runs — the monitors' half of the
    acceptance criterion."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_10k_mixed_soak_zero_violations(self, batched):
        run = run_traced_soak(
            ops=10_000, seed=SEED, batched=batched, monitor=True
        )
        assert run.monitors is not None
        assert run.monitors.ok
        assert run.monitors.checked > 10_000
        assert run.monitors.counts_by_monitor() == {}

    def test_monitor_summary_reads_ok(self):
        run = run_traced_soak(ops=500, seed=SEED, monitor=True)
        assert "invariants OK" in run.monitors.summary()
        assert "invariants OK" in run.report()


#: (fault, the one monitor that must claim every resulting violation)
FAULT_MATRIX = [
    (FaultInjection(extra_insert_writes=1), "insert_budget"),
    (FaultInjection(extra_dequeue_reads=3), "dequeue_bound"),
    (FaultInjection(skip_free_release=True), "free_list_conservation"),
    (FaultInjection(misreport_serve_offset=-2048), "serve_monotonic"),
    (FaultInjection(misreport_serve_offset=1024), "coverage"),
]


class TestSeededFaultCoverage:
    """Each injected fault trips exactly one monitor, in both modes."""

    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize(
        "fault,expected",
        FAULT_MATRIX,
        ids=[expected for _, expected in FAULT_MATRIX],
    )
    def test_fault_caught_by_exactly_one_monitor(
        self, fault, expected, batched, mode
    ):
        suite, tracer = faulted_suite(fault, batched=batched, mode=mode)
        counts = suite.counts_by_monitor()
        assert counts, f"fault {fault} went unnoticed"
        assert set(counts) == {expected}, (
            f"expected only {expected} to fire, got {counts}"
        )
        # every violation is re-emitted into the trace itself
        reports = tracer.events(INVARIANT_KIND)
        assert len(reports) == len(suite.violations)
        assert all(
            event.attrs["monitor"] == expected for event in reports
        )

    def test_violations_carry_offender_coordinates(self):
        suite, tracer = faulted_suite(
            FaultInjection(extra_insert_writes=1), batched=False
        )
        violation = suite.violations[0]
        assert violation.monitor == "insert_budget"
        assert violation.kind == "insert"
        assert "2R+2W" in violation.message
        report = tracer.events(INVARIANT_KIND)[0]
        assert report.attrs["offender_seq"] == violation.seq
        assert report.attrs["offender_kind"] == "insert"

    def test_dynamic_fault_does_not_corrupt_served_sequence(self):
        """The remove/retag faults, too, are telemetry-only."""

        def drive(store):
            served = []
            live = []
            tag = 0.0
            rng = random.Random(SEED)
            for step in range(400):
                roll = rng.random()
                if roll < 0.5 or not live:
                    tag += rng.random() * 16.0
                    live.append(store.push(tag, step))
                elif roll < 0.75:
                    store.remove(live.pop(rng.randrange(len(live))))
                else:
                    served.append(store.pop_min())
                    live = [
                        handle
                        for handle in live
                        if store.circuit.is_live_handle(handle)
                    ]
            return served

        clean = drive(HardwareTagStore(granularity=8.0))
        store = HardwareTagStore(granularity=8.0, tracer=Tracer())
        store.circuit.fault_injection = FaultInjection(
            misreport_remove_handle=3, skip_removal_release=True
        )
        assert drive(store) == clean

    def test_fault_does_not_corrupt_served_sequence(self):
        """Faults are telemetry-only: the circuit still serves
        correctly, which is what makes clean-mode comparisons valid."""
        stream = make_mixed_ops(1_000, SEED)
        store = HardwareTagStore(granularity=8.0)
        clean = _drive_per_op(store, stream)

        tracer = Tracer()
        store = HardwareTagStore(granularity=8.0, tracer=tracer)
        store.circuit.fault_injection = FaultInjection(
            misreport_serve_offset=-2048
        )
        faulted = _drive_per_op(store, stream)
        assert clean == faulted


def faulted_dynamic_suite(
    fault, *, ops=1_200, warmup=200, seed=SEED, mode=None
):
    """Like :func:`faulted_suite`, but the churn includes remove/retag.

    The dynamic-update monitors only judge ``remove``/``retag`` events,
    which the bench mixed stream never emits — this driver interleaves
    all four verbs so the handle ledger and the removal conservation
    state actually accumulate before the fault turns on.
    """
    tracer = Tracer()
    store = HardwareTagStore(granularity=8.0, mode=mode, tracer=tracer)
    suite = MonitorSuite.for_circuit(store.circuit, tracer=tracer)
    tracer.add_observer(suite)
    rng = random.Random(seed)
    live = []
    tag = 0.0

    def step(index):
        nonlocal tag, live
        roll = rng.random()
        if roll < 0.5 or not live:
            tag += rng.random() * 16.0
            live.append(store.push(tag, index))
        elif roll < 0.7:
            store.remove(live.pop(rng.randrange(len(live))))
        elif roll < 0.85:
            slot = rng.randrange(len(live))
            live[slot] = store.retag(
                live[slot],
                store.peek_min_exact()[0] + rng.random() * 32.0,
            )
        else:
            store.pop_min()
            live = [
                handle
                for handle in live
                if store.circuit.is_live_handle(handle)
            ]

    for index in range(warmup):
        step(index)
    assert suite.ok, "warmup must be violation-free"
    store.circuit.fault_injection = fault
    for index in range(warmup, ops):
        step(index)
        if suite.violations:
            break
    return suite, tracer


#: the dynamic-update pair: (fault, the one monitor that must claim it)
DYNAMIC_FAULT_MATRIX = [
    (FaultInjection(misreport_remove_handle=3), "handle_liveness"),
    (FaultInjection(skip_removal_release=True), "free_list_removal"),
]


class TestDynamicUpdateFaultCoverage:
    """The remove/retag monitors each catch exactly their fault."""

    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize(
        "fault,expected",
        DYNAMIC_FAULT_MATRIX,
        ids=[expected for _, expected in DYNAMIC_FAULT_MATRIX],
    )
    def test_fault_caught_by_exactly_one_monitor(self, fault, expected, mode):
        suite, tracer = faulted_dynamic_suite(fault, mode=mode)
        counts = suite.counts_by_monitor()
        assert counts, f"fault {fault} went unnoticed"
        assert set(counts) == {expected}, (
            f"expected only {expected} to fire, got {counts}"
        )
        reports = tracer.events(INVARIANT_KIND)
        assert len(reports) == len(suite.violations)
        assert all(
            event.attrs["monitor"] == expected for event in reports
        )

    def test_clean_dynamic_churn_is_silent(self):
        suite, _ = faulted_dynamic_suite(FaultInjection(), ops=1_200)
        assert suite.ok
        assert suite.checked > 1_000


class TestMonitorConfig:
    def test_dequeue_bound_deferred_vs_eager(self):
        deferred = MonitorConfig(levels=3, eager_marker_removal=False)
        assert deferred.dequeue_access_bound == 2
        eager = MonitorConfig(levels=3, eager_marker_removal=True)
        assert eager.dequeue_access_bound == 2 + 2 + 2 * 3

    def test_from_circuit_config_defaults(self):
        config = MonitorConfig.from_circuit_config({})
        assert config.levels == 3
        assert config.tag_space == 4096
        assert config.modular is True
        assert config.section_bits == 8

    def test_from_circuit_config_reads_describe_dict(self):
        described = HardwareTagStore(granularity=8.0).describe()
        config = MonitorConfig.from_circuit_config(described)
        assert config.tag_space == described["tag_space"]
        assert config.branching_factor == described["branching_factor"]


def _op(seq, kind, *, deltas=None, **attrs):
    return TraceEvent(
        seq=seq,
        kind=kind,
        name=kind,
        deltas={
            name: AccessStats(reads=r, writes=w)
            for name, (r, w) in (deltas or {}).items()
        },
        attrs=attrs,
    )


class TestHandCraftedSemantics:
    """Precise unit semantics on synthetic event streams."""

    def test_wrap_aware_monotonicity_accepts_wraparound(self):
        # 4000 -> 100 wraps forward (distance 196 < 2048): legal.
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=4000, occupancy=1))
        suite(_op(1, "insert", tag=100, occupancy=2))
        suite(_op(2, "dequeue", tag=4000, occupancy=1,
                  deltas={"tag_storage": (1, 1)}))
        suite(_op(3, "dequeue", tag=100, occupancy=0,
                  deltas={"tag_storage": (1, 1)}))
        assert suite.ok

    def test_backwards_serve_is_flagged(self):
        # 3000 -> 500 is a wrapped distance of 1596 (< 2048), i.e. a
        # legal wrap; 3000 -> 1000 is 2096 (>= half the space) and can
        # only be min-tag service going backwards.
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=1000, occupancy=1))
        suite(_op(1, "insert", tag=3000, occupancy=2))
        suite(_op(2, "dequeue", tag=3000, occupancy=1,
                  deltas={"tag_storage": (1, 1)}))
        suite(_op(3, "dequeue", tag=1000, occupancy=0,
                  deltas={"tag_storage": (1, 1)}))
        assert suite.counts_by_monitor() == {"serve_monotonic": 1}

    def test_drain_resets_the_watermark(self):
        # serving to empty ends the busy period: restarting lower is legal
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=3000, occupancy=1))
        suite(_op(1, "dequeue", tag=3000, occupancy=0,
                  deltas={"tag_storage": (1, 1)}))
        suite(_op(2, "insert", tag=100, occupancy=1))
        suite(_op(3, "dequeue", tag=100, occupancy=0,
                  deltas={"tag_storage": (1, 1)}))
        assert suite.ok

    def test_section_clear_over_live_tags_is_flagged(self):
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=260, occupancy=1))  # section 1 (256..511)
        suite(_op(1, "section_clear", root_literal=1))
        counts = suite.counts_by_monitor()
        assert counts == {"coverage": 1}
        assert "live value" in suite.violations[0].message

    def test_marker_flush_with_live_tags_is_flagged(self):
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=50, occupancy=1))
        suite(_op(1, "marker_flush"))
        assert suite.counts_by_monitor() == {"coverage": 1}

    def test_one_faulty_op_yields_exactly_one_violation(self):
        # over-budget insert ALSO bumps occupancy oddly — but the first
        # (most specific) monitor claims it, and only it.
        suite = MonitorSuite()
        suite(_op(0, "insert", tag=10, occupancy=1,
                  deltas={"tag_storage": (1, 2)}))
        suite(_op(1, "insert", tag=20, occupancy=4,
                  deltas={"tag_storage": (5, 5)}))
        assert len(suite.violations) == 1
        assert suite.violations[0].monitor == "insert_budget"

    def test_failed_ops_and_own_reports_are_skipped(self):
        suite = MonitorSuite()
        suite(_op(0, "dequeue", failed=True,
                  deltas={"tag_storage": (9, 9)}))
        suite(_op(1, INVARIANT_KIND, monitor="coverage"))
        assert suite.ok
        assert suite.checked == 0


class TestOfflineReplay:
    def test_check_trace_matches_online_verdict(self, tmp_path):
        from repro.obs.exporters import read_trace

        sink = tmp_path / "trace.jsonl"
        run = run_traced_soak(
            ops=1_000, seed=SEED, trace_sink=str(sink), monitor=True
        )
        assert run.monitors.ok
        document = read_trace(str(sink))
        suite = check_trace(document.events, header=document.header)
        assert suite.ok
        assert suite.checked == run.monitors.checked
