"""Turbo soaks through the telemetry layer: trace equivalence proof.

The CI equivalence argument: a monitored turbo soak and a monitored
gate soak of the same seed must produce traces that diff to zero
logical divergence — identical op streams, identical per-kind access
and cycle totals.  These tests run that argument in-process.
"""

from repro.obs.diff import diff_traces, logical_ops
from repro.obs.runner import run_traced_soak

SEED = 20060101


def test_turbo_soak_reconciles_and_monitors_clean():
    run = run_traced_soak(ops=3_000, seed=SEED, mode="turbo", monitor=True)
    assert run.engine == "turbo"
    assert run.store.circuit.mode == "turbo"
    assert run.reconciled
    assert run.monitors is not None and not run.monitors.violations
    assert "turbo engine" in run.report()
    header = run.tracer.header
    assert header["engine"] == "turbo"
    assert run.to_document()["workload"]["engine"] == "turbo"


def test_turbo_trace_diffs_clean_against_gate():
    gate = run_traced_soak(ops=3_000, seed=SEED)
    turbo = run_traced_soak(ops=3_000, seed=SEED, mode="turbo")
    assert gate.tracer.header["engine"] == "gate"
    diff = diff_traces(
        gate.tracer.events(),
        turbo.tracer.events(),
        header_a=gate.tracer.header,
        header_b=turbo.tracer.header,
    )
    assert diff.aligned
    assert diff.divergence is None
    assert diff.ops_a == diff.ops_b > 0
    # Exact accounting parity shows up as all-zero kind deltas.
    for kind, delta in diff.kind_deltas().items():
        assert delta["count"] == 0, kind
        assert delta["accesses"] == 0, kind
        assert delta["cycles"] == 0, kind
    assert logical_ops(gate.tracer.events()) == logical_ops(
        turbo.tracer.events()
    )


def test_turbo_batched_soak_matches_gate_batched():
    gate = run_traced_soak(ops=3_000, seed=SEED, batched=True)
    turbo = run_traced_soak(ops=3_000, seed=SEED, batched=True, mode="turbo")
    diff = diff_traces(
        gate.tracer.events(),
        turbo.tracer.events(),
        header_a=gate.tracer.header,
        header_b=turbo.tracer.header,
    )
    assert diff.aligned
    assert diff.divergence is None
    for delta in diff.kind_deltas().values():
        assert delta["accesses"] == 0
        assert delta["cycles"] == 0
