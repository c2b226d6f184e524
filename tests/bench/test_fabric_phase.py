"""The bench suite's fabric scale-out phase."""

from repro.bench.perf import (
    FABRIC_SHARD_SWEEP,
    _bench_fabric,
    check_against_baseline,
    make_flow_ops,
)


def test_flow_ops_shape():
    ops = make_flow_ops(1_000, 42, flows=32)
    assert len(ops) == 1_000
    pushes = [op for op in ops if op[0] == "push"]
    assert pushes and all(0 <= op[2] < 32 for op in pushes)
    # Deterministic per seed.
    assert ops == make_flow_ops(1_000, 42, flows=32)
    assert ops != make_flow_ops(1_000, 43, flows=32)


def test_fabric_phase_reports_sweep_and_speedup():
    summary, scenarios = _bench_fabric(1_500, 20060101)
    assert [entry["shards"] for entry in summary["sweep"]] == list(
        FABRIC_SHARD_SWEEP
    )
    assert summary["one_shard_order_identical"] is True
    # One shard adds no modeled parallelism...
    assert summary["sweep"][0]["modeled_speedup"] == 1.0
    # ...wider fabrics shrink the makespan.
    speedups = [entry["modeled_speedup"] for entry in summary["sweep"]]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2.0
    # Single-circuit scenario + one per sweep size.
    assert len(scenarios) == 1 + len(FABRIC_SHARD_SWEEP)


def test_baseline_check_flags_fabric_speedup_regression():
    baseline = {
        "preset": "smoke",
        "scenarios": [],
        "fabric": {"modeled_speedup": 10.0, "max_shards": 16},
    }
    current = {
        "preset": "smoke",
        "scenarios": [],
        "fabric": {"modeled_speedup": 5.0, "max_shards": 16},
    }
    problems = check_against_baseline(current, baseline)
    assert any("fabric modeled speedup" in problem for problem in problems)
    assert not check_against_baseline(baseline, baseline)


def test_fabric_phase_reports_wall_speedup_beside_modeled():
    summary, scenarios = _bench_fabric(600, 20060101)
    seconds = {scenario["name"]: scenario["seconds"] for scenario in scenarios}
    single = seconds["fabric_single_circuit:batched"]
    for entry in summary["sweep"]:
        fabric = seconds[f"fabric_batched:shards={entry['shards']}"]
        assert entry["wall_speedup"] == round(single / fabric, 2)
    assert summary["wall_speedup"] == summary["sweep"][-1]["wall_speedup"]


def _fabric_document(wall_speedup, seconds):
    scenarios = [
        {
            "name": name,
            "seconds": seconds,
            "ops_per_second": 1000.0,
            "accesses_per_op": 1.0,
            "cycles_per_op": 4.0,
        }
        for name in (
            "fabric_single_circuit:batched",
            "fabric_batched:shards=16",
        )
    ]
    fabric = {"modeled_speedup": 10.0, "max_shards": 16}
    if wall_speedup is not None:
        fabric["wall_speedup"] = wall_speedup
    return {"preset": "full", "scenarios": scenarios, "fabric": fabric}


def test_baseline_check_flags_wall_speedup_regression():
    def flagged(baseline, current):
        problems = check_against_baseline(current, baseline)
        return any("fabric wall speedup" in problem for problem in problems)

    assert flagged(_fabric_document(0.5, 1.0), _fabric_document(0.3, 1.0))
    assert not flagged(_fabric_document(0.5, 1.0), _fabric_document(0.45, 1.0))
    # A baseline without the figure, or a run under the timing floor,
    # is not judged.
    assert not flagged(_fabric_document(None, 1.0), _fabric_document(0.3, 1.0))
    assert not flagged(
        _fabric_document(0.5, 0.01), _fabric_document(0.3, 0.01)
    )
