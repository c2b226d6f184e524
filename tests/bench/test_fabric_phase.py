"""The bench's fabric workload: the shard sweep as matrix cells."""

from repro.bench.perf import (
    FABRIC_SHARD_SWEEP,
    GATES,
    _fabric_cells,
    check_against_baseline,
    compute_ratios,
    make_flow_ops,
    run_workload,
)


def test_flow_ops_shape():
    ops = make_flow_ops(1_000, 42, flows=32)
    assert len(ops) == 1_000
    pushes = [op for op in ops if op[0] == "push"]
    assert pushes and all(0 <= op[2] < 32 for op in pushes)
    # Deterministic per seed.
    assert ops == make_flow_ops(1_000, 42, flows=32)
    assert ops != make_flow_ops(1_000, 43, flows=32)


def _fabric_records(count):
    # The one-shard identity (a one-shard fabric serves exactly what one
    # circuit serves) is a parity rule: run_workload raises without it.
    return {
        record["name"]: record
        for record in run_workload(
            _fabric_cells(count, 20060101, ("gate", "turbo")), min_window=0.0
        )
    }


def test_fabric_phase_reports_sweep_and_speedup():
    records = _fabric_records(1_500)
    # One circuit cell plus one per sweep size, on each engine.
    assert len(records) == 2 * (1 + len(FABRIC_SHARD_SWEEP))
    single = records["fabric/gate/circuit"]["cycles_per_op"]
    speedups = []
    for shards in FABRIC_SHARD_SWEEP:
        gate = records[f"fabric/gate/shards={shards}"]
        turbo = records[f"fabric/turbo/shards={shards}"]
        assert gate["shards"] == shards
        # The engines charge the same modeled makespan.
        assert gate["cycles_per_op"] == turbo["cycles_per_op"]
        speedups.append(single / gate["cycles_per_op"])
    # One shard adds no modeled parallelism; wider fabrics shrink the
    # makespan.
    assert speedups[0] == 1.0
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2.0
    ratios = compute_ratios(list(records.values()))
    assert ratios["fabric_modeled_speedup"]["value"] == round(speedups[-1], 2)
    assert ratios["fabric_modeled_speedup"]["kind"] == "modeled"


def _ratio_document(name, value, window=1.0):
    gate = next(gate for gate in GATES if gate.name == name)
    scenarios = [
        {
            "name": cell,
            "seconds": window,
            "window_seconds": window,
            "ops_per_second": 1000.0,
            "accesses_per_op": 1.0,
            "cycles_per_op": 4.0,
        }
        for cell in (gate.numerator, gate.denominator)
    ]
    ratios = {} if value is None else {name: {"value": value}}
    return {"preset": "full", "scenarios": scenarios, "ratios": ratios}


def test_baseline_check_flags_fabric_speedup_regression():
    baseline = _ratio_document("fabric_modeled_speedup", 10.0)
    current = _ratio_document("fabric_modeled_speedup", 5.0)
    problems = check_against_baseline(current, baseline)
    assert any("fabric_modeled_speedup" in problem for problem in problems)
    assert not check_against_baseline(baseline, baseline)
    # Modeled speedup is cycle arithmetic: no timing floor fences it.
    short = _ratio_document("fabric_modeled_speedup", 5.0, window=0.01)
    assert check_against_baseline(short, baseline)


def test_fabric_phase_reports_wall_speedup_beside_modeled():
    records = _fabric_records(600)
    ratios = compute_ratios(list(records.values()))
    widest = f"fabric/gate/shards={FABRIC_SHARD_SWEEP[-1]}"
    single = records["fabric/gate/circuit"]["seconds"]
    wall = ratios["fabric_wall_speedup"]
    assert wall["value"] == round(single / records[widest]["seconds"], 2)
    assert (wall["numerator"], wall["denominator"]) == (
        widest,
        "fabric/gate/circuit",
    )
    assert wall["kind"] == "wall"


def test_baseline_check_flags_wall_speedup_regression():
    def flagged(baseline, current):
        problems = check_against_baseline(current, baseline)
        return any("fabric_wall_speedup" in problem for problem in problems)

    document = _ratio_document
    assert flagged(
        document("fabric_wall_speedup", 0.5),
        document("fabric_wall_speedup", 0.3),
    )
    assert not flagged(
        document("fabric_wall_speedup", 0.5),
        document("fabric_wall_speedup", 0.45),
    )
    # A baseline without the figure, or a run under the timing floor,
    # is not judged.
    assert not flagged(
        document("fabric_wall_speedup", None),
        document("fabric_wall_speedup", 0.3),
    )
    assert not flagged(
        document("fabric_wall_speedup", 0.5, window=0.01),
        document("fabric_wall_speedup", 0.3, window=0.01),
    )
