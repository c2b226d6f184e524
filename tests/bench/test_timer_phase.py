"""The bench's timer workload: remove/retag churn as matrix cells."""

from repro.bench.perf import (
    MIN_TIMED_WALL_SECONDS,
    _timer_cells,
    check_against_baseline,
    compute_ratios,
    run_workload,
)


def test_timer_phase_structure_and_parity():
    # Deadline order, conservation and exact gate/turbo accounting are
    # parity rules: run_workload raises before timing without them.
    records = run_workload(_timer_cells(1_500, 20060101), min_window=0.0)
    assert [record["name"] for record in records] == [
        "timer/gate/churn",
        "timer/turbo/churn",
    ]
    gate, turbo = records
    assert (gate["engine"], turbo["engine"]) == ("gate", "turbo")
    assert gate["events"] == turbo["events"] == 1_500
    # Every armed timer is accounted for across the verbs.
    assert gate["armed"] > 0
    assert gate["armed"] >= gate["cancelled"] + gate["fired"]
    for key in ("ops", "armed", "cancelled", "repinned", "fired",
                "cycles_per_op", "accesses_per_op"):
        assert gate[key] == turbo[key], key
    # Removals pay the fixed cost plus duplicate-run reads.
    assert gate["cycles_per_op"] >= 4.0
    ratio = compute_ratios(records)["timer_speedup"]
    assert ratio["value"] == round(gate["seconds"] / turbo["seconds"], 2)
    assert ratio["value"] > 0.0


def _timer_document(speedup, seconds=MIN_TIMED_WALL_SECONDS):
    return {
        "preset": "smoke",
        "scenarios": [
            {
                "name": name,
                "seconds": seconds,
                "window_seconds": seconds,
                "ops_per_second": 1000.0,
                "accesses_per_op": 11.0,
                "cycles_per_op": 4.04,
            }
            for name in ("timer/gate/churn", "timer/turbo/churn")
        ],
        "ratios": {"timer_speedup": {"value": speedup}},
    }


def test_baseline_check_flags_timer_speedup_regression():
    baseline = _timer_document(3.0)
    current = _timer_document(1.5)
    problems = check_against_baseline(current, baseline)
    assert any("timer_speedup" in problem for problem in problems)
    assert not check_against_baseline(baseline, baseline)


def test_baseline_check_fences_subsecond_timer_timings():
    # Wall-clock comparisons below the timing fence are noise, not
    # regressions: the check must stay silent however bad the ratio.
    baseline = _timer_document(3.0, seconds=0.01)
    current = _timer_document(0.5, seconds=0.01)
    assert not check_against_baseline(current, baseline)
