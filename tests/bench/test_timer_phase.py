"""The bench suite's timer dynamic-update phase."""

from repro.bench.perf import MIN_TIMED_WALL_SECONDS, _bench_timer, check_against_baseline


def test_timer_phase_structure_and_parity():
    summary, scenarios = _bench_timer(1_500, 20060101)
    assert summary["name"] == "timer_churn"
    assert summary["pattern"] == "churn"
    assert summary["events"] == 1_500
    # Every armed timer is accounted for across the verbs.
    assert summary["armed"] > 0
    assert summary["armed"] >= summary["cancelled"] + summary["fired"]
    # Both engines ran, identical behaviour asserted inside the phase.
    assert summary["served_orders_identical"] is True
    assert summary["accounting_identical"] is True
    assert summary["speedup"] > 0.0
    names = [scenario["name"] for scenario in scenarios]
    assert names == [
        "timer_churn_gate:dynamic",
        "timer_churn_turbo:dynamic",
    ]
    gate, turbo = scenarios
    # Deterministic metrics match exactly between the engines.
    assert gate["cycles_per_op"] == turbo["cycles_per_op"]
    assert gate["accesses_per_op"] == turbo["accesses_per_op"]
    assert gate["ops"] == turbo["ops"]
    assert gate["events"] == turbo["events"] == 1_500


def _timer_document(speedup, seconds=MIN_TIMED_WALL_SECONDS):
    return {
        "preset": "smoke",
        "scenarios": [],
        "timer": {
            "speedup": speedup,
            "gate": {"seconds": seconds},
            "turbo": {"seconds": seconds},
        },
    }


def test_baseline_check_flags_timer_speedup_regression():
    baseline = _timer_document(3.0)
    current = _timer_document(1.5)
    problems = check_against_baseline(current, baseline)
    assert any("timer-churn turbo speedup" in problem for problem in problems)
    assert not check_against_baseline(baseline, baseline)


def test_baseline_check_fences_subsecond_timer_timings():
    # Wall-clock comparisons below the timing fence are noise, not
    # regressions: the check must stay silent however bad the ratio.
    baseline = _timer_document(3.0, seconds=0.01)
    current = _timer_document(0.5, seconds=0.01)
    assert not check_against_baseline(current, baseline)
