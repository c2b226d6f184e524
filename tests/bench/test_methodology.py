"""The bench's one methodology: one timer, one parity check, one gate
table, and a baseline read before anything runs."""

import dataclasses
import gc
import json

import pytest

from repro.bench import perf
from repro.bench.perf import (
    GATES,
    MIN_TIMED_WALL_SECONDS,
    Calibration,
    Cell,
    ParityError,
    check_against_baseline,
    floor_failures,
    time_cells,
)


def _cell(name, run, setup=lambda: None):
    return Cell(name, "gate", "drive", setup, run)


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class FakeClock:
    """``perf.time`` stand-in: setup costs 10 ticks, a pass 1 tick."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestTimer:
    def test_rounds_run_round_robin_across_cells(self):
        log = []
        cells = [
            _cell(name, lambda _state, name=name: log.append(name))
            for name in ("a", "b", "c")
        ]
        timings = time_cells(cells, rounds=3, min_window=0.0)
        assert log == ["a", "b", "c"] * 3
        assert sorted(timings) == ["a", "b", "c"]
        assert all(timing.passes == 1 for timing in timings.values())

    def test_window_repeats_on_fresh_state_outside_the_timed_span(
        self, monkeypatch
    ):
        clock = FakeClock()
        monkeypatch.setattr(perf, "time", clock)
        states = []

        def setup():
            clock.tick(10.0)
            states.append(object())
            return states[-1]

        seen = []

        def run(state):
            seen.append(state)
            clock.tick(1.0)

        timing = time_cells(
            [_cell("a", run, setup)], rounds=1, min_window=3.5
        )["a"]
        assert (timing.passes, timing.window, timing.seconds) == (4, 4.0, 1.0)
        assert seen == states  # one fresh state per pass

    def test_best_window_is_kept(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(perf, "time", clock)
        costs = iter([3.0, 1.0, 2.0])
        timing = time_cells(
            [_cell("a", lambda _state: clock.tick(next(costs)))],
            rounds=3,
            min_window=0.0,
        )["a"]
        assert timing.seconds == 1.0

    def test_collector_paused_inside_each_window_and_restored(
        self, collector_on
    ):
        seen = []
        time_cells(
            [_cell("a", lambda _state: seen.append(gc.isenabled()))],
            rounds=2,
            min_window=0.0,
        )
        assert seen == [False, False]
        assert gc.isenabled()

        def boom(_state):
            seen.append(gc.isenabled())
            raise RuntimeError("cell failed")

        with pytest.raises(RuntimeError):
            time_cells([_cell("b", boom)], rounds=1, min_window=0.0)
        assert seen[-1] is False
        assert gc.isenabled()

    def test_a_paused_collector_stays_paused(self, collector_on):
        gc.disable()
        try:
            time_cells([_cell("a", lambda _state: None)], min_window=0.0)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_calibration_is_the_median_of_its_slices(self):
        calibration = Calibration()
        time_cells(
            [_cell("a", lambda _state: None)],
            rounds=3,
            min_window=0.0,
            calibration=calibration,
        )
        assert len(calibration.slices) == 3  # one slice per round
        assert all(speed > 0 for speed in calibration.slices)
        calibration.slices[:] = [5.0, 1.0, 3.0, 100.0]
        assert calibration.score() == 4.0
        calibration.slices.append(2.0)
        assert calibration.score() == 3.0


def _replace(cells, name, wrap):
    """``cells`` with ``name``'s pass replaced by ``wrap(run, state)``."""
    return [
        dataclasses.replace(
            cell, run=lambda state, run=cell.run: wrap(run, state)
        )
        if cell.name == name
        else cell
        for cell in cells
    ]


def _drop_last(run, state):
    return run(state)[:-1]


def _extra_cycles(run, state):
    served = run(state)
    state.circuit.cycles += 4
    return served


def _lose_a_timer(run, state):
    timer_run = run(state)
    timer_run.cancelled += 1
    return timer_run


PARITY_BREAKS = {
    "dropped entry": (
        lambda: perf._mixed_cells(600, 7, ("gate", "turbo")),
        "mixed/turbo/per_op",
        _drop_last,
        "served a different sequence",
    ),
    "gate/turbo cycles": (
        lambda: perf._mixed_cells(600, 7, ("gate", "turbo")),
        "mixed/turbo/batched",
        _extra_cycles,
        "cycles",
    ),
    "one-shard fabric": (
        lambda: perf._fabric_cells(600, 7, ("gate",)),
        "fabric/gate/shards=1",
        _drop_last,
        "than fabric/gate/circuit",
    ),
    "timer conservation": (
        lambda: perf._timer_cells(300, 7),
        "timer/turbo/churn",
        _lose_a_timer,
        "conservation",
    ),
}


@pytest.mark.parametrize("rule", sorted(PARITY_BREAKS))
def test_parity_break_raises_before_any_timing(rule, monkeypatch):
    build, name, wrap, message = PARITY_BREAKS[rule]
    timed = []
    monkeypatch.setattr(
        perf, "time_cells", lambda *args, **kwargs: timed.append(args)
    )
    with pytest.raises(ParityError, match=message):
        perf.run_workload(_replace(build(), name, wrap), min_window=0.0)
    assert not timed


def test_intact_workload_is_timed():
    records = perf.run_workload(
        perf._mixed_cells(600, 7, ("gate", "turbo")), min_window=0.0
    )
    assert [record["name"] for record in records] == [
        "mixed/gate/per_op",
        "mixed/gate/batched",
        "mixed/turbo/per_op",
        "mixed/turbo/batched",
    ]
    for record in records:
        assert record["passes"] == 1
        assert record["window_seconds"] == record["seconds"] > 0


def _gate_document(gate, value, window=1.0):
    scenarios = [
        {
            "name": name,
            "engine": name.split("/")[1],
            "ops": 1000,
            "seconds": window,
            "window_seconds": window,
            "passes": 1,
            "ops_per_second": 1000 / window,
            "accesses_per_op": 1.0,
            "cycles_per_op": 4.0,
        }
        for name in (gate.numerator, gate.denominator)
    ]
    return {
        "preset": "full",
        "machine": {},
        "scenarios": scenarios,
        "ratios": {gate.name: {"value": value}},
    }


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_check_flags_each_gate_row(gate):
    baseline = _gate_document(gate, 2.0)
    problems = check_against_baseline(_gate_document(gate, 1.5), baseline)
    assert [problem for problem in problems if gate.name in problem]
    assert not check_against_baseline(_gate_document(gate, 1.65), baseline)
    assert not check_against_baseline(_gate_document(gate, 2.0), baseline)
    if not gate.modeled:
        # Wall ratios resting on a window below the floor are noise.
        short = MIN_TIMED_WALL_SECONDS / 2
        assert not check_against_baseline(
            _gate_document(gate, 1.5, window=short), baseline
        )
        assert not check_against_baseline(
            _gate_document(gate, 1.5), _gate_document(gate, 2.0, short)
        )


def test_floor_table_keeps_its_values_and_presets():
    floors = {
        gate.name: (gate.floor, gate.presets)
        for gate in GATES
        if gate.floor is not None
    }
    assert floors == {
        "batched_speedup": (1.5, ("full",)),
        "turbo_speedup": (3.0, ("full",)),
        "turbo_vs_batched": (1.0, ("full", "smoke")),
        "vector_speedup": (10.0, ("full", "smoke")),
        "fabric_modeled_speedup": (4.0, ("full",)),
    }


@pytest.mark.parametrize(
    "gate", [gate for gate in GATES if gate.floor is not None],
    ids=lambda gate: gate.name,
)
def test_floor_failures_read_the_preset(gate):
    for preset in ("full", "smoke"):
        document = {
            "preset": preset,
            "ratios": {gate.name: {"value": gate.floor - 0.01}},
        }
        failures = floor_failures(document)
        assert bool(failures) == (preset in gate.presets)
        document["ratios"][gate.name]["value"] = gate.floor
        assert not floor_failures(document)


@pytest.mark.parametrize(
    "content",
    [
        None,
        '{"schema": 8, "preset": "smoke", "scenar',
        json.dumps({"schema": 6, "preset": "smoke", "scenarios": []}),
    ],
    ids=["missing", "truncated", "schema-6"],
)
def test_check_refuses_an_unusable_baseline_before_running(
    content, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)
    ran = []
    monkeypatch.setattr(perf, "run_bench", lambda **kwargs: ran.append(kwargs))
    assert perf.main(["--smoke", "--check", "--output", str(path)]) == 1
    assert not ran
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.strip()]
    assert len(lines) == 1, lines
    assert lines[0].startswith("FAIL: ")
    assert str(path) in lines[0]
    assert "python -m repro bench" in lines[0]
    assert "Traceback" not in captured.err
    assert not captured.out
