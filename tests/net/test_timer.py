"""Timer-wheel workload tests (``repro.net.timer``).

The wheel is the insert/cancel-heavy face of the circuit: most timers
never fire — they are cancelled or repinned — so these tests pin the
token lifecycle (tokens survive reset, die with cancel/fire), deadline
ordering of everything that does fire, timer conservation across all
three scenario families, store/fabric backend parity of the facade, and
the ``python -m repro timer`` CLI contract.
"""

import json

import pytest

from repro.fabric.fabric import ScheduleFabric
from repro.hwsim.errors import ProtocolError
from repro.net.hardware_store import HardwareTagStore
from repro.net.timer import (
    PATTERNS,
    TimerWheel,
    main,
    run_timer_soak,
)


def make_wheel(**kwargs):
    return TimerWheel(HardwareTagStore(**kwargs))


class TestTimerWheel:
    def test_arm_and_fire_in_deadline_order(self):
        # Arms stay at-or-above the live minimum — a behind-minimum arm
        # would be clamped up to it (Section III-A), tested separately.
        wheel = make_wheel()
        wheel.arm(10.0, "a")
        wheel.arm(30.0, "b")
        wheel.arm(20.0, "c")
        due = wheel.expire_until(25.0)
        assert [timer_id for _, timer_id in due] == ["a", "c"]
        assert [deadline for deadline, _ in due] == [10.0, 20.0]
        assert wheel.pending == 1
        assert wheel.fired == 2

    def test_expire_until_leaves_future_timers(self):
        wheel = make_wheel()
        wheel.arm(100.0, 1)
        assert wheel.expire_until(50.0) == []
        assert wheel.pending == 1

    def test_cancel_disarms_and_returns_id(self):
        wheel = make_wheel()
        token = wheel.arm(10.0, "rto-7")
        assert wheel.cancel(token) == "rto-7"
        assert wheel.pending == 0
        assert wheel.cancelled == 1
        assert wheel.expire_until(float("inf")) == []

    def test_cancel_spent_token_raises(self):
        wheel = make_wheel()
        token = wheel.arm(10.0, 1)
        wheel.cancel(token)
        with pytest.raises(ProtocolError):
            wheel.cancel(token)

    def test_fired_token_is_spent(self):
        wheel = make_wheel()
        token = wheel.arm(10.0, 1)
        wheel.expire_until(20.0)
        with pytest.raises(ProtocolError):
            wheel.cancel(token)
        with pytest.raises(ProtocolError):
            wheel.reset(token, 30.0)

    def test_reset_keeps_token_moves_deadline(self):
        wheel = make_wheel()
        token = wheel.arm(10.0, "flow")
        assert wheel.reset(token, 100.0) == token
        assert wheel.expire_until(50.0) == []
        assert wheel.expire_until(150.0) == [(100.0, "flow")]
        assert wheel.repinned == 1

    def test_token_survives_many_resets(self):
        wheel = make_wheel()
        token = wheel.arm(10.0, "flow")
        for deadline in (40.0, 70.0, 25.0, 90.0):
            assert wheel.reset(token, deadline) == token
        assert wheel.cancel(token) == "flow"

    def test_reset_can_pull_deadline_earlier(self):
        wheel = make_wheel()
        late = wheel.arm(100.0, "late")
        wheel.reset(late, 20.0)
        wheel.arm(50.0, "mid")
        due = wheel.expire_until(float("inf"))
        assert [timer_id for _, timer_id in due] == ["late", "mid"]
        assert [deadline for deadline, _ in due] == [20.0, 50.0]

    def test_behind_minimum_arm_clamps_to_head_quantum(self):
        # The circuit refuses to serve a tag behind its live minimum:
        # the store clamps it up to the minimum's quantum and serves it
        # FCFS there.  The wheel's effective-deadline ledger records the
        # lift, so the order check stays sound.
        wheel = make_wheel()
        wheel.arm(100.0, "head")
        wheel.arm(10.0, "late-arm")
        assert wheel.backend.clamped_inserts == 1
        due = wheel.expire_until(float("inf"))
        assert [timer_id for _, timer_id in due] == ["head", "late-arm"]
        assert wheel.fired_effective == [100.0, 100.0]

    def test_conservation_counters(self):
        wheel = make_wheel()
        tokens = [wheel.arm(10.0 * (i + 1), i) for i in range(6)]
        wheel.cancel(tokens[0])
        wheel.reset(tokens[1], 200.0)
        wheel.expire_until(45.0)  # fires tokens 2..3 (10 was cancelled)
        assert wheel.armed == 6
        assert wheel.armed == wheel.fired + wheel.cancelled + wheel.pending

    def test_fabric_backend_same_facade(self):
        wheel = TimerWheel(ScheduleFabric(shards=4))
        tokens = [wheel.arm(10.0 * (i + 1), i) for i in range(8)]
        wheel.cancel(tokens[3])
        wheel.reset(tokens[0], 500.0)
        due = wheel.expire_until(float("inf"))
        deadlines = [deadline for deadline, _ in due]
        assert deadlines == sorted(deadlines)
        assert wheel.armed == wheel.fired + wheel.cancelled + wheel.pending
        assert wheel.pending == 0


class TestScenarioFamilies:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_pattern_orders_and_conserves(self, pattern):
        run = run_timer_soak(pattern=pattern, events=1_500, seed=7)
        assert run.served_in_order
        assert run.conserved
        assert run.armed > 0
        assert run.fired + run.cancelled + run.pending == run.armed

    def test_churn_exercises_every_verb(self):
        run = run_timer_soak(pattern="churn", events=2_000, seed=11)
        assert run.cancelled > 0
        assert run.repinned > 0
        assert run.fired > 0

    def test_retransmit_acks_cancel_more_than_they_repin(self):
        # 80% of in-time ACKs cancel, 15% repin (backoff); with 256
        # connections many timers also fire before the next touch, so
        # the guaranteed shape is cancel >> repin, not cancel > fire.
        run = run_timer_soak(pattern="retransmit", events=3_000, seed=3)
        assert run.cancelled > run.repinned
        assert run.cancelled > 0 and run.fired > 0

    def test_expiry_is_repin_dominated(self):
        run = run_timer_soak(pattern="expiry", events=3_000, seed=3)
        assert run.repinned > run.fired

    def test_deterministic_per_seed(self):
        first = run_timer_soak(pattern="churn", events=1_000, seed=42)
        second = run_timer_soak(pattern="churn", events=1_000, seed=42)
        assert first.fired_deadlines == second.fired_deadlines
        assert first.cycles == second.cycles

    def test_gate_turbo_exact_parity(self):
        gate = run_timer_soak(pattern="churn", events=1_500, seed=9)
        turbo = run_timer_soak(
            pattern="churn", events=1_500, seed=9, mode="turbo"
        )
        assert turbo.fired_deadlines == gate.fired_deadlines
        assert turbo.cycles == gate.cycles
        assert turbo.operations == gate.operations
        assert (turbo.armed, turbo.cancelled, turbo.repinned) == (
            gate.armed,
            gate.cancelled,
            gate.repinned,
        )

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_fabric_backend_orders_and_conserves(self, pattern):
        run = run_timer_soak(pattern=pattern, events=1_500, seed=7, shards=4)
        assert run.served_in_order
        assert run.conserved

    def test_monitored_soak_is_clean(self):
        run = run_timer_soak(
            pattern="churn", events=1_000, seed=5, monitor=True
        )
        assert run.monitors is not None
        assert run.monitors.ok
        assert run.monitors.checked > 0

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            run_timer_soak(pattern="nonesuch")

    def test_to_document_shape(self):
        run = run_timer_soak(pattern="churn", events=500, seed=1)
        document = run.to_document()
        assert document["workload"]["pattern"] == "churn"
        assert document["checks"] == {
            "served_in_order": True,
            "conserved": True,
        }
        assert document["timers"]["armed"] == run.armed


class TestCli:
    def test_text_report(self, capsys, tmp_path):
        assert main(["--events", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "timer soak" in out
        assert "fired in deadline order: True" in out

    def test_json_output_file(self, tmp_path):
        target = tmp_path / "run.json"
        status = main(
            [
                "--pattern",
                "retransmit",
                "--events",
                "500",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert status == 0
        document = json.loads(target.read_text())
        assert document["workload"]["pattern"] == "retransmit"
        assert document["checks"]["conserved"] is True

    def test_monitored_run_reports_suite(self, tmp_path):
        target = tmp_path / "run.json"
        status = main(
            [
                "--events",
                "500",
                "--monitor",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert status == 0
        document = json.loads(target.read_text())
        assert document["monitors"]["ok"] is True
        assert document["monitors"]["violations"] == []

    def test_trace_sink_written(self, tmp_path):
        sink = tmp_path / "timer.jsonl"
        assert main(["--events", "300", "--trace", str(sink)]) == 0
        lines = sink.read_text().splitlines()
        assert lines, "trace file must not be empty"
        header = json.loads(lines[0])
        assert header["purpose"] == "timer_churn"

    def test_dispatch_through_repro_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["timer", "--events", "300"]) == 0
        assert "timer soak" in capsys.readouterr().out


class TestTimerLivePlane:
    def test_serve_attaches_live_plane_and_auditor(self):
        run = run_timer_soak(
            pattern="churn",
            events=2_000,
            seed=7,
            monitor=True,
            serve_port=0,
        )
        assert run.live is not None
        assert run.live["windows"] >= 1
        assert run.auditor is not None
        assert run.auditor.serves > 0
        document = run.to_document()
        assert "live" in document
        assert document["serve_audit"]["inversions"] == run.auditor.inversions
        assert "live plane" in run.report()

    def test_serve_over_sharded_backend(self):
        run = run_timer_soak(
            pattern="expiry", events=1_500, seed=3, shards=2, serve_port=0
        )
        assert run.live is not None
        assert run.conserved
