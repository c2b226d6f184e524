"""Integration tests for the full Fig. 1 hardware WFQ system."""

import pytest

from repro.net import HardwareWFQSystem, out_of_order_service
from repro.net.scheduler_system import DEFAULT_CLOCK_HZ
from repro.sched import Packet, WFQScheduler, simulate
from repro.traffic import voip_video_data_mix


def build_system(scenario, **kwargs):
    system = HardwareWFQSystem(scenario.rate_bps, **kwargs)
    for flow_id, weight in scenario.weights.items():
        system.add_flow(flow_id, weight)
    return system


class TestHardwareWFQSystem:
    def test_delivers_all_packets(self):
        scenario = voip_video_data_mix(packets_per_flow=100, seed=1)
        system = build_system(scenario)
        result = simulate(system, scenario.clone_trace())
        assert len(result.packets) == len(scenario.trace)
        assert system.dropped == 0
        system.store.circuit.check_invariants()

    def test_close_to_software_wfq_when_fine(self):
        """With a fine quantum the hardware system tracks software WFQ:
        identical per-flow FIFO service, near-identical delays, and its
        extra tag-order inversions are attributable to the clamped
        (behind-minimum) inserts the paper's monotonicity assumption
        glosses over."""
        scenario = voip_video_data_mix(packets_per_flow=60, seed=2)
        hardware = build_system(scenario, granularity=128.0)
        software = WFQScheduler(scenario.rate_bps)
        for flow_id, weight in scenario.weights.items():
            software.add_flow(flow_id, weight)
        hw_result = simulate(hardware, scenario.clone_trace())
        sw_result = simulate(software, scenario.clone_trace())
        hw_inv = out_of_order_service(hw_result)
        sw_inv = out_of_order_service(sw_result)
        # Exact WFQ itself serves out of tag order when small tags arrive
        # late; the hardware adds at most one inversion per clamp.
        assert hw_inv <= sw_inv + hardware.store.clamped_inserts
        hw_mean = sum(p.delay for p in hw_result.packets) / len(
            hw_result.packets
        )
        sw_mean = sum(p.delay for p in sw_result.packets) / len(
            sw_result.packets
        )
        assert hw_mean == pytest.approx(sw_mean, rel=0.15)

    def test_coarse_quantum_increases_inversions(self):
        scenario = voip_video_data_mix(packets_per_flow=150, seed=3)
        fine = build_system(scenario, granularity=128.0)
        coarse = build_system(scenario, granularity=8192.0)
        fine_inv = out_of_order_service(
            simulate(fine, scenario.clone_trace())
        )
        coarse_inv = out_of_order_service(
            simulate(coarse, scenario.clone_trace())
        )
        assert coarse_inv >= fine_inv

    def test_auto_granularity_from_weights(self):
        scenario = voip_video_data_mix(packets_per_flow=10, seed=4)
        system = build_system(scenario)
        assert system.store.granularity > 0
        result = simulate(system, scenario.clone_trace())
        assert len(result.packets) == len(scenario.trace)

    def test_buffer_overflow_drops(self):
        scenario = voip_video_data_mix(packets_per_flow=200, seed=5)
        system = build_system(scenario, buffer_capacity=16)
        simulate(system, scenario.clone_trace())
        assert system.dropped > 0

    def test_circuit_cycle_accounting(self):
        scenario = voip_video_data_mix(packets_per_flow=50, seed=6)
        system = build_system(scenario)
        simulate(system, scenario.clone_trace())
        operations = system.store.operations
        assert operations == 2 * len(scenario.trace)  # insert + dequeue
        assert system.store.cycles == 4 * operations
        assert system.circuit_busy_seconds == pytest.approx(
            system.store.cycles / DEFAULT_CLOCK_HZ
        )


class TestThroughputClaims:
    """Section IV numbers from the cycle model."""

    def test_35_8_mpps(self):
        system = HardwareWFQSystem(10e6)
        assert system.sustained_packets_per_second() == pytest.approx(
            35.8e6, rel=0.01
        )

    def test_40_gbps_at_140_bytes(self):
        system = HardwareWFQSystem(10e6)
        rate = system.sustained_line_rate_bps(140)
        assert rate == pytest.approx(40e9, rel=0.02)

    def test_factor_4_over_state_of_the_art(self):
        """The paper: 5-10 Gb/s commercial parts -> ~4x improvement."""
        system = HardwareWFQSystem(10e6)
        rate_gbps = system.sustained_line_rate_bps(140) / 1e9
        assert rate_gbps / 10.0 >= 4.0

    def test_mean_size_validation(self):
        system = HardwareWFQSystem(10e6)
        with pytest.raises(Exception):
            system.sustained_line_rate_bps(0)


class TestAutoGranularityFreezing:
    """Regression: the auto-sized tag quantum used to freeze at the
    first store access, so flows registered afterwards (especially
    light-weight ones) silently got a quantum derived from an
    incomplete weight table."""

    def expected_granularity(self, system, min_weight):
        worst = system.AUTO_GRANULARITY_MAX_BYTES * 8 / min_weight
        half_space = system._fmt.capacity // 2
        return system.AUTO_GRANULARITY_HEADROOM * worst / half_space

    def test_store_rederived_when_flow_registers_before_first_push(self):
        system = HardwareWFQSystem(1e6)
        system.add_flow(0, weight=1.0)
        # An early probe (e.g. a backlog check) instantiates the store
        # from the incomplete flow table.
        assert system.backlog == 0
        early = system.store.granularity
        assert early == pytest.approx(self.expected_granularity(system, 1.0))
        # Registering a lighter flow before any tag is live must resize.
        system.add_flow(1, weight=0.01)
        late = system.store.granularity
        assert late == pytest.approx(self.expected_granularity(system, 0.01))
        assert late > early

    def test_registration_after_live_tags_rejected(self):
        from repro.hwsim.errors import ConfigurationError

        system = HardwareWFQSystem(1e6)
        system.add_flow(0, weight=1.0)
        system.enqueue(Packet(0, 100, 0.0), now=0.0)
        with pytest.raises(ConfigurationError, match="already"):
            system.add_flow(1, weight=2.0)

    def test_registration_after_drain_still_rejected(self):
        """Even a drained store has frozen its quantum (tags already
        passed through it at the old granularity)."""
        from repro.hwsim.errors import ConfigurationError

        system = HardwareWFQSystem(1e6)
        system.add_flow(0, weight=1.0)
        system.enqueue(Packet(0, 100, 0.0), now=0.0)
        assert system.select_next(1.0) is not None
        assert system.backlog == 0
        with pytest.raises(ConfigurationError):
            system.add_flow(1, weight=2.0)

    def test_explicit_granularity_unaffected(self):
        system = HardwareWFQSystem(1e6, granularity=64.0)
        system.add_flow(0, weight=1.0)
        assert system.backlog == 0
        system.add_flow(1, weight=0.01)
        assert system.store.granularity == 64.0


class TestSystemBatchPaths:
    def test_batched_service_matches_per_op(self):
        scenario = voip_video_data_mix(packets_per_flow=60, seed=9)
        per_op = build_system(scenario)
        trace = scenario.clone_trace()
        for packet in trace:
            per_op.enqueue(packet, packet.arrival_time)
        served_ref = []
        while per_op.backlog:
            served_ref.append(per_op.select_next(1e9).packet_id)

        batched = build_system(scenario)
        admitted = batched.enqueue_batch(scenario.clone_trace())
        assert admitted == len(scenario.trace)
        served = [
            p.packet_id for p in batched.select_batch(batched.backlog, 1e9)
        ]
        assert served == served_ref
        assert batched.backlog == 0
        assert batched.store.cycles == per_op.store.cycles
        batched.store.circuit.check_invariants()

    def test_enqueue_batch_counts_drops(self):
        scenario = voip_video_data_mix(packets_per_flow=200, seed=5)
        system = build_system(scenario, buffer_capacity=16)
        admitted = system.enqueue_batch(scenario.clone_trace())
        assert system.dropped > 0
        assert admitted + system.dropped == len(scenario.trace)
        assert len(system.store) == admitted

    def test_select_batch_on_empty(self):
        system = HardwareWFQSystem(1e6)
        system.add_flow(0)
        assert system.select_batch(5, now=0.0) == []


class TestStateRoundtrip:
    def test_checkpoint_restore_continues_identical_service(self):
        """to_state/load_state resumes mid-schedule, exactly."""
        import json

        from repro.net.scheduler_system import HardwareWFQSystem

        def build():
            system = HardwareWFQSystem(10e6, granularity=512.0)
            system.add_flow(1, 0.5, guaranteed_rate_bps=5e6)
            system.add_flow(2, 0.3)
            return system

        system = build()
        now = 0.0
        for index in range(60):
            packet = Packet(
                flow_id=1 + index % 2,
                size_bytes=100 + index,
                arrival_time=now,
            )
            system.enqueue(packet, now)
            now += 1e-4
        for _ in range(20):
            system.select_next(now)
        state = json.loads(json.dumps(system.to_state()))
        restored = build()
        restored.load_state(state)
        assert restored.backlog == system.backlog
        assert restored.dropped == system.dropped
        # Both serve the identical remaining stream.
        while system.backlog:
            left = system.select_next(now)
            right = restored.select_next(now)
            assert right is not None
            assert (left.flow_id, left.size_bytes, left.finish_tag) == (
                right.flow_id,
                right.size_bytes,
                right.finish_tag,
            )

    def test_load_state_rejects_mismatched_link(self):
        import json

        from repro.hwsim.errors import ConfigurationError
        from repro.net.scheduler_system import HardwareWFQSystem

        system = HardwareWFQSystem(10e6, granularity=64.0)
        state = json.loads(json.dumps(system.to_state()))
        other = HardwareWFQSystem(20e6, granularity=64.0)
        with pytest.raises(ConfigurationError):
            other.load_state(state)
