"""Scheduler-system integration (paper Fig. 1) and QoS metrics."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "admission": (
        "AdmissionController",
        "AdmissionDecision",
        "ServiceLevelAgreement",
    ),
    "buffer": ("SharedPacketBuffer",),
    "dual_circuit": ("HardwareWF2QPlusSystem",),
    "fabric_system": ("FabricSchedulerSystem",),
    "hardware_store": ("HardwareTagStore",),
    "metrics": (
        "DelayStats",
        "gps_lag",
        "gps_lead",
        "jain_index",
        "max_gps_lag",
        "max_gps_lead",
        "out_of_order_service",
        "per_flow_delays",
        "pg_bound_violations",
        "throughput_shares",
        "weighted_jain_index",
        "worst_work_lead",
    ),
    "multihop": (
        "EndToEndRecord",
        "MultiHopNetwork",
        "e2e_delay_bound",
        "worst_flow_delay",
    ),
    "scheduler_system": ("DEFAULT_CLOCK_HZ", "HardwareWFQSystem"),
    "session_table": ("SessionRecord", "SessionStateTable"),
})
