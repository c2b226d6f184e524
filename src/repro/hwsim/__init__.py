"""Hardware behavioral-simulation substrate.

Clocked components, memory models with access accounting, a unit-gate
delay/area model, and hardware counters.  Everything the circuit models in
:mod:`repro.core` are built from lives here.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "clock": ("Clock", "ClockedComponent"),
    "counters": ("SaturatingCounter", "WrappingCounter"),
    "errors": (
        "AddressError",
        "CapacityError",
        "ConfigurationError",
        "EmptyStructureError",
        "HardwareSimulationError",
        "PortConflictError",
        "ProtocolError",
    ),
    "gates": ("Cost", "gates_to_luts"),
    "memory": (
        "DualPortSRAM",
        "RegisterFile",
        "SinglePortSRAM",
        "make_tree_level_memory",
    ),
    "stats": ("AccessStats", "OperationProbe", "StatsRegistry"),
})
