"""repro — behavioral reproduction of McLaughlin et al., "A Scalable
Packet Sorting Circuit for High-Speed WFQ Packet Scheduling".

Packages:

* :mod:`repro.core` — the tag sort/retrieve circuit (multi-bit tree,
  matching circuits, translation table, linked-list tag storage).
* :mod:`repro.hwsim` — the clocked-hardware simulation substrate.
* :mod:`repro.baselines` — every Table I lookup method.
* :mod:`repro.sched` — GPS/WFQ/WF²Q/WF²Q+/SCFQ/FBFQ and the round-robin
  family, plus the single-link simulator.
* :mod:`repro.traffic` — packet-size models, arrival processes, scenarios.
* :mod:`repro.net` — the full Fig. 1 scheduler system and QoS metrics.
* :mod:`repro.fabric` — the sharded scheduling fabric over many circuits.
* :mod:`repro.serve` — the always-on scheduling server
  (``python -m repro serve``).
* :mod:`repro.obs` — opt-in telemetry: tracing, instruments, invariant
  monitors, the live plane.
* :mod:`repro.silicon` — the Table II area/power/timing estimator.
* :mod:`repro.analysis` — complexity measurement, distribution profiling,
  sweep utilities.

Each package exports its public names lazily (:mod:`repro._exports`):
importing one module loads only what that module imports.

Quick start::

    from repro.core import TagSortRetrieveCircuit

    circuit = TagSortRetrieveCircuit()
    circuit.insert(15, payload="pkt-a")
    circuit.insert(17, payload="pkt-b")
    circuit.insert(16, payload="pkt-c")   # the Fig. 9 walkthrough
    served = circuit.dequeue_min()        # tag 15, in fixed time
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    # the primary entry point
    "core.sort_retrieve": ("TagSortRetrieveCircuit",),
})
__all__ += ["__version__"]
