"""Fair-queueing scheduling substrate.

The GPS fluid reference, the WFQ virtual-time engine (paper eq. (1)),
the fair-queueing family (WFQ, WF²Q, WF²Q+, SCFQ, FBFQ), the round-robin
family (WRR, DRR, MDRR, CBQ, SRR), and the single-link simulation loop.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("PacketScheduler", "SimulationResult", "simulate"),
    "cbq": ("CBQScheduler",),
    "drr": ("DRRScheduler",),
    "fbfq": ("FBFQScheduler",),
    "flow": ("Flow", "FlowTable"),
    "gps": ("GPSFluidSimulator", "GpsDeparture"),
    "hpfq": ("HPFQScheduler",),
    "mdrr": ("MDRRScheduler",),
    "packet": ("Packet",),
    "scfq": ("SCFQScheduler",),
    "srr": ("SRRScheduler",),
    "tag_computation": ("FixedPointTags", "FixedPointVirtualClock"),
    "virtual_time": ("TaggedArrival", "VirtualClock"),
    "wf2q": ("WF2QScheduler",),
    "wf2qplus": ("WF2QPlusScheduler",),
    "wfq": ("HeapTagStore", "TagStore", "WFQScheduler"),
    "wrr": ("WRRScheduler",),
})
