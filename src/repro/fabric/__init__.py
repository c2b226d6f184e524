"""Sharded multi-circuit scheduling fabric.

The paper scales one sort/retrieve circuit vertically (wider tags,
deeper trie); this package adds the orthogonal axis: **N independent
circuits side by side** behind a single scheduler facade, the way
software schedulers partition flows across cheap priority structures
(Eiffel) and programmable ones compose sorted queues behind one dequeue
point (the PIFO line).

* :mod:`repro.fabric.partitioner` — :class:`FlowPartitioner`: hash and
  range flow-to-shard pinning, with per-flow overrides for rebalancing;
* :mod:`repro.fabric.tournament` — :class:`TournamentAggregator`: a
  reduction tree over per-shard head registers selecting the global
  minimum tag in O(log N) wrap-aware comparisons — the paper's
  multi-bit tree idea applied one level up;
* :mod:`repro.fabric.manager` — :class:`ShardManager` and
  :class:`FabricPolicy`: overflow spill-to-neighbor and threshold-
  triggered online rebalancing;
* :mod:`repro.fabric.fabric` — :class:`ScheduleFabric`: the facade
  wiring shards, tournament, manager, telemetry, and
  checkpoint/restore together;
* :mod:`repro.fabric.runner` — the ``python -m repro fabric`` driver
  (imported lazily by the CLI).
"""

from .fabric import ScheduleFabric
from .manager import FabricPolicy, ShardManager
from .partitioner import FlowPartitioner
from .tournament import TournamentAggregator

__all__ = [
    "FabricPolicy",
    "FlowPartitioner",
    "ScheduleFabric",
    "ShardManager",
    "TournamentAggregator",
]
