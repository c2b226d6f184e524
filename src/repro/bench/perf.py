"""Perf-regression harness for the sort/retrieve hot paths.

``repro bench`` is one table of workloads (:func:`workloads`), each
declaring its engine × drive **cells**, named ``workload/engine/drive``.
Every workload goes through the same three steps: an untimed probe pass
per cell records its served sequence and its deterministic counters
(memory accesses and circuit cycles per operation); :func:`check_parity`
refuses the workload, before any timing is kept, unless the cells agree;
and :func:`time_cells` times the cells in interleaved, collector-paused
rounds and keeps each cell's best window.  One gate table
(:data:`GATES`) of (numerator cell, denominator cell, floor, presets)
rows computes the document's ``ratios``, which :func:`main` holds to
their floors and :func:`check_against_baseline` to the baseline.  A
separate untimed instrumented pass adds per-phase distribution data
(p50/p90/p99/max access counts, occupancy, free-list depth) on the gate
engine.  DESIGN.md §17 has the workload table and the rules.

``--check`` compares a fresh run to ``BENCH_sort_retrieve.json``: wall
throughput may drop at most 20% after dividing out the two runs'
calibration scores (:class:`Calibration`), and accesses and cycles per
op may grow at most 20%.  Baselines also carry a **forensic reference
trace** (``BENCH_sort_retrieve.trace.jsonl``): the full framed event
stream of a short deterministic per-op soak.  When ``--check`` finds a
regression, the same workload is re-traced and diffed against the
reference (:mod:`repro.obs.diff`), so the failure report pinpoints the
first diverging logical operation and the per-kind access deltas — not
just "it got slower".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.engine import circuit_from_state, make_circuit, numpy_or_none
from ..core.matching import ALL_MATCHERS, DEFAULT_MATCHER
from ..core.words import PAPER_FORMAT, WordFormat
from ..net.hardware_store import HardwareTagStore
from ..obs.diff import TraceCompatibilityError, diff_traces
from ..obs.events import build_trace_header
from ..obs.exporters import read_trace
from ..obs.instruments import Histogram
from ..obs.probes import StandardProbes
from ..obs.tracer import Tracer

#: Baseline file name, committed at the repository root.
BASELINE_FILENAME = "BENCH_sort_retrieve.json"

#: Allowed fractional slowdown (or access growth) before --check fails.
REGRESSION_TOLERANCE = 0.20

#: A full-preset window repeats its pass until it spans this much timed
#: wall clock; wall comparisons read only windows at least this long,
#: shorter ones are checked on their access and cycle counts alone.
MIN_TIMED_WALL_SECONDS = 0.2

#: Timing rounds per workload; each keeps a cell's best window.  Two
#: interleaved rounds of >= MIN_TIMED_WALL_SECONDS windows keep the full
#: preset inside the time the three per-engine runs it replaces took.
BENCH_REPEATS = 2

#: Word formats swept by the size workloads: 8-, 12- (paper) and 16-bit.
SIZE_SWEEP: Tuple[Tuple[str, WordFormat], ...] = (
    ("w8", WordFormat(levels=2, literal_bits=4)),
    ("w12", PAPER_FORMAT),
    ("w16", WordFormat(levels=4, literal_bits=4)),
)

#: Batch width of the wide-batch rounds: two tag spaces per
#: insert_batch/dequeue_batch pair (each distinct tag served four deep),
#: the granularity at which one array op retires thousands of logical
#: operations and the array engine's per-call overhead amortizes out.
VECTOR_BATCH_WIDTH = 8192

#: Shard counts swept by the fabric workload.
FABRIC_SHARD_SWEEP: Tuple[int, ...] = (1, 4, 16)

#: Operations in the committed forensic reference trace.
REFERENCE_TRACE_OPS = 2_000

#: Document schema: 2 added the per-phase ``distributions`` block;
#: 3 pairs the baseline with a committed forensic reference trace;
#: 4 added the fabric scale-out phase, 5 the turbo phase, the run
#: ``mode`` and the ``machine`` header, 6 the timer phase, 7 the vector
#: phase; 8 folds every phase into one workload × engine ``scenarios``
#: matrix plus the gate table's ``ratios``, and drops ``mode``.
_SCHEMA = 8

#: Iterations of the calibration kernel per :class:`Calibration` slice.
_CALIBRATION_OPS = 50_000

@dataclass(frozen=True)
class Preset:
    """Workload sizes and the timed-window length of one preset."""

    sorted_counts: Dict[str, int]
    mixed: int
    fabric: int
    timer: int
    min_window: float


PRESETS: Dict[str, Preset] = {
    "full": Preset(
        sorted_counts={"w8": 256, "w12": 4096, "w16": 8192},
        mixed=100_000,
        fabric=40_000,
        timer=40_000,
        min_window=MIN_TIMED_WALL_SECONDS,
    ),
    # One pass per window: seconds, not minutes.
    "smoke": Preset(
        sorted_counts={"w8": 128, "w12": 256, "w16": 256},
        mixed=2_000,
        fabric=2_000,
        timer=2_000,
        min_window=0.0,
    ),
}


@dataclass(frozen=True)
class Gate:
    """One row of the gate table: a ratio of two cells' speeds.

    A wall row divides the denominator's seconds per pass by the
    numerator's (both cells of one workload, so equal ops); a
    ``modeled`` row divides the denominator's cycles per op by the
    numerator's, which is deterministic.  ``floor`` fails a run below
    it on the ``presets`` named; every row is checked against the
    baseline.
    """

    name: str
    numerator: str
    denominator: str
    floor: Optional[float] = None
    presets: Tuple[str, ...] = ()
    modeled: bool = False


_WIDEST = f"fabric/gate/shards={FABRIC_SHARD_SWEEP[-1]}"

GATES: Tuple[Gate, ...] = (
    # The batched store path amortizes the per-op overhead.
    Gate("batched_speedup", "mixed/gate/batched", "mixed/gate/per_op",
         1.5, ("full",)),
    Gate("turbo_speedup", "mixed/turbo/per_op", "mixed/gate/per_op",
         3.0, ("full",)),
    Gate("turbo_vs_batched", "mixed/turbo/per_op", "mixed/gate/batched",
         1.0, ("full", "smoke")),
    # The wide-batch cells pin their own batch width, so the smoke run
    # measures the same shape and the floor holds on every preset.
    Gate("vector_speedup", "widebatch/vector/batched",
         "widebatch/turbo/per_op", 10.0, ("full", "smoke")),
    Gate("fabric_modeled_speedup", _WIDEST, "fabric/gate/circuit",
         4.0, ("full",), modeled=True),
    Gate("fabric_wall_speedup", _WIDEST, "fabric/gate/circuit"),
    Gate("timer_speedup", "timer/turbo/churn", "timer/gate/churn"),
)


def _calibration_kernel(ops: int = _CALIBRATION_OPS) -> int:
    """A fixed pure-Python workload shaped like the hot paths: integer
    arithmetic, dict stores, and a tight attribute-free loop."""
    acc = 0
    sink = {}
    for i in range(ops):
        sink[i & 1023] = acc
        acc ^= (acc << 1) & 0xFFFFFF
        acc += i
    return acc


class Calibration:
    """The machine's speed, sampled in slices between timing rounds.

    ``--check`` divides wall throughput by the ratio of two runs'
    scores; the score is the median slice, so it tracks the speed the
    timed rounds ran at rather than one lucky burst.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _calibration_kernel()
        self.slices.append(_CALIBRATION_OPS / (time.perf_counter() - start))

    def score(self) -> float:
        """Calibration-kernel iterations per second, median slice."""
        return round(statistics.median(self.slices), 1)


def machine_info(calibration: Calibration) -> Dict:
    """The machine header recorded in every bench document.

    ``--check`` warns (never fails) when the identity fields differ, and
    divides wall throughput by the ratio of the calibration scores.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_ops_per_second": calibration.score(),
    }


def machine_mismatch_warnings(current: Dict, baseline: Dict) -> List[str]:
    """Human-readable cross-machine warnings (empty = same machine).

    Deliberately separate from :func:`check_against_baseline`: a
    machine mismatch makes wall-clock comparisons *suspect*, not
    *wrong*, so it warns instead of failing the check.
    """
    old = baseline.get("machine") or {}
    new = current.get("machine") or {}
    warnings = []
    for key in ("python", "implementation", "platform", "cpu_count"):
        if old.get(key) != new.get(key):
            warnings.append(
                f"baseline {key} {old.get(key)!r} != current "
                f"{new.get(key)!r}; wall-clock comparisons may be noise"
            )
    old_cal = old.get("calibration_ops_per_second")
    new_cal = new.get("calibration_ops_per_second")
    if old_cal and new_cal:
        ratio = new_cal / old_cal
        if ratio > 1.5 or ratio < 1 / 1.5:
            warnings.append(
                f"machine speed score moved {ratio:.2f}x between runs "
                f"({old_cal:,.0f} -> {new_cal:,.0f} calibration ops/s); "
                "wall floors are renormalized by this factor"
            )
    return warnings


# ----------------------------------------------------------------------
# workload generators and store drives (shared with the soak runners)


def _sorted_tags(fmt: WordFormat, count: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return sorted(rng.randrange(fmt.capacity) for _ in range(count))


def make_mixed_ops(count: int, seed: int, *, max_backlog: int = 512) -> List:
    """A bursty, WFQ-shaped push/pop stream of ``count`` operations.

    Pushes carry drifting virtual-time finish tags (so the tag space
    wraps many times over a long soak); the backlog is soft-capped so
    the live span stays inside the wrap window at the benchmark's
    granularity.
    """
    rng = random.Random(seed)
    ops: List = []
    live = 0
    vt = 0.0
    while len(ops) < count:
        for _ in range(rng.randint(1, 12)):
            if len(ops) >= count:
                break
            vt += rng.random() * 30
            finish = max(0.0, vt + rng.random() * 200 - 20)
            ops.append(("push", finish, len(ops)))
            live += 1
        pops = rng.randint(1, 12)
        if live > max_backlog:
            pops = live - max_backlog // 2
        for _ in range(min(pops, live)):
            if len(ops) >= count:
                break
            ops.append(("pop",))
            live -= 1
    return ops


def make_flow_ops(
    count: int,
    seed: int,
    *,
    flows: int = 256,
    max_backlog: int = 512,
) -> List:
    """A flow-attributed variant of :func:`make_mixed_ops`.

    Same bursty, drifting-virtual-time shape, but every push carries a
    flow id from a bounded population instead of a sequence number —
    the routing key the scheduling fabric partitions on.  Bursts stick
    to a handful of flows (arrivals are per-session trains in a real
    scheduler), so spill and rebalance pressure is realistic rather
    than perfectly pre-mixed.
    """
    rng = random.Random(seed)
    ops: List = []
    live = 0
    vt = 0.0
    while len(ops) < count:
        burst_flows = [rng.randrange(flows) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 12)):
            if len(ops) >= count:
                break
            vt += rng.random() * 30
            finish = max(0.0, vt + rng.random() * 200 - 20)
            ops.append(("push", finish, rng.choice(burst_flows)))
            live += 1
        pops = rng.randint(1, 12)
        if live > max_backlog:
            pops = live - max_backlog // 2
        for _ in range(min(pops, live)):
            if len(ops) >= count:
                break
            ops.append(("pop",))
            live -= 1
    return ops


def _drive_per_op(store: HardwareTagStore, ops: List) -> List:
    served = []
    for op in ops:
        if op[0] == "push":
            store.push(op[1], op[2])
        else:
            served.append(store.pop_min())
    return served


def _drive_batched(store: HardwareTagStore, ops: List) -> List:
    served: List = []
    pending_push: List = []
    pending_pop = 0
    for op in ops:
        if op[0] == "push":
            if pending_pop:
                served.extend(store.pop_batch(pending_pop))
                pending_pop = 0
            pending_push.append((op[1], op[2]))
        else:
            if pending_push:
                store.push_batch(pending_push)
                pending_push = []
            pending_pop += 1
    if pending_push:
        store.push_batch(pending_push)
    if pending_pop:
        served.extend(store.pop_batch(pending_pop))
    return served


# ----------------------------------------------------------------------
# cells, probes and the one timer


@dataclass(frozen=True)
class Cell:
    """One engine × drive coordinate of a workload.

    ``setup`` builds fresh state outside the timed span, ``run`` is the
    timed pass over it, and ``observe(state, output)`` reads a probe
    pass's served sequence and counters.  Cells of one workload that
    share an ``order`` must serve the same sequence.
    """

    name: str
    engine: str
    drive: str
    setup: Callable[[], object]
    run: Callable[[object], object]
    observe: Optional[Callable[[object, object], "Observation"]] = None
    order: str = ""


@dataclass
class Observation:
    """What an untimed probe pass of one cell served and charged."""

    served: object
    ops: int
    cycles: int
    structures: Dict[str, Tuple[int, int]]
    extras: Dict = field(default_factory=dict)


class ParityError(AssertionError):
    """A workload's cells disagree, so none of its timings may be kept."""


@dataclass(frozen=True)
class Timing:
    """A cell's best window: seconds per pass, window length, passes."""

    seconds: float
    window: float
    passes: int


def _observe(circuits, cycles: int, served, ops: int, **extras) -> Observation:
    """Per-structure (reads, writes), shard-prefixed when there are several."""
    structures: Dict[str, Tuple[int, int]] = {}
    for index, circuit in enumerate(circuits):
        prefix = f"{index}." if len(circuits) > 1 else ""
        registry = circuit.registry
        for name in registry.names():
            structures[prefix + name] = (
                registry[name].reads, registry[name].writes,
            )
    return Observation(served, ops, cycles, structures, extras)


def _observe_store(ops: int, store, served, **extras) -> Observation:
    return _observe([store.circuit], store.cycles, served, ops, **extras)


def _window(cell: Cell, min_window: float) -> Timing:
    """One window: passes on fresh state until ``min_window`` is timed."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        elapsed = 0.0
        passes = 0
        while passes == 0 or elapsed < min_window:
            state = cell.setup()
            start = time.perf_counter()
            output = cell.run(state)
            elapsed += time.perf_counter() - start
            passes += 1
            del output  # freed off the clock
    finally:
        if gc_was_enabled:
            gc.enable()
    return Timing(elapsed / passes, elapsed, passes)


def time_cells(
    cells: List[Cell],
    *,
    rounds: int = BENCH_REPEATS,
    min_window: float = MIN_TIMED_WALL_SECONDS,
    calibration: Optional[Calibration] = None,
) -> Dict[str, Timing]:
    """Time every cell; returns each cell's best window by name.

    Rounds run round-robin across the cells, so CPU frequency drift
    lands on every side of a ratio alike.  The collector is paused
    inside each window (allocation-heavy drives otherwise spend a
    machine-dependent slice of their wall in collections), and a
    calibration slice is taken after each round.
    """
    best: Dict[str, Timing] = {}
    for _ in range(rounds):
        for cell in cells:
            timing = _window(cell, min_window)
            kept = best.get(cell.name)
            if kept is None or timing.seconds < kept.seconds:
                best[cell.name] = timing
        if calibration is not None:
            calibration.sample()
    return best


def check_parity(
    cells: List[Cell], observations: Dict[str, Observation]
) -> None:
    """Raise :class:`ParityError` unless the probe passes agree.

    Every cell serves the sequence of the first cell of its ``order``;
    the gate and turbo cells of one drive charge identical cycles and
    per-structure counters.
    """
    references: Dict[str, str] = {}
    for cell in cells:
        reference = references.setdefault(cell.order, cell.name)
        if observations[cell.name].served != observations[reference].served:
            raise ParityError(
                f"{cell.name} served a different sequence than "
                f"{reference}: the cells do not measure the same work, "
                "refusing to time them"
            )
    scalar: Dict[str, Dict[str, Cell]] = {}
    for cell in cells:
        if cell.engine in ("gate", "turbo"):
            scalar.setdefault(cell.drive, {})[cell.engine] = cell
    for pair in scalar.values():
        if len(pair) < 2:
            continue
        gate = observations[pair["gate"].name]
        turbo = observations[pair["turbo"].name]
        if gate.cycles != turbo.cycles:
            raise ParityError(
                f"{pair['turbo'].name} cycles {turbo.cycles} != "
                f"{pair['gate'].name} cycles {gate.cycles}"
            )
        if gate.structures != turbo.structures:
            raise ParityError(
                f"per-structure access counters of {pair['turbo'].name} "
                f"diverge from {pair['gate'].name}"
            )


def run_workload(
    cells: List[Cell],
    *,
    min_window: float = MIN_TIMED_WALL_SECONDS,
    calibration: Optional[Calibration] = None,
) -> List[Dict]:
    """Probe, parity-check, then time one workload; its scenario records."""
    observations: Dict[str, Observation] = {}
    for cell in cells:
        state = cell.setup()
        observations[cell.name] = cell.observe(state, cell.run(state))
    check_parity(cells, observations)
    timings = time_cells(cells, min_window=min_window, calibration=calibration)
    return [
        _scenario(cell, observations[cell.name], timings[cell.name])
        for cell in cells
    ]


def _scenario(cell: Cell, observation: Observation, timing: Timing) -> Dict:
    ops = observation.ops
    record = {
        "name": cell.name,
        "engine": cell.engine,
        "ops": ops,
        "seconds": round(timing.seconds, 6),
        "window_seconds": round(timing.window, 6),
        "passes": timing.passes,
        "ops_per_second": round(ops / timing.seconds, 1),
        "accesses_per_op": round(
            sum(map(sum, observation.structures.values())) / ops, 4
        ),
        "cycles_per_op": round(observation.cycles / ops, 4),
    }
    record.update(observation.extras)
    return record


# ----------------------------------------------------------------------
# the workload table


def _restored(state: Dict, engine: str):
    """A circuit restored from ``state``, its counters zeroed for the drain."""
    circuit = circuit_from_state(state, mode=engine)
    circuit.registry.reset_all()
    circuit.cycles = 0
    return circuit


def _sorted_cells(
    workload: str,
    fmt: WordFormat,
    count: int,
    seed: int,
    variants: List[Tuple[str, object]],
    *,
    drains: bool = True,
) -> List[Cell]:
    """Sorted fill, and drain of the filled circuit, per-op and batched.

    One cell per (engine, matcher) variant and drive.  A drain starts
    from a snapshot of the filled circuit, the cheapest set-up there is.
    """
    tags = _sorted_tags(fmt, count, seed)

    def insert_per_op(circuit) -> None:
        for tag in tags:
            circuit.insert(tag)

    def insert_batch(circuit) -> None:
        circuit.insert_batch(tags)

    def dequeue_per_op(circuit) -> List:
        return [circuit.dequeue_min() for _ in range(count)]

    def dequeue_batch(circuit) -> List:
        return circuit.dequeue_batch(count)

    def observe(circuit, served) -> Observation:
        observation = _observe([circuit], circuit.cycles, served, count)
        if served is None:
            # A fill serves nothing itself; parity reads what it holds.
            observation.served = circuit.dequeue_batch(count)
        return observation

    if drains:
        template = make_circuit(fmt, capacity=count)
        template.insert_batch(tags)
        filled_state = template.to_state()
    cells = []
    for engine, matcher in variants:
        fresh = partial(
            make_circuit, fmt, capacity=count, mode=engine,
            matcher_factory=matcher,
        )
        drives = [("insert_per_op", fresh, insert_per_op),
                  ("insert_batch", fresh, insert_batch)]
        if drains:
            filled = partial(_restored, filled_state, engine)
            drives[1:1] = [("dequeue_per_op", filled, dequeue_per_op)]
            drives.append(("dequeue_batch", filled, dequeue_batch))
        cells.extend(
            Cell(f"{workload}/{engine}/{drive}", engine, drive, setup, run,
                 observe)
            for drive, setup, run in drives
        )
    return cells


def _mixed_cells(
    count: int, seed: int, engines: Tuple[str, ...]
) -> List[Cell]:
    """The bursty mixed stream through one store, per-op and batched."""
    ops = make_mixed_ops(count, seed)
    return [
        Cell(
            f"mixed/{engine}/{drive}", engine, drive,
            partial(HardwareTagStore, granularity=8.0, mode=engine),
            partial(run, ops=ops), partial(_observe_store, count),
        )
        for engine in engines
        for drive, run in (
            ("per_op", _drive_per_op), ("batched", _drive_batched)
        )
    ]


def _fabric_cells(
    count: int, seed: int, engines: Tuple[str, ...]
) -> List[Cell]:
    """The flow-attributed stream, batched, through one store and fabrics.

    A fabric cell's ``cycles_per_op`` is modeled *makespan* time (the
    shards are parallel hardware), the quantity that shrinks as the
    fabric widens; it also reports tournament comparisons per op, the
    aggregation overhead, which grows O(log shards).
    """
    from ..fabric.fabric import ScheduleFabric

    ops = make_flow_ops(count, seed)
    drive = partial(_drive_batched, ops=ops)

    def observe_fabric(fabric, served) -> Observation:
        return _observe(
            [store.circuit for store in fabric.stores], fabric.cycles,
            served, count,
            shards=len(fabric.stores),
            cycles_total=fabric.cycles_total,
            comparisons_per_op=round(fabric.tournament.comparisons / count, 4),
            spills=fabric.manager.spill_count,
            rebalances=fabric.manager.rebalance_count,
        )

    cells = []
    for engine in engines:
        cells.append(
            Cell(
                f"fabric/{engine}/circuit", engine, "circuit",
                partial(HardwareTagStore, granularity=8.0, mode=engine),
                drive, partial(_observe_store, count), order="shards=1",
            )
        )
        for shards in FABRIC_SHARD_SWEEP:
            cells.append(
                Cell(
                    f"fabric/{engine}/shards={shards}", engine,
                    f"shards={shards}",
                    partial(
                        ScheduleFabric, shards=shards, granularity=8.0,
                        mode=engine,
                    ),
                    drive, observe_fabric, order=f"shards={shards}",
                )
            )
    return cells


def _timer_cells(count: int, seed: int) -> List[Cell]:
    """Timer-wheel churn through remove/retag, one soak per pass.

    The regression fence for the removal/retag cost model: a change to
    the unlink path or the marker-clear discipline shows up in these
    cells' ``cycles_per_op`` / ``accesses_per_op``.
    """
    from ..net.timer import run_timer_soak

    def observe(_state, run) -> Observation:
        name = f"timer/{run.mode}/churn"
        if not run.served_in_order:
            raise ParityError(f"{name}: timers fired out of deadline order")
        if not run.conserved:
            raise ParityError(f"{name}: timer conservation broken")
        return _observe_store(
            run.operations, run.backend, run.fired_deadlines,
            events=count, armed=run.armed, cancelled=run.cancelled,
            repinned=run.repinned, fired=run.fired,
        )

    return [
        Cell(
            f"timer/{engine}/churn", engine, "churn", lambda: None,
            lambda _state, engine=engine: run_timer_soak(
                pattern="churn", events=count, seed=seed, mode=engine
            ),
            observe,
        )
        for engine in ("gate", "turbo")
    ]


def _widebatch_cells(
    count: int, seed: int, engines: Tuple[str, ...]
) -> List[Cell]:
    """Wide insert/dequeue batch rounds, at least four, about ``count`` ops."""
    width = VECTOR_BATCH_WIDTH
    space = PAPER_FORMAT.capacity
    rng = random.Random(seed)
    rounds: List[List[int]] = []
    base = 0
    for _ in range(max(4, count // (2 * width))):
        # Nondecreasing in modular order (duplicates adjacent), so the
        # batched paths' sorted-allocation addresses coincide with the
        # per-op path's input-order addresses and every cell can be
        # compared ServedTag-for-ServedTag, address included.
        rounds.append(
            [(base + i * (space // 2) // width) % space for i in range(width)]
        )
        base = (base + rng.randrange(32, 96)) % space
    ops = len(rounds) * 2 * width

    def batched(circuit) -> List:
        served: List = []
        extend = served.extend
        for tags in rounds:
            circuit.insert_batch(tags)
            extend(circuit.dequeue_batch(width))
        return served

    def per_op(circuit) -> List:
        served: List = []
        append = served.append
        for tags in rounds:
            for tag in tags:
                circuit.insert(tag)
            for _ in range(width):
                append(circuit.dequeue_min())
        return served

    def observe(circuit, served) -> Observation:
        return _observe([circuit], circuit.cycles, served, ops)

    variants = [("gate", "batched"), ("turbo", "per_op"), ("turbo", "batched")]
    if "vector" in engines:
        variants.append(("vector", "batched"))
    return [
        Cell(
            f"widebatch/{engine}/{drive}", engine, drive,
            partial(
                make_circuit, PAPER_FORMAT, mode=engine, capacity=2 * width,
                modular=True,
            ),
            batched if drive == "batched" else per_op, observe,
        )
        for engine, drive in variants
    ]


def workloads(preset: str, seed: int) -> Iterator[List[Cell]]:
    """The bench's workloads, each as its list of cells, built lazily."""
    sizes = PRESETS[preset]
    engines = ("gate", "turbo") + (("vector",) if numpy_or_none() else ())
    for label, fmt in SIZE_SWEEP:
        yield _sorted_cells(
            f"size={label}", fmt, sizes.sorted_counts[label], seed,
            [(engine, None) for engine in engines],
        )
    for name, matcher in sorted(ALL_MATCHERS.items()):
        if matcher is not DEFAULT_MATCHER:
            # A drain never searches the tree, so it never calls the
            # matcher: size=w12's gate drains time it for every topology.
            yield _sorted_cells(
                f"matcher={name}", PAPER_FORMAT, sizes.sorted_counts["w12"],
                seed, [("gate", matcher)], drains=False,
            )
    yield _mixed_cells(sizes.mixed, seed, engines)
    yield _fabric_cells(sizes.fabric, seed, engines)
    yield _timer_cells(sizes.timer, seed)
    yield _widebatch_cells(sizes.mixed, seed, engines)


def compute_ratios(scenarios: List[Dict]) -> Dict[str, Dict]:
    """Every :data:`GATES` row whose two cells ran, by row name."""
    cells = {scenario["name"]: scenario for scenario in scenarios}
    ratios = {}
    for gate in GATES:
        numerator = cells.get(gate.numerator)
        denominator = cells.get(gate.denominator)
        if numerator is None or denominator is None:
            continue  # vector cells on a host without numpy
        if gate.modeled:
            value = denominator["cycles_per_op"] / numerator["cycles_per_op"]
        else:
            value = denominator["seconds"] / numerator["seconds"]
        ratios[gate.name] = {
            "numerator": gate.numerator,
            "denominator": gate.denominator,
            "kind": "modeled" if gate.modeled else "wall",
            "value": round(value, 2),
            "floor": gate.floor,
            "presets": list(gate.presets),
        }
    return ratios


def floor_failures(document: Dict) -> List[str]:
    """One message per ratio below its floor on the document's preset."""
    failures = []
    for gate in GATES:
        ratio = document["ratios"].get(gate.name)
        if (
            ratio is None
            or gate.floor is None
            or document["preset"] not in gate.presets
        ):
            continue
        if ratio["value"] < gate.floor:
            failures.append(
                f"{gate.name} {ratio['value']}x ({gate.numerator} over "
                f"{gate.denominator}) is below the required {gate.floor}x"
            )
    return failures


# ----------------------------------------------------------------------
# forensic reference trace


def reference_trace_path(baseline_path: str) -> str:
    """``BENCH_sort_retrieve.json`` → ``BENCH_sort_retrieve.trace.jsonl``."""
    if baseline_path.endswith(".json"):
        return baseline_path[: -len(".json")] + ".trace.jsonl"
    return baseline_path + ".trace.jsonl"


def record_reference_trace(
    destination: Optional[str] = None,
    *,
    seed: int = 20060101,
    ops: int = REFERENCE_TRACE_OPS,
) -> Tuple[List, Dict]:
    """Drive the deterministic forensic workload with a live tracer.

    A short per-op mixed soak (same generator as the ``mixed`` workload)
    whose full event stream is the *forensic reference*: committed
    alongside the baseline JSON so that a ``--check`` regression can be
    diffed operation-by-operation against the exact run that set the
    bar.  Returns ``(events, header)``; when ``destination`` is given
    the framed JSONL trace is also streamed there.

    Built directly on the tracer rather than :mod:`repro.obs.runner`
    (which imports this module — the dependency must stay one-way).
    """
    tracer = Tracer(buffer_size=max(ops * 4, 4096), sink=destination)
    store = HardwareTagStore(granularity=8.0, tracer=tracer)
    tracer.write_header(
        build_trace_header(
            seed=seed,
            mode="per_op",
            config=store.describe(),
            ops=ops,
            purpose="bench_reference",
        )
    )
    _drive_per_op(store, make_mixed_ops(ops, seed))
    tracer.flush()
    tracer.close()
    return tracer.events(), tracer.header


def _forensic_diff(baseline_path: str, seed: int) -> None:
    """On a ``--check`` regression, diff reference traces to stderr."""
    trace_path = reference_trace_path(baseline_path)
    try:
        reference = read_trace(trace_path)
    except FileNotFoundError:
        print(
            f"  (no reference trace at {trace_path}; rerun 'python -m "
            "repro bench' to record one and enable forensic diffs)",
            file=sys.stderr,
        )
        return
    events, header = record_reference_trace(seed=seed)
    try:
        diff = diff_traces(
            reference.events,
            events,
            header_a=reference.header,
            header_b=header,
            labels=(trace_path, "current run"),
        )
    except TraceCompatibilityError as error:
        print(f"  (forensic diff skipped: {error})", file=sys.stderr)
        return
    print("\nforensic trace diff (baseline vs current):", file=sys.stderr)
    for line in diff.report().splitlines():
        print(f"  {line}", file=sys.stderr)


def _bench_distributions(count: int, mixed_count: int, seed: int) -> Dict:
    """Per-phase distribution data (machine-independent, untimed).

    Runs *fresh*, instrumented gate circuits — the timed cells are never
    traced, so their wall numbers stay comparable to pre-telemetry
    baselines.  Three phases on the paper format and default matcher:

    * ``insert`` / ``dequeue`` — per-op access-count distributions of a
      sorted-load fill and drain;
    * ``mixed`` — the bursty mixed workload through the hardware store
      with a live tracer, summarizing per-op accesses, occupancy,
      storage free-list depth, and clamp magnitudes.
    """
    fmt = PAPER_FORMAT
    tags = _sorted_tags(fmt, count, seed)
    circuit = make_circuit(fmt, capacity=count)
    registry = circuit.registry

    insert_hist = Histogram()
    before = registry.total().total
    for tag in tags:
        circuit.insert(tag)
        after = registry.total().total
        insert_hist.record(after - before)
        before = after

    dequeue_hist = Histogram()
    for _ in range(count):
        circuit.dequeue_min()
        after = registry.total().total
        dequeue_hist.record(after - before)
        before = after

    probes = StandardProbes()
    tracer = Tracer(buffer_size=1, observers=[probes])  # instruments only
    store = HardwareTagStore(granularity=8.0, tracer=tracer)
    _drive_per_op(store, make_mixed_ops(mixed_count, seed))
    instruments = probes.instruments
    mixed = {
        name: instruments.hist(name).summary()
        for name in ("op_accesses", "occupancy", "free_list_depth")
    }
    if "clamp_quanta" in instruments:
        mixed["clamp_quanta"] = instruments.hist("clamp_quanta").summary()

    return {
        "insert": insert_hist.summary(),
        "dequeue": dequeue_hist.summary(),
        "mixed": mixed,
    }


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin to the last CPU this process may use (CPU 0 takes most
    interrupts on small VMs), so every window and calibration slice runs
    on one core; the mask is restored after."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_bench(*, preset: str = "full", seed: int = 20060101) -> Dict:
    """Run every workload; returns the JSON-ready result document."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    sizes = PRESETS[preset]
    calibration = Calibration()
    scenarios: List[Dict] = []
    with _one_cpu():
        for cells in workloads(preset, seed):
            scenarios.extend(
                run_workload(
                    cells, min_window=sizes.min_window,
                    calibration=calibration,
                )
            )
    return {
        "schema": _SCHEMA,
        "preset": preset,
        "seed": seed,
        "machine": machine_info(calibration),
        "scenarios": scenarios,
        "ratios": compute_ratios(scenarios),
        "distributions": _bench_distributions(
            sizes.sorted_counts["w12"], min(sizes.mixed, 10_000), seed
        ),
    }


def _windows_span_floor(cells: Dict[str, Dict], names: Tuple[str, ...]):
    return all(
        cells.get(name, {}).get("window_seconds", 0.0)
        >= MIN_TIMED_WALL_SECONDS
        for name in names
    )


def check_against_baseline(
    current: Dict,
    baseline: Dict,
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh run to the committed baseline.

    Returns human-readable regression messages (empty = pass).  A cell's
    ops/s may drop by up to ``tolerance`` once divided by the ratio of
    the two calibration scores, compared only when its window spans
    :data:`MIN_TIMED_WALL_SECONDS` in *both* runs; a :data:`GATES` ratio
    may fall by as much (wall rows only when all four windows span the
    floor; both sides of a ratio share the machine state, so it is not
    normalized).  Accesses and cycles per op may grow by as much.
    """
    if baseline.get("preset") != current.get("preset"):
        return [
            f"baseline preset {baseline.get('preset')!r} does not match "
            f"current run {current.get('preset')!r}; regenerate the baseline"
        ]
    old_cal = (baseline.get("machine") or {}).get("calibration_ops_per_second")
    new_cal = (current.get("machine") or {}).get("calibration_ops_per_second")
    scale = (new_cal / old_cal) if old_cal and new_cal else 1.0
    old_cells = {s["name"]: s for s in baseline.get("scenarios", ())}
    new_cells = {s["name"]: s for s in current.get("scenarios", ())}
    has_vector = any(s.get("engine") == "vector" for s in new_cells.values())
    problems: List[str] = []
    for name, old in sorted(old_cells.items()):
        new = new_cells.get(name)
        if new is None:
            if old.get("engine") == "vector" and not has_vector:
                # Vector cells need numpy; a host without it skips them.
                continue
            problems.append(f"scenario {name} disappeared from the suite")
            continue
        normalized = new["ops_per_second"] / scale
        if (
            _windows_span_floor(old_cells, (name,))
            and _windows_span_floor(new_cells, (name,))
            and normalized < old["ops_per_second"] * (1.0 - tolerance)
        ):
            qualifier = (
                "" if scale == 1.0
                else f" ({normalized:.0f} machine-normalized)"
            )
            problems.append(
                f"{name}: throughput {new['ops_per_second']:.0f} ops/s"
                f"{qualifier} fell >{tolerance:.0%} below baseline "
                f"{old['ops_per_second']:.0f}"
            )
        for metric in ("accesses_per_op", "cycles_per_op"):
            if new[metric] > old[metric] * (1.0 + tolerance):
                problems.append(
                    f"{name}: {metric} {new[metric]} grew >{tolerance:.0%} "
                    f"over baseline {old[metric]}"
                )
    old_ratios = baseline.get("ratios", {})
    new_ratios = current.get("ratios", {})
    for gate in GATES:
        old, new = old_ratios.get(gate.name), new_ratios.get(gate.name)
        if old is None or new is None:
            continue
        sides = (gate.numerator, gate.denominator)
        if not gate.modeled and not (
            _windows_span_floor(old_cells, sides)
            and _windows_span_floor(new_cells, sides)
        ):
            continue
        if new["value"] < old["value"] * (1.0 - tolerance):
            problems.append(
                f"{gate.name} {new['value']}x ({gate.numerator} over "
                f"{gate.denominator}) fell >{tolerance:.0%} below baseline "
                f"{old['value']}x"
            )
    return problems


def _format_summary(document: Dict) -> str:
    lines = [
        f"perf suite ({document['preset']} preset, seed {document['seed']})",
        "",
        f"  {'scenario':<44} {'ops/s':>12} {'acc/op':>8} {'cyc/op':>8} "
        f"{'window':>8}",
    ]
    for scenario in document["scenarios"]:
        lines.append(
            f"  {scenario['name']:<44} {scenario['ops_per_second']:>12,.0f} "
            f"{scenario['accesses_per_op']:>8.2f} "
            f"{scenario['cycles_per_op']:>8.2f} "
            f"{scenario['window_seconds']:>7.3f}s"
        )
    lines += ["", "  ratios (numerator over denominator):"]
    for name, ratio in document["ratios"].items():
        floor = (
            "" if ratio["floor"] is None
            else f"  [floor {ratio['floor']}x: {', '.join(ratio['presets'])}]"
        )
        lines.append(
            f"    {name:<24} {ratio['value']:>7.2f}x  {ratio['numerator']} "
            f"over {ratio['denominator']}{floor}"
        )
    distributions = document["distributions"]
    lines += ["", "  per-phase access distributions (p50/p99/max):"]
    for phase in ("insert", "dequeue"):
        s = distributions[phase]
        lines.append(
            f"    {phase:<8} {s['p50']:.0f}/{s['p99']:.0f}/{s['max']:.0f}"
            f"  (n={s['count']})"
        )
    mixed = distributions["mixed"]["op_accesses"]
    lines.append(
        f"    {'mixed':<8} {mixed['p50']:.0f}/{mixed['p99']:.0f}/"
        f"{mixed['max']:.0f}  (n={mixed['count']})"
    )
    return "\n".join(lines)


class BaselineError(Exception):
    """The ``--check`` baseline is missing, unreadable or of another schema."""


def read_baseline(path: str) -> Dict:
    """The baseline document at ``path``, refused unless it is schema 8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError as error:
        raise BaselineError(
            f"cannot read baseline {path} ({error.strerror or error})"
        ) from None
    except ValueError as error:
        raise BaselineError(
            f"baseline {path} is not valid JSON ({error})"
        ) from None
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != _SCHEMA:
        raise BaselineError(
            f"baseline {path} is schema {schema}, not {_SCHEMA}"
        )
    return baseline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the sort/retrieve hot paths and manage the "
        "perf-regression baseline.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI preset: one pass per window (seconds, not minutes)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        # argparse %-formats help strings, so the percent sign must be
        # doubled or it swallows the rest of the text.
        help=f"compare against the baseline instead of rewriting it; "
        f"exits 1 on a >{round(REGRESSION_TOLERANCE * 100)}%% regression",
    )
    parser.add_argument(
        "--output",
        default=BASELINE_FILENAME,
        help="where to write (or read, with --check) the baseline JSON",
    )
    parser.add_argument(
        "--seed", type=int, default=20060101, help="workload seed"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    baseline = None
    if args.check:
        # Refuse a baseline that cannot be compared before the run.
        try:
            baseline = read_baseline(args.output)
        except BaselineError as error:
            print(
                f"FAIL: {error}; regenerate it with 'python -m repro bench'",
                file=sys.stderr,
            )
            return 1

    document = run_bench(
        preset="smoke" if args.smoke else "full", seed=args.seed
    )
    print(_format_summary(document))
    failures = floor_failures(document)
    for failure in failures:
        print(f"\nFAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    if baseline is not None:
        for warning in machine_mismatch_warnings(document, baseline):
            print(f"WARN: {warning}", file=sys.stderr)
        problems = check_against_baseline(document, baseline)
        if problems:
            print("\nFAIL: performance regressed:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            _forensic_diff(args.output, args.seed)
            return 1
        print(f"\nOK: within {REGRESSION_TOLERANCE:.0%} of {args.output}")
        return 0

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"\nbaseline written to {args.output}")
    trace_path = reference_trace_path(args.output)
    record_reference_trace(trace_path, seed=args.seed)
    print(f"reference trace written to {trace_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
