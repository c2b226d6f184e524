"""Timer-wheel workloads: the insert/cancel-heavy face of the circuit.

The grouped-sorting-queue NIC line of work (PAPERS.md) and Eiffel's
software schedulers stress priority queues with *timer management*
patterns: most entries never fire — they are cancelled (a TCP
retransmission timer dies with its ACK) or pushed back (a flow-expiry
timer resets on every packet) — so insert/cancel churn dominates and
serve-the-minimum is the rare path.  This module runs exactly those
patterns over the sort/retrieve circuit's dynamic-update primitives
(:meth:`~repro.net.hardware_store.HardwareTagStore.remove` /
:meth:`~repro.net.hardware_store.HardwareTagStore.retag`), as the
``python -m repro timer`` workload and the bench ``timer_churn`` phase.

:class:`TimerWheel` adapts a tag store (or a
:class:`~repro.fabric.fabric.ScheduleFabric` — same contract) into a
timer facade: ``arm`` returns a stable token, ``cancel`` and ``reset``
spend it, ``expire_until`` fires due timers in deadline order.  Tokens
survive ``reset`` (the underlying circuit handle changes; the token
mapping absorbs it), which is what a real timer API needs.

Three scenario families, deterministic per seed:

* ``churn`` — uniform arm/cancel/reset/fire mix at a configurable
  cancel ratio; the general stress shape.
* ``retransmit`` — per-connection TCP retransmission timers: armed at
  ``now + RTO`` on send, cancelled by ACK (most of the time), doubled
  (reset to ``now + 2·RTO``) on a lost ACK, fired on a dead peer.
* ``expiry`` — per-flow idle-expiry timers: every packet arrival
  *resets* the flow's timer to ``now + idle_timeout``; only flows that
  go quiet actually fire.  Nearly every operation is a repin.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.engine import resolve_mode
from ..hwsim.errors import ProtocolError
from ..obs.harness import (
    HarnessRun, RunHarness, add_flags, finish, soak_kwargs,
)
from .hardware_store import HardwareTagStore

PATTERNS = ("churn", "retransmit", "expiry")


class TimerWheel:
    """Timer facade over a tag store's dynamic-update primitives.

    ``backend`` is a
    :class:`~repro.net.hardware_store.HardwareTagStore` or a
    :class:`~repro.fabric.fabric.ScheduleFabric` — anything with the
    store contract (``push``/``remove``/``retag``/``peek_min_exact``/
    ``pop_min``/``__len__``).  The wheel stores its own *token* as the
    backend payload, so a fired entry maps straight back to the timer
    it belonged to; the token is what survives a :meth:`reset` (the
    underlying circuit handle changes, the token mapping absorbs it).
    """

    def __init__(self, backend) -> None:
        self.backend = backend
        #: fabric backends route on an int flow key and carry the token
        #: as opaque payload; plain stores take the token directly
        self._fabric = hasattr(backend, "handle_location")
        if self._fabric and hasattr(backend, "add_relocation_listener"):
            # Rebalancing may migrate live entries between shards; the
            # wheel's token ledger must follow the moved handles.
            backend.add_relocation_listener(self._apply_relocations)
        #: stable token -> current circuit handle (resets re-map it)
        self._handles: Dict[int, int] = {}
        #: token -> timer id, for cancel/fire reporting
        self._ids: Dict[int, object] = {}
        #: token -> effective deadline: the requested one, unless the
        #: store's behind-minimum clamp moved the entry up to the live
        #: minimum's quantum (Section III-A: the circuit serves it FCFS
        #: there instead of strictly first)
        self._effective: Dict[int, float] = {}
        self._next_token = 0
        self.armed = 0
        self.cancelled = 0
        self.repinned = 0
        self.fired = 0
        #: effective deadlines in fire order (the order-check witness)
        self.fired_effective: List[float] = []

    def _apply_relocations(self, relocations: Dict[int, int]) -> None:
        """Remap token handles after a fabric backlog migration."""
        if not relocations:
            return
        for token, handle in self._handles.items():
            moved = relocations.get(handle)
            if moved is not None:
                self._handles[token] = moved

    def _clamp_count(self) -> int:
        if self._fabric:
            return sum(s.clamped_inserts for s in self.backend.stores)
        return self.backend.clamped_inserts

    def _effective_deadline(
        self, requested: float, before: int, handle: int
    ) -> float:
        """Requested deadline, lifted to the head's if the push clamped.

        The clamp target is the *owning circuit's* minimum — on a fabric
        that is the entry's shard head, not the global tournament head.
        The head's own deadline is read from the wheel's effective
        ledger, not its exact tag: a head that was itself clamped sits
        above its requested deadline, and the lift must chain.
        """
        if self._clamp_count() > before:
            if self._fabric:
                shard, _ = self.backend.handle_location(handle)
                head = self.backend.stores[shard].peek_min_exact()
                head_token = head[1][1] if head is not None else None
            else:
                head = self.backend.peek_min_exact()
                head_token = head[1] if head is not None else None
            if head is not None:
                head_deadline = self._effective.get(head_token, head[0])
                return max(requested, head_deadline)
        return requested

    @property
    def pending(self) -> int:
        """Timers currently armed."""
        return len(self._handles)

    def arm(self, deadline: float, timer_id) -> int:
        """Arm a timer; returns a token valid until cancel/fire."""
        token = self._next_token
        before = self._clamp_count()
        if self._fabric:
            # Route on the timer id (keeps one connection/flow's timers
            # shard-local, like the scheduler pins flows), carry the
            # token as payload.
            handle = self.backend.push(deadline, int(timer_id), token)
        else:
            handle = self.backend.push(deadline, token)
        self._next_token += 1
        self._handles[token] = handle
        self._ids[token] = timer_id
        self._effective[token] = self._effective_deadline(
            deadline, before, handle
        )
        self.armed += 1
        return token

    def cancel(self, token: int) -> object:
        """Disarm a pending timer; returns its timer id."""
        try:
            handle = self._handles.pop(token)
        except KeyError:
            raise ProtocolError(
                f"timer token {token} is not armed"
            ) from None
        self.backend.remove(handle)
        self.cancelled += 1
        self._effective.pop(token, None)
        return self._ids.pop(token)

    def reset(self, token: int, new_deadline: float) -> int:
        """Move a pending timer to a new deadline; the token survives."""
        handle = self._handles.get(token)
        if handle is None:
            raise ProtocolError(f"timer token {token} is not armed")
        before = self._clamp_count()
        new_handle = self.backend.retag(handle, new_deadline)
        self._handles[token] = new_handle
        self._effective[token] = self._effective_deadline(
            new_deadline, before, new_handle
        )
        self.repinned += 1
        return token

    def expire_until(self, now: float) -> List[Tuple[float, object]]:
        """Fire every timer with deadline <= ``now``, in deadline order.

        Returns ``(deadline, timer_id)`` pairs; their tokens are spent.
        """
        due: List[Tuple[float, object]] = []
        while len(self.backend):
            head = self.backend.peek_min_exact()
            if head is None or head[0] > now:
                break
            deadline, token = self.backend.pop_min()
            self._handles.pop(token, None)
            self.fired_effective.append(self._effective.pop(token, deadline))
            due.append((deadline, self._ids.pop(token)))
            self.fired += 1
        return due


# ----------------------------------------------------------------------
# scenario drivers (deterministic per seed)


@dataclass
class TimerRun(HarnessRun):
    """Telemetry of one timer-workload soak."""

    harness: RunHarness
    pattern: str
    events: int
    seed: int
    granularity: float
    mode: str
    shards: int
    armed: int
    cancelled: int
    repinned: int
    fired: int
    pending: int
    cycles: int
    operations: int
    fired_deadlines: List[float] = field(default_factory=list, repr=False)
    backend: Optional[object] = None

    @property
    def served_in_order(self) -> bool:
        """Effective deadlines fired nondecreasing up to one tag quantum.

        The circuit sorts *quantized* tags and serves intra-quantum ties
        FIFO, so effective deadlines (requested, or lifted to the live
        minimum's quantum by the store's behind-minimum clamp) can invert
        by strictly less than one granularity quantum — never more.
        """
        return all(
            earlier - later <= self.granularity
            for earlier, later in zip(
                self.fired_deadlines, self.fired_deadlines[1:]
            )
        )

    @property
    def conserved(self) -> bool:
        """Every armed timer is accounted: fired, cancelled, or pending."""
        return self.armed == self.fired + self.cancelled + self.pending

    def to_document(self) -> Dict:
        document = {
            "workload": {
                "pattern": self.pattern,
                "events": self.events,
                "seed": self.seed,
                "engine": self.mode,
                "shards": self.shards,
            },
            "timers": {
                "armed": self.armed,
                "cancelled": self.cancelled,
                "repinned": self.repinned,
                "fired": self.fired,
                "pending": self.pending,
            },
            "circuit": {
                "cycles": self.cycles,
                "operations": self.operations,
            },
            "checks": {
                "served_in_order": self.served_in_order,
                "conserved": self.conserved,
            },
        }
        blocks = self.harness.blocks()
        for key in ("monitors", "live", "serve_audit"):
            if blocks[key] is not None:
                document[key] = blocks[key]
        return document

    def report(self) -> str:
        lines = [
            f"timer soak: pattern={self.pattern}, {self.events} events, "
            f"seed {self.seed}, "
            f"{self.mode} engine"
            + (f", {self.shards} shards" if self.shards > 1 else ""),
            "",
            f"  armed      {self.armed:>8}",
            f"  cancelled  {self.cancelled:>8}",
            f"  repinned   {self.repinned:>8}",
            f"  fired      {self.fired:>8}",
            f"  pending    {self.pending:>8}",
            "",
            f"  circuit: {self.operations} operations, "
            f"{self.cycles} cycles",
            f"  fired in deadline order: {self.served_in_order}",
            f"  timer conservation: {self.conserved}",
        ]
        lines += [f"  {note}" for note in self.harness.notes()]
        return "\n".join(lines) + "\n"


def _drive_churn(
    wheel: TimerWheel,
    events: int,
    rng: random.Random,
    *,
    cancel_ratio: float,
    pending_target: int = 1500,
    ramp: int = 0,
) -> List[Tuple[float, object]]:
    """Uniform arm/cancel/reset/fire mix; live set soft-capped.

    ``pending_target`` is the relief-valve threshold (the soft cap on
    concurrently armed timers).  ``ramp`` arms that many timers up
    front — spread over the usual deadline window — before the churn
    mix starts, which is how the million-timer preset reaches its
    concurrency without waiting for the mix's slow net drift.
    """
    now = 0.0
    live: List[int] = []
    due: List[Tuple[float, object]] = []
    for index in range(ramp):
        now += 0.001
        live.append(wheel.arm(now + 60.0 + rng.random() * 240.0, -index - 1))
    for index in range(events):
        now += rng.random() * 2.0
        roll = rng.random()
        if wheel.pending > pending_target:
            # Relief valve: fire everything due in the near future so the
            # circuit never hits capacity under an arm-heavy seed.  The
            # horizon stays below the arm offset floor, so relief never
            # advances the service floor past a deadline still being
            # armed (which would clamp it).
            due.extend(wheel.expire_until(now + 50.0))
            live = [t for t in live if t in wheel._handles]
        elif roll < 0.45 or not live:
            live.append(wheel.arm(now + 60.0 + rng.random() * 240.0, index))
        elif roll < 0.45 + cancel_ratio * 0.45:
            token = live.pop(rng.randrange(len(live)))
            if token in wheel._handles:
                wheel.cancel(token)
        elif roll < 0.88:
            token = rng.choice(live)
            if token in wheel._handles:
                wheel.reset(token, now + 60.0 + rng.random() * 240.0)
        else:
            due.extend(wheel.expire_until(now))
            live = [t for t in live if t in wheel._handles]
    due.extend(wheel.expire_until(float("inf")))
    return due


def _drive_retransmit(
    wheel: TimerWheel, events: int, rng: random.Random, *, connections: int
) -> List[Tuple[float, object]]:
    """TCP retransmission timers: arm on send, cancel on ACK."""
    now = 0.0
    rto = 30.0
    pending: Dict[int, int] = {}  # connection -> token
    due: List[Tuple[float, object]] = []
    for _ in range(events):
        now += rng.random() * 1.5
        connection = rng.randrange(connections)
        token = pending.get(connection)
        if token is None or token not in wheel._handles:
            # Segment sent: arm the retransmission timer.
            pending[connection] = wheel.arm(now + rto, connection)
            continue
        roll = rng.random()
        if roll < 0.80:
            # ACK arrived in time: the timer dies with it.
            wheel.cancel(token)
            del pending[connection]
        elif roll < 0.95:
            # Duplicate ACKs / reordering: exponential backoff repin.
            wheel.reset(token, now + 2 * rto)
        else:
            # Peer went quiet: let every due timer fire.
            due.extend(wheel.expire_until(now))
            pending = {
                c: t for c, t in pending.items() if t in wheel._handles
            }
    due.extend(wheel.expire_until(float("inf")))
    return due


def _drive_expiry(
    wheel: TimerWheel, events: int, rng: random.Random, *, flows: int
) -> List[Tuple[float, object]]:
    """Flow idle-expiry: packet arrivals repin, quiet flows fire."""
    now = 0.0
    idle_timeout = 200.0
    timers: Dict[int, int] = {}  # flow -> token
    due: List[Tuple[float, object]] = []
    for _ in range(events):
        now += rng.random() * 2.0
        # Harvest every expiry that came due before this arrival.
        expired = wheel.expire_until(now)
        if expired:
            due.extend(expired)
            timers = {
                f: t for f, t in timers.items() if t in wheel._handles
            }
        # Zipf-ish activity: a few flows carry most packets, so the
        # cold tail actually reaches its idle timeout.
        flow = min(int(rng.expovariate(1.0) * flows / 4), flows - 1)
        token = timers.get(flow)
        if token is not None and token in wheel._handles:
            wheel.reset(token, now + idle_timeout)
        else:
            timers[flow] = wheel.arm(now + idle_timeout, flow)
    due.extend(wheel.expire_until(float("inf")))
    return due


def run_timer_soak(
    *,
    pattern: str = "churn",
    events: int = 10_000,
    seed: int = 20060101,
    granularity: float = 1.0,
    mode: Optional[str] = None,
    shards: int = 1,
    capacity: int = 4096,
    cancel_ratio: float = 0.6,
    pending_target: int = 1500,
    ramp: int = 0,
    trace_sink: Optional[str] = None,
    buffer_size: int = 65536,
    monitor: bool = False,
    serve_port: Optional[int] = None,
    serve_host: str = "127.0.0.1",
    serve_linger: float = 0.0,
    live_interval: float = 0.5,
    watchdog_timeout: Optional[float] = None,
) -> TimerRun:
    """Drive one timer scenario; returns its telemetry and checks.

    ``shards > 1`` runs the wheel over a
    :class:`~repro.fabric.fabric.ScheduleFabric` (cancel and repin stay
    shard-local — the shard-drain-free property the fabric tests pin).
    The observability keywords are the
    :class:`~repro.obs.harness.RunHarness` ones; a tracer exists only
    when one of them consumes it.  ``monitor=True`` screens the event
    stream through the online invariant monitors, including the
    dynamic-update pair (``handle_liveness``, ``free_list_removal``);
    ``serve_port`` attaches the live plane and the tag-domain serve
    auditor for the duration of the soak.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown timer pattern {pattern!r}")
    mode = resolve_mode(mode)
    if shards > 1:
        from ..fabric.fabric import ScheduleFabric

        backend = ScheduleFabric(
            shards=shards,
            granularity=granularity,
            capacity_per_shard=capacity,
            mode=mode,
        )
        config = backend.stores[0].describe()
    else:
        backend = HardwareTagStore(
            granularity=granularity, capacity=capacity, mode=mode
        )
        config = backend.describe()
    wheel = TimerWheel(backend)
    harness = RunHarness(
        backend,
        header=dict(
            seed=seed,
            mode="per_op",
            config=config,
            ops=events,
            purpose=f"timer_{pattern}",
            engine=mode,
        ),
        traced=monitor or trace_sink is not None or serve_port is not None,
        trace_sink=trace_sink,
        buffer_size=buffer_size,
        monitor=monitor,
        serve_port=serve_port,
        serve_host=serve_host,
        serve_linger=serve_linger,
        live_interval=live_interval,
        watchdog_timeout=watchdog_timeout,
        extra_status=lambda: {
            "timer": {
                "pattern": pattern,
                "armed": wheel.armed,
                "fired": wheel.fired,
                "cancelled": wheel.cancelled,
                "pending": wheel.pending,
            }
        },
    )
    rng = random.Random(seed)
    with harness:
        if pattern == "churn":
            _drive_churn(
                wheel,
                events,
                rng,
                cancel_ratio=cancel_ratio,
                pending_target=pending_target,
                ramp=ramp,
            )
        elif pattern == "retransmit":
            _drive_retransmit(wheel, events, rng, connections=256)
        else:
            _drive_expiry(wheel, events, rng, flows=512)
    return TimerRun(
        harness=harness,
        pattern=pattern,
        events=events,
        seed=seed,
        granularity=granularity,
        mode=mode,
        shards=shards,
        armed=wheel.armed,
        cancelled=wheel.cancelled,
        repinned=wheel.repinned,
        fired=wheel.fired,
        pending=wheel.pending,
        cycles=backend.cycles,
        operations=backend.operations,
        fired_deadlines=wheel.fired_effective,
        backend=backend,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro timer",
        description=(
            "Run a timer-wheel workload (insert/cancel churn, TCP "
            "retransmit, flow expiry) over the circuit's dynamic-update "
            "primitives."
        ),
    )
    parser.add_argument(
        "--pattern",
        choices=PATTERNS,
        default="churn",
        help="scenario family",
    )
    parser.add_argument(
        "--events", type=int, default=10_000, help="workload events"
    )
    parser.add_argument(
        "--seed", type=int, default=20060101, help="workload seed"
    )
    parser.add_argument(
        "--granularity", type=float, default=1.0, help="tag quantum"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=4096,
        help="per-circuit tag-storage capacity (links)",
    )
    parser.add_argument(
        "--pending-target",
        type=int,
        default=1500,
        help="churn pattern: soft cap on concurrently armed timers",
    )
    parser.add_argument(
        "--ramp",
        type=int,
        default=0,
        help="churn pattern: timers armed up front before the mix starts",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run over a scheduling fabric of this many shards",
    )
    parser.add_argument(
        "--cancel-ratio",
        type=float,
        default=0.6,
        help="churn pattern: fraction of timers cancelled before firing",
    )
    add_flags(
        parser, "--mode", "--trace", "--buffer-size", "--monitor",
        "--serve", "--serve-host", "--serve-linger", "--live-interval",
        "--watchdog", "--output", "--format",
        format={"choices": ("text", "json"), "help": "run-report format"},
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = run_timer_soak(
        pattern=args.pattern,
        events=args.events,
        seed=args.seed,
        granularity=args.granularity,
        shards=args.shards,
        capacity=args.capacity,
        cancel_ratio=args.cancel_ratio,
        pending_target=args.pending_target,
        ramp=args.ramp,
        **soak_kwargs(args),
    )
    return finish(
        args,
        run,
        [
            (run.served_in_order, "timers fired out of deadline order"),
            (
                run.conserved,
                "timer conservation broken (armed != fired + cancelled "
                "+ pending)",
            ),
        ],
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
