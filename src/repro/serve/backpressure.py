"""Occupancy-driven backpressure: ECN-style marking and rejection.

The shared packet buffer is the service's one finite data-plane
resource; this module turns its occupancy into per-enqueue decisions the
way router WFQ implementations turn queue length into ECN marks.  Three
marking schemes, modeled on the classic ns WFQ marking variants:

* ``shared`` — mark every accepted packet once the *shared buffer*
  occupancy crosses the mark threshold (one pool, one threshold);
* ``per_queue`` — mark when the arriving packet's own flow already has
  more than ``per_queue_mark`` packets queued (per-virtual-queue
  threshold, independent of the pool);
* ``weighted`` — per-flow threshold scaled by the flow's weight share
  of the marking region: a flow holding ``phi_i / sum(phi)`` of the
  link may hold the same share of the buffer unmarked (the generalized
  multi-queue marking rule).

Rejection is always shared-pool: once occupancy crosses the reject
threshold the enqueue is refused outright (admission-reject response on
the wire) — the service's equivalent of a full-buffer drop, except the
client is told instead of the packet vanishing.  Both thresholds come
from :meth:`~repro.net.buffer.SharedPacketBuffer.mark_threshold`, so
they are consistent with the buffer's own occupancy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..hwsim.errors import ConfigurationError
from ..net.buffer import SharedPacketBuffer

#: the marking schemes, in the order the CLI documents them
SCHEMES = ("shared", "per_queue", "weighted")


@dataclass(frozen=True)
class BackpressureDecision:
    """One enqueue's verdict: admit it, and if so, mark it?"""

    accept: bool
    mark: bool = False
    reason: Optional[str] = None


#: the two admitting verdicts, shared by every enqueue (decisions are
#: frozen, so one instance each serves them all)
ACCEPT = BackpressureDecision(accept=True)
ACCEPT_MARKED = BackpressureDecision(accept=True, mark=True)


class BackpressureController:
    """Turns buffer occupancy into accept/mark/reject decisions."""

    def __init__(
        self,
        buffer: SharedPacketBuffer,
        *,
        scheme: str = "shared",
        mark_fraction: float = 0.65,
        reject_fraction: float = 0.9,
        per_queue_mark: int = 64,
        flow_backlog: Optional[Callable[[int], int]] = None,
        weight_share: Optional[Callable[[int], float]] = None,
    ) -> None:
        if scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown marking scheme {scheme!r} "
                f"(valid: {', '.join(SCHEMES)})"
            )
        if not 0 < mark_fraction <= reject_fraction <= 1:
            raise ConfigurationError(
                "need 0 < mark_fraction <= reject_fraction <= 1"
            )
        if per_queue_mark < 1:
            raise ConfigurationError("per_queue_mark must be positive")
        if scheme == "per_queue" and flow_backlog is None:
            raise ConfigurationError(
                "per_queue marking needs a flow_backlog accessor"
            )
        if scheme == "weighted" and (
            flow_backlog is None or weight_share is None
        ):
            raise ConfigurationError(
                "weighted marking needs flow_backlog and weight_share "
                "accessors"
            )
        self.buffer = buffer
        self.scheme = scheme
        self.mark_fraction = mark_fraction
        self.reject_fraction = reject_fraction
        self.per_queue_mark = per_queue_mark
        self._flow_backlog = flow_backlog
        self._weight_share = weight_share
        self.mark_threshold = buffer.mark_threshold(mark_fraction)
        self.reject_threshold = buffer.mark_threshold(reject_fraction)
        #: decisions by outcome
        self.accepted = 0
        self.marked = 0
        self.rejected = 0

    # ------------------------------------------------------------------

    def _should_mark(self, flow_id: int) -> bool:
        """The per-flow schemes' verdict (``shared`` is judged inline)."""
        backlog = self._flow_backlog(flow_id)
        if self.scheme == "per_queue":
            return backlog >= self.per_queue_mark
        # weighted: the flow's fair share of the marking region.  A
        # flow carrying share s of the link weight may hold s of the
        # mark-threshold region unmarked; the 1-packet floor keeps the
        # lightest flows from being marked on their first packet.
        share = self._weight_share(flow_id)
        allowance = max(1, int(self.mark_threshold * share))
        return backlog >= allowance

    def decide(self, flow_id: int) -> BackpressureDecision:
        """Judge one arriving enqueue *before* it touches the buffer."""
        occupancy = self.buffer.occupancy
        if occupancy >= self.reject_threshold:
            self.rejected += 1
            return BackpressureDecision(
                accept=False,
                reason=(
                    f"backpressure: buffer at {occupancy}/"
                    f"{self.buffer.capacity} exceeds the reject "
                    f"threshold {self.reject_threshold}"
                ),
            )
        if self.scheme == "shared":
            marked = occupancy >= self.mark_threshold
        else:
            marked = self._should_mark(flow_id)
        self.accepted += 1
        if marked:
            self.marked += 1
            return ACCEPT_MARKED
        return ACCEPT

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Counters and thresholds for /metrics and ``stats``."""
        return {
            "scheme": self.scheme,
            "mark_threshold": self.mark_threshold,
            "reject_threshold": self.reject_threshold,
            "accepted": self.accepted,
            "marked": self.marked,
            "rejected": self.rejected,
            "occupancy": self.buffer.occupancy,
            "high_watermark": self.buffer.high_watermark,
        }

    def to_state(self) -> dict:
        """Snapshot of the counters (thresholds are re-derived)."""
        return {
            "kind": "backpressure",
            "scheme": self.scheme,
            "accepted": self.accepted,
            "marked": self.marked,
            "rejected": self.rejected,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "backpressure":
            raise ConfigurationError(
                f"not a backpressure snapshot: kind={state.get('kind')!r}"
            )
        if state["scheme"] != self.scheme:
            raise ConfigurationError(
                f"snapshot scheme {state['scheme']!r} != {self.scheme!r}"
            )
        self.accepted = int(state["accepted"])
        self.marked = int(state["marked"])
        self.rejected = int(state["rejected"])
