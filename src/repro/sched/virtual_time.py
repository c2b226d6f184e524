"""The WFQ virtual-time engine — eq. (1) of the paper.

WFQ tracks the progress of a simulated GPS server with a *virtual time*
V(t) that advances at rate 1/sum(phi_i, i in B(t)) where B(t) is the set
of sessions busy **in the GPS reference system**.  B(t) changes whenever a
packet finishes GPS service, i.e. whenever V reaches the smallest
outstanding finishing tag F_min.  The paper's eq. (1),

    Next(t) = t + (F_min - V(t)) * sum(phi_i, i in B),

is exactly the real time of that next GPS departure; this engine advances
virtual time by iterating it: jump departure-by-departure while
Next(t) <= the requested time, then advance linearly.

The engine is deliberately independent of any packet scheduler: WFQ,
WF2Q and the hardware tag-computation circuit of ref. [8] all consume it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..hwsim.errors import ConfigurationError


class TaggedArrival(NamedTuple):
    """The (start, finish) virtual tags computed for one packet."""

    start_tag: float
    finish_tag: float


class VirtualClock:
    """Piecewise-linear GPS virtual time with eq. (1) iteration."""

    def __init__(self, rate_bps: float = 1.0) -> None:
        if rate_bps <= 0:
            raise ConfigurationError("link rate must be positive")
        self.rate_bps = rate_bps
        self._weights: Dict[int, float] = {}
        self._now = 0.0
        self._virtual = 0.0
        self._last_finish: Dict[int, float] = {}
        # Outstanding GPS work: (finish_tag, session) heap plus per-session
        # outstanding counts; a session is GPS-busy while it has any
        # outstanding finish tag.
        self._gps_heap: List[Tuple[float, int]] = []
        self._outstanding: Dict[int, int] = {}
        self._busy_weight = 0.0
        #: what the last :meth:`on_arrival` changed, for
        #: :meth:`undo_arrival`; cleared by every other time advance
        self._last_arrival: Optional[tuple] = None

    # ------------------------------------------------------------------
    # session management

    def register(self, session: int, weight: float) -> None:
        """Declare a session's weight phi_i (before its first arrival)."""
        if weight <= 0:
            raise ConfigurationError("session weight must be positive")
        self._weights[session] = weight

    def weight_of(self, session: int) -> float:
        """phi_i for ``session`` (defaults to 1.0 when never registered)."""
        return self._weights.get(session, 1.0)

    # ------------------------------------------------------------------
    # observers

    @property
    def now(self) -> float:
        """Real time of the last update."""
        return self._now

    @property
    def virtual_time(self) -> float:
        """V(now)."""
        return self._virtual

    @property
    def busy_weight(self) -> float:
        """sum(phi_i) over GPS-busy sessions."""
        return self._busy_weight

    @property
    def minimum_finish_tag(self) -> Optional[float]:
        """F_min: the smallest outstanding GPS finishing tag."""
        self._prune_heap()
        return self._gps_heap[0][0] if self._gps_heap else None

    def next_departure_time(self) -> Optional[float]:
        """Eq. (1): real time of the next simulated GPS departure."""
        minimum = self.minimum_finish_tag
        if minimum is None:
            return None
        return (
            self._now
            + (minimum - self._virtual) * self._busy_weight / self.rate_bps
        )

    # ------------------------------------------------------------------
    # time advance

    def _prune_heap(self) -> None:
        while self._gps_heap and self._outstanding.get(self._gps_heap[0][1], 0) == 0:
            heappop(self._gps_heap)

    def advance_to(self, t: float) -> None:
        """Advance real time to ``t``, processing GPS departures en route."""
        now = self._now
        if t < now - 1e-12:
            raise ConfigurationError(f"time moved backwards: {t} < {now}")
        self._last_arrival = None
        heap = self._gps_heap
        outstanding = self._outstanding
        while heap:
            finish_tag, session = heap[0]
            count = outstanding.get(session, 0)
            if count == 0:
                # No outstanding work behind this entry: prune it.
                heappop(heap)
                continue
            departure = (
                now
                + (finish_tag - self._virtual)
                * self._busy_weight
                / self.rate_bps
            )
            if departure > t + 1e-15:
                break
            # Jump to the departure instant: V reaches the finish tag.
            now = departure
            self._virtual = finish_tag
            heappop(heap)
            outstanding[session] = count - 1
            if count == 1:
                busy_weight = self._busy_weight - self._weights.get(
                    session, 1.0
                )
                self._busy_weight = 0.0 if busy_weight < 1e-12 else busy_weight
        else:
            # GPS idle: V holds its value while no session is busy.
            self._now = max(now, t)
            return
        # Linear segment to t within the current busy set.
        if self._busy_weight > 0:
            self._virtual += (t - now) * self.rate_bps / self._busy_weight
        self._now = t

    # ------------------------------------------------------------------
    # arrivals

    def on_arrival(
        self, session: int, size_bits: float, arrival_time: float
    ) -> TaggedArrival:
        """Compute the (start, finish) tags for one arriving packet.

        Advances virtual time to the arrival instant, then applies the
        classic WFQ tag rules::

            S = max(V(t), F_previous(session))
            F = S + size_bits / phi_session

        Virtual time advances at ``rate_bps / busy_weight``, so tags are
        in bit-per-unit-weight units and eq. (1) converts back to seconds
        through the link rate.
        """
        if size_bits <= 0:
            raise ConfigurationError("packet size must be positive")
        self.advance_to(arrival_time)
        weight = self._weights.get(session, 1.0)
        previous = self._last_finish.get(session)
        start = max(self._virtual, 0.0 if previous is None else previous)
        finish = start + size_bits / weight
        self._last_finish[session] = finish
        # Track GPS busyness.
        busy_weight = self._busy_weight
        count = self._outstanding.get(session)
        if not count:
            self._busy_weight = busy_weight + weight
        self._outstanding[session] = (count or 0) + 1
        entry = (finish, session)
        heappush(self._gps_heap, entry)
        self._last_arrival = (session, previous, count, busy_weight, entry)
        return TaggedArrival(start, finish)

    def undo_arrival(self) -> None:
        """Take back the last :meth:`on_arrival`, exactly.

        The clock returns to the state :meth:`advance_to` alone would
        have left: the session's last finish tag, its outstanding count,
        the busy weight and the GPS heap array are what they were before
        the arrival was tagged.  A scheduler calls this when the packet
        it tagged is refused downstream, so a refused packet costs its
        flow no service position.  Only the most recent arrival can be
        taken back, and only before the clock advances again.
        """
        if self._last_arrival is None:
            raise ConfigurationError("no arrival to undo")
        session, previous, count, busy_weight, entry = self._last_arrival
        self._last_arrival = None
        if previous is None:
            del self._last_finish[session]
        else:
            self._last_finish[session] = previous
        if count is None:
            del self._outstanding[session]
        else:
            self._outstanding[session] = count
        self._busy_weight = busy_weight
        # heappush appended the entry and sifted it up its ancestor
        # chain, moving each ancestor it passed one level down; move
        # them back up and drop the appended slot.
        heap = self._gps_heap
        path = [len(heap) - 1]
        while heap[path[-1]] is not entry:
            path.append((path[-1] - 1) >> 1)
        for step in range(len(path) - 1, 0, -1):
            heap[path[step]] = heap[path[step - 1]]
        heap.pop()

    def reset(self) -> None:
        """Return to the initial idle state (weights are kept)."""
        self._now = 0.0
        self._virtual = 0.0
        self._gps_heap.clear()
        self._outstanding.clear()
        self._busy_weight = 0.0
        self._last_finish.clear()
        self._last_arrival = None

    # ------------------------------------------------------------------
    # checkpoint / restore (service-plane snapshots)

    def to_state(self) -> dict:
        """Exact serializable snapshot of the GPS reference state.

        The heap is serialized in its list (heap-array) order and the
        floats ride through JSON repr-exactly, so a restored clock issues
        bit-identical tags for the same subsequent arrivals — the
        property the service plane's restart-fidelity check rests on.
        """
        return {
            "kind": "virtual_clock",
            "rate_bps": self.rate_bps,
            "now": self._now,
            "virtual": self._virtual,
            "busy_weight": self._busy_weight,
            "weights": sorted(self._weights.items()),
            "last_finish": sorted(self._last_finish.items()),
            "outstanding": sorted(self._outstanding.items()),
            "gps_heap": [[tag, session] for tag, session in self._gps_heap],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "virtual_clock":
            raise ConfigurationError(
                f"not a virtual clock snapshot: kind={state.get('kind')!r}"
            )
        if state["rate_bps"] != self.rate_bps:
            raise ConfigurationError(
                f"snapshot link rate {state['rate_bps']} != {self.rate_bps}"
            )
        self._now = state["now"]
        self._virtual = state["virtual"]
        self._busy_weight = state["busy_weight"]
        self._weights = {
            int(session): weight for session, weight in state["weights"]
        }
        self._last_finish = {
            int(session): finish
            for session, finish in state["last_finish"]
        }
        self._outstanding = {
            int(session): int(count)
            for session, count in state["outstanding"]
        }
        # A to_state list is already a valid heap array (serialized in
        # place); restoring it verbatim preserves tie order exactly.
        self._gps_heap = [
            (tag, int(session)) for tag, session in state["gps_heap"]
        ]
        self._last_arrival = None
