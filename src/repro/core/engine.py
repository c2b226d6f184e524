"""Pluggable data-plane engines behind one formal protocol.

The circuit runs on one of three interchangeable engines, picked by the
one ``mode`` knob:

``gate``
    The paper-faithful reference and oracle:
    :class:`~repro.core.sort_retrieve.TagSortRetrieveCircuit` over the
    gate-accurate structures, so every memory access goes through the
    :class:`~repro.hwsim.memory.SinglePortSRAM` / register-file models
    and every search through the matcher circuits.
``turbo``
    :class:`~repro.core.sort_retrieve.FusedSortRetrieveCircuit`: the
    same operation bodies over the fused structure flavours, which
    override only the hot primitives — asserted cycle- and
    access-identical to gate.
``vector``
    The numpy array data plane
    (:class:`~repro.core.vector.VectorSortRetrieveCircuit`) — tree
    levels, occupancy words, and the free list held as contiguous
    arrays, batch operations executed as whole-array ops.  Served
    order, addresses, and structural snapshots are gate-identical;
    cycle counters and per-structure access counters are *reported
    per-engine* (modeled, not asserted equal to gate) — see
    DESIGN.md §15 for the contract split.

:class:`DataPlaneEngine` is the formal protocol every engine
implements; :func:`make_circuit` / :func:`circuit_from_state` are the
only constructors the systems layers (``net/``, ``fabric/``, bench,
serve) should use, keyed by the ``mode`` string, and
:func:`read_legacy_keys` is the one reader of the snapshot keys older
releases wrote.  numpy is a graceful
optional dependency: requesting ``--mode vector`` without numpy raises
one clear :class:`~repro.hwsim.errors.ConfigurationError` (never a
bare ``ImportError``), via :func:`require_numpy`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - typing_extensions never needed on 3.9+
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from ..hwsim.errors import ConfigurationError
from .sort_retrieve import (
    FusedSortRetrieveCircuit,
    ServedTag,
    TagSortRetrieveCircuit,
)
from .words import PAPER_FORMAT, WordFormat

#: Engine modes accepted everywhere a ``--mode`` / ``mode=`` knob exists.
VALID_MODES: Tuple[str, ...] = ("gate", "turbo", "vector")

_UNSET = object()
_NUMPY: Any = _UNSET


def numpy_or_none():
    """The numpy module when importable, else None (cached)."""
    global _NUMPY
    if _NUMPY is _UNSET:
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _NUMPY = numpy
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            _NUMPY = None
    return _NUMPY


def require_numpy(feature: str):
    """Return numpy or raise one clear :class:`ConfigurationError`.

    Every vectorized entry point (``--mode vector``, bulk traffic
    synthesis) funnels through here so a missing numpy surfaces as a
    configuration problem with a remedy, not an ImportError from deep
    inside an array kernel.
    """
    np = numpy_or_none()
    if np is None:
        raise ConfigurationError(
            f"{feature} requires numpy, which is not installed; install "
            "numpy or choose a scalar engine (--mode gate / --mode turbo)"
        )
    return np


def resolve_mode(mode: Optional[str] = None) -> str:
    """Validate an engine mode string; ``None`` means ``"gate"``."""
    if mode is None:
        return "gate"
    if mode not in VALID_MODES:
        raise ConfigurationError(
            f"unknown engine mode {mode!r} (expected one of {VALID_MODES})"
        )
    return mode


@runtime_checkable
class DataPlaneEngine(Protocol):
    """The contract every sort/retrieve engine implements.

    Shared, engine-independent guarantees (the differential-parity
    suite pins these pairwise across all engines):

    * **Served order** — identical :class:`ServedTag` streams (tag,
      payload, address) for identical operation streams, per-op or
      batched.
    * **Addresses** — the init-counter + LIFO free-list allocation
      discipline of Fig. 10, so handles are portable across engines.
    * **Snapshots** — ``to_state()`` produces the gate-shaped circuit
      snapshot; any engine restores any engine's snapshot and
      continues the exact service order.

    Per-engine (reported, not asserted identical): ``cycles`` and the
    per-structure access counters in ``registry`` — gate/turbo count
    gate-accurate memory traffic, vector reports a modeled cost that
    stays within the invariant monitors' architectural budgets.

    Every engine inherits
    :class:`~repro.core.sort_retrieve.CircuitSurface`, which writes
    ``describe``, ``run_mixed``, ``attach_tracer`` / ``detach_tracer``
    (with the traced wrappers and their fault hooks) and ``from_state``
    once over the observers below; an engine implements the rest.
    """

    fmt: WordFormat
    modular: bool
    eager_marker_removal: bool
    cycles: int
    operations: int

    # -- observers ----------------------------------------------------
    @property
    def count(self) -> int: ...

    @property
    def is_empty(self) -> bool: ...

    @property
    def free_list_depth(self) -> int: ...

    def peek_min(self) -> Optional[int]: ...

    def peek_head(self) -> Optional[ServedTag]: ...

    def peek_tags(self, count: int) -> List[int]: ...

    def describe(self) -> dict: ...

    # -- the paper's operations ----------------------------------------
    def insert(self, tag: int, payload: Any = None) -> int: ...

    def dequeue_min(self) -> ServedTag: ...

    def insert_and_dequeue(
        self, tag: int, payload: Any = None
    ) -> Tuple[ServedTag, int]: ...

    def insert_batch(
        self,
        tags: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]: ...

    def dequeue_batch(self, count: int) -> List[ServedTag]: ...

    def run_mixed(self, operations) -> List[ServedTag]: ...

    # -- dynamic updates ------------------------------------------------
    def remove(self, handle: int) -> ServedTag: ...

    def retag(self, handle: int, new_tag: int) -> int: ...

    def is_live_handle(self, handle: int) -> bool: ...

    def handle_tag(self, handle: int) -> Optional[int]: ...

    def handle_payload(self, handle: int) -> Any: ...

    # -- maintenance / checkpoint ----------------------------------------
    def flush_stale_markers(self) -> None: ...

    def clear_stale_section(self, root_literal: int) -> int: ...

    def to_state(self) -> dict: ...

    def load_state(self, state: dict) -> None: ...

    def check_invariants(self) -> None: ...

    def attach_tracer(self, tracer) -> None: ...

    def detach_tracer(self) -> None: ...


#: Snapshot keys older releases wrote and no loader reads any more: the
#: engine bool (now ``mode``), the switch of the ``_live_tags``
#: verification shadow, and the shadow's tag multiset (the handle
#: registry covers it).
LEGACY_SNAPSHOT_KEYS = frozenset(("turbo", "fast_mode", "live_tags"))


def read_legacy_keys(
    block: dict, *, default_mode: str = "gate"
) -> Tuple[str, dict]:
    """Read a snapshot block that any release may have written.

    Returns ``(mode, current)``: the engine the block names, and the
    block without :data:`LEGACY_SNAPSHOT_KEYS`.  The engine is the
    block's ``mode`` field; blocks written before engines had names
    carry only the ``turbo`` bool, and blocks with neither name
    ``default_mode``.  Each snapshot kind keeps its historical default:
    gate for circuit, store and fabric snapshots, turbo for a serve
    config (the server's default engine).
    """
    if block.get("mode"):
        mode = block["mode"]
    elif "turbo" in block:
        mode = "turbo" if block["turbo"] else "gate"
    else:
        mode = default_mode
    current = {
        key: value
        for key, value in block.items()
        if key not in LEGACY_SNAPSHOT_KEYS
    }
    return mode, current


#: the scalar engines: one circuit class per structure flavour
SCALAR_ENGINES = {
    "gate": TagSortRetrieveCircuit,
    "turbo": FusedSortRetrieveCircuit,
}


def make_circuit(
    fmt: WordFormat = PAPER_FORMAT,
    *,
    mode: Optional[str] = None,
    capacity: int = 4096,
    eager_marker_removal: bool = False,
    modular: bool = False,
    tracer=None,
    matcher_factory=None,
) -> DataPlaneEngine:
    """Construct the engine selected by ``mode``."""
    mode = resolve_mode(mode)
    if mode == "vector":
        from .vector import VectorSortRetrieveCircuit  # noqa: PLC0415

        return VectorSortRetrieveCircuit(
            fmt,
            capacity=capacity,
            eager_marker_removal=eager_marker_removal,
            modular=modular,
            tracer=tracer,
        )
    kwargs: Dict[str, Any] = {}
    if matcher_factory is not None:
        kwargs["matcher_factory"] = matcher_factory
    return SCALAR_ENGINES[mode](
        fmt,
        capacity=capacity,
        eager_marker_removal=eager_marker_removal,
        modular=modular,
        tracer=tracer,
        **kwargs,
    )


def circuit_from_state(
    state: dict,
    *,
    mode: Optional[str] = None,
    tracer=None,
) -> DataPlaneEngine:
    """Reconstruct a circuit snapshot under the engine ``mode`` names.

    Snapshots are engine-neutral (the gate shape is the interchange
    format), so the hosting process picks the engine at restore time.
    When ``mode`` is omitted, :func:`read_legacy_keys` reads the
    snapshot's legacy ``turbo`` flag (gate when absent).
    """
    if mode is None:
        mode, _ = read_legacy_keys(state.get("config", {}))
    mode = resolve_mode(mode)
    if mode == "vector":
        from .vector import VectorSortRetrieveCircuit  # noqa: PLC0415

        return VectorSortRetrieveCircuit.from_state(state, tracer=tracer)
    return SCALAR_ENGINES[mode].from_state(state, tracer=tracer)

