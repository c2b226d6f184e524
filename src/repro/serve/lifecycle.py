"""Service lifecycle: exact snapshots, graceful shutdown, recovery.

The service plane's durability story is the checkpoint/restore layer
underneath it: every component the serve engine owns — virtual clock,
packet buffer, scheduling fabric, flow table, admission set, session
table, handle ledger — round-trips exactly through JSON (floats are
``repr``-exact, every other field is integral), so a server restored
from a snapshot continues *event-for-event identical* service: the same
packets pop in the same order with the same tags, and the serve-log
sequence numbers continue unbroken.  The CI serve-smoke job proves this
by diffing an interrupted run (SIGTERM mid-soak, restart from the
snapshot) against an uninterrupted reference.

Snapshots are written atomically (temp file + ``os.replace`` in the
same directory), so a crash mid-write leaves the previous snapshot
intact — recovery never sees a torn file — and the directory is fsynced
after the rename, so a completed snapshot survives a crash too.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict

from ..hwsim.errors import ConfigurationError
from .protocol import PROTOCOL_VERSION

SNAPSHOT_KIND = "serve_snapshot"


# ----------------------------------------------------------------------
# capture / restore

def capture_state(engine) -> Dict[str, Any]:
    """Snapshot one serve engine, exactly.

    ``engine`` is a :class:`~repro.serve.server.ServeEngine`; the
    function lives here (not on the engine) so the snapshot schema and
    its disk format stay in one module.
    """
    return {
        "kind": SNAPSHOT_KIND,
        "version": PROTOCOL_VERSION,
        "config": engine.config.to_dict(),
        "vnow": engine.vnow,
        "served_seq": engine.served_seq,
        "counters": dict(engine.counters),
        "tokens": {
            "next": engine.next_token,
            "handles": sorted(engine.token_handles.items()),
            "packets": sorted(engine.packet_tokens.items()),
        },
        "system": engine.system.to_state(),
        "admission": engine.admission.to_state(),
        "table": engine.table.to_state(),
        "sessions": engine.sessions.to_state(),
        "backpressure": engine.backpressure.to_state(),
    }


def restore_state(engine, state: Dict[str, Any]) -> None:
    """Restore a :func:`capture_state` snapshot into a fresh engine.

    The engine must have been constructed from the same
    :class:`~repro.serve.server.ServeConfig` the snapshot recorded —
    the scheduling-relevant fields are cross-checked here, and each
    component's own ``load_state`` validates its geometry.
    """
    if state.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError(
            f"not a serve snapshot: kind={state.get('kind')!r}"
        )
    recorded = state["config"]
    current = engine.config.to_dict()
    for field in (
        "link_rate_bps",
        "shards",
        "buffer_capacity",
        "min_rate_bps",
        "table_capacity",
        "scheme",
    ):
        if recorded[field] != current[field]:
            raise ConfigurationError(
                f"snapshot config mismatch: {field} was "
                f"{recorded[field]!r}, server has {current[field]!r}"
            )
    engine.system.load_state(state["system"])
    engine.admission.load_state(state["admission"])
    engine.table.load_state(state["table"])
    engine.sessions.load_state(state["sessions"])
    engine.backpressure.load_state(state["backpressure"])
    engine.vnow = state["vnow"]
    engine.served_seq = int(state["served_seq"])
    engine.counters.update(state["counters"])
    tokens = state["tokens"]
    engine.next_token = int(tokens["next"])
    engine.token_handles = {
        int(token): int(handle) for token, handle in tokens["handles"]
    }
    engine.packet_tokens = {
        int(packet_id): int(token)
        for packet_id, token in tokens["packets"]
    }


# ----------------------------------------------------------------------
# disk format

_SEPARATORS = (",", ":")

#: Key paths of the containers written member by member: the snapshot
#: itself, the scheduler system, its fabric, and the fabric's shard list.
#: Everything below them is one C-speed ``json.dumps`` call, so no single
#: call has to hold the encoding of the whole state at once.
_SPLIT_PATHS = frozenset(
    [(), ("system",), ("system", "store"), ("system", "store", "stores")]
)


def _write_json(write, value: Any, path: tuple = ()) -> None:
    """Write ``value`` byte-identically to one ``json.dumps`` call.

    ``json.dump`` would take the pure-Python encoder; one ``json.dumps``
    of the whole state would hold its full encoding (several times the
    file size) at once.  Splitting at :data:`_SPLIT_PATHS` keeps the C
    encoder and bounds the peak to the largest single component.
    """
    split = path in _SPLIT_PATHS
    if split and isinstance(value, dict):
        write("{")
        for index, (key, item) in enumerate(value.items()):
            if index:
                write(",")
            write(json.dumps(key))
            write(":")
            _write_json(write, item, path + (key,))
        write("}")
    elif split and isinstance(value, list):
        write("[")
        for index, item in enumerate(value):
            if index:
                write(",")
            _write_json(write, item, path + (index,))
        write("]")
    else:
        write(json.dumps(value, separators=_SEPARATORS))


def write_snapshot(path: str, state: Dict[str, Any]) -> None:
    """Atomically and durably persist one snapshot.

    The state goes to a temp file that is fsynced and renamed over
    ``path``; the directory is then fsynced so the rename itself
    survives a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=".serve-snapshot-", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            _write_json(handle.write, state)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if hasattr(os, "O_DIRECTORY"):  # POSIX: directories can be fsynced
        directory_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)


def read_snapshot(path: str) -> Dict[str, Any]:
    """Load and sanity-check one snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    if not isinstance(state, dict) or state.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError(f"{path} is not a serve snapshot")
    return state


class SnapshotPolicy:
    """When to write periodic live snapshots: every N operations.

    The server calls :meth:`due` after every mutating verb; crossing
    the interval arms one snapshot.  ``interval_ops=0`` disables the
    periodic cadence (shutdown still snapshots).
    """

    def __init__(self, interval_ops: int = 0) -> None:
        if interval_ops < 0:
            raise ConfigurationError("snapshot interval must be >= 0")
        self.interval_ops = interval_ops
        self._since_last = 0
        self.taken = 0

    def due(self) -> bool:
        if self.interval_ops == 0:
            return False
        self._since_last += 1
        if self._since_last >= self.interval_ops:
            self._since_last = 0
            return True
        return False

    def mark_taken(self) -> None:
        self.taken += 1
