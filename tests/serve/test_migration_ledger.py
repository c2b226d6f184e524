"""Wire handles across a fabric backlog migration.

A rebalance re-pins a hot flow to a quieter shard and moves part of its
backlog there, which changes the moved entries' fabric handles.  The
engine's ledger maps each wire token to its current fabric handle and
follows the migration's ``{old: new}`` map, so a client's token keeps
naming its packet: it cancels and reschedules as before, a drain serves
what was enqueued minus what was cancelled, and a snapshot taken after
the move restores to the same remaining order.
"""

from repro.serve import lifecycle
from repro.serve.server import ServeConfig, ServeEngine

FLOWS = 4
HOT_ENQUEUES = 1_400


def opened_engine():
    engine = ServeEngine(ServeConfig())
    for flow in range(FLOWS):
        answer = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": flow, "rate_bps": 5e9}
        )
        assert answer["ok"], answer
    return engine


def migrated_engine():
    """An engine whose hot flow lost part of its backlog to a migration.

    Returns the engine, every issued token's tag, and the tokens whose
    entries moved (read off the ledger when the migration reported).
    """
    engine = opened_engine()
    moved = set()

    def record(relocations):
        # The engine's own listener ran first (it registered at
        # construction), so the ledger already holds the new handles.
        landed = set(relocations.values())
        moved.update(
            token
            for token, handle in engine.token_handles.items()
            if handle in landed
        )

    engine.system.store.add_relocation_listener(record)
    tags = {}
    for _ in range(HOT_ENQUEUES):
        answer = engine.handle_request(
            {"op": "enqueue", "flow": 0, "size": 64}
        )
        assert answer["ok"], answer
        tags[answer["handle"]] = answer["tag"]
    return engine, tags, moved


def test_tokens_follow_a_migration_through_cancel_reschedule_restore(
    tmp_path,
):
    engine, tags, moved = migrated_engine()
    fabric = engine.system.store
    assert fabric.manager.rebalance_count == 1
    assert fabric.manager.entries_migrated == 256
    assert len(moved) == 256
    moved = sorted(moved)
    last_tag = max(tags.values())

    def cancel(target, token):
        answer = target.handle_request({"op": "cancel", "handle": token})
        assert answer["ok"], answer
        assert answer["tag"] == tags[token]
        assert answer["flow"] == 0

    def reschedule(target, token, tag):
        answer = target.handle_request(
            {"op": "reschedule", "handle": token, "tag": tag}
        )
        assert answer["ok"], answer
        assert answer["handle"] == token

    cancelled = set()
    retagged = {}
    # Before the snapshot: moved entries and unmoved ones alike.
    stay = [token for token in sorted(tags) if token not in set(moved)]
    for index, token in enumerate(moved[:120]):
        if index % 2:
            cancel(engine, token)
            cancelled.add(token)
        else:
            retagged[token] = last_tag + 1_000.0 * (index + 1)
            reschedule(engine, token, retagged[token])
    for token in stay[:20]:
        cancel(engine, token)
        cancelled.add(token)

    path = str(tmp_path / "snap.json")
    lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
    restored = ServeEngine(ServeConfig())
    restored.restore(lifecycle.read_snapshot(path))

    # After it: the same operations on both, through restored tokens.
    for index, token in enumerate(moved[120:]):
        if index % 3 == 0:
            for target in (engine, restored):
                cancel(target, token)
            cancelled.add(token)
        elif index % 3 == 1:
            retagged[token] = last_tag + 500.0 * (index + 1)
            for target in (engine, restored):
                reschedule(target, token, retagged[token])

    served = [
        target.handle_request({"op": "drain", "count": 2 * HOT_ENQUEUES})
        for target in (engine, restored)
    ]
    assert served[0] == served[1]
    assert served[0]["backlog"] == 0
    records = served[0]["served"]
    expected = sorted(
        retagged.get(token, tag)
        for token, tag in tags.items()
        if token not in cancelled
    )
    assert sorted(record["tag"] for record in records) == expected
    assert len(records) == HOT_ENQUEUES - len(cancelled)
    # Every token is spent: served or cancelled.
    assert engine.token_handles == {} and restored.token_handles == {}
