"""Snapshots: exact capture/restore and the continued-service proof."""

import json
import os

import pytest

from repro.hwsim.errors import ConfigurationError
from repro.serve import lifecycle
from repro.serve.server import ServeConfig, ServeEngine


def small_config(**overrides):
    base = dict(
        link_rate_bps=1e9,
        shards=4,
        buffer_capacity=512,
        table_capacity=512,
        min_rate_bps=1e6,
    )
    base.update(overrides)
    return ServeConfig(**base)


def loaded_engine(config=None, flows=8, enqueues=120, drains=40):
    engine = ServeEngine(config or small_config())
    for flow in range(flows):
        engine.handle_request(
            {
                "op": "open",
                "tenant": f"t{flow % 3}",
                "flow": flow,
                "rate_bps": 2e6 + flow,
            }
        )
    for index in range(enqueues):
        engine.handle_request(
            {
                "op": "enqueue",
                "flow": index % flows,
                "size": 64 + index % 1400,
            }
        )
    engine.handle_request({"op": "drain", "count": drains})
    return engine


class TestCaptureRestore:
    def test_snapshot_is_json_serializable(self):
        engine = loaded_engine()
        state = lifecycle.capture_state(engine)
        json.dumps(state)
        engine.close()

    def test_restored_engine_continues_identical_service(self):
        """The provable guarantee: snapshot → restore → identical order."""
        engine = loaded_engine()
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        fresh = ServeEngine(small_config())
        lifecycle.restore_state(fresh, state)
        # Continue BOTH engines with the same mixed tail and compare
        # every response — service order, tags, handles, stats.
        tail = []
        for index in range(60):
            tail.append(
                {"op": "enqueue", "flow": index % 8, "size": 500 + index}
            )
            if index % 7 == 0:
                tail.append({"op": "drain", "count": 5})
        tail.append({"op": "drain", "count": 10_000})
        for request in tail:
            assert engine.handle_request(request) == fresh.handle_request(
                request
            )
        assert engine.served_seq == fresh.served_seq
        assert engine.stats() == fresh.stats()
        engine.close()
        fresh.close()

    def test_restore_rejects_config_mismatch(self):
        engine = loaded_engine()
        state = lifecycle.capture_state(engine)
        other = ServeEngine(small_config(shards=2))
        with pytest.raises(ConfigurationError):
            lifecycle.restore_state(other, state)
        engine.close()
        other.close()

    def test_restore_rejects_wrong_kind(self):
        engine = ServeEngine(small_config())
        with pytest.raises(ConfigurationError):
            lifecycle.restore_state(engine, {"kind": "other"})
        engine.close()

    def test_token_ledger_survives(self):
        engine = ServeEngine(small_config())
        engine.handle_request(
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 2e6}
        )
        tokens = [
            engine.handle_request(
                {"op": "enqueue", "flow": 1, "size": 100 + i}
            )["handle"]
            for i in range(5)
        ]
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        fresh = ServeEngine(small_config())
        lifecycle.restore_state(fresh, state)
        # A pre-snapshot handle cancels post-restore.
        response = fresh.handle_request(
            {"op": "cancel", "handle": tokens[2]}
        )
        assert response["ok"]
        assert response["flow"] == 1
        engine.close()
        fresh.close()


class TestDiskFormat:
    def test_write_read_roundtrip(self, tmp_path):
        engine = loaded_engine()
        path = str(tmp_path / "snap.json")
        state = lifecycle.capture_state(engine)
        lifecycle.write_snapshot(path, state)
        assert lifecycle.read_snapshot(path) == json.loads(
            json.dumps(state)
        )
        engine.close()

    def test_write_is_atomic_replace(self, tmp_path):
        engine = loaded_engine()
        path = str(tmp_path / "snap.json")
        lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
        first = os.stat(path).st_ino
        lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
        assert os.stat(path).st_ino != first  # replaced, not rewritten
        assert not [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith(".serve-snapshot-")
        ]
        engine.close()

    def test_file_is_byte_identical_to_one_shot_dumps(self, tmp_path):
        engine = loaded_engine(flows=16, enqueues=400, drains=60)
        # A non-ASCII tenant name must come out escaped, as json.dumps does.
        assert engine.handle_request(
            {"op": "open", "tenant": "é", "flow": 99, "rate_bps": 2e6}
        )["ok"]
        path = str(tmp_path / "snap.json")
        state = lifecycle.capture_state(engine)
        lifecycle.write_snapshot(path, state)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == json.dumps(state, separators=(",", ":"))
        # Restore parity holds through the file.
        fresh = ServeEngine(small_config())
        lifecycle.restore_state(fresh, lifecycle.read_snapshot(path))
        tail = [
            {"op": "enqueue", "flow": i % 8, "size": 300} for i in range(20)
        ]
        tail.append({"op": "drain", "count": 10_000})
        for request in tail:
            assert engine.handle_request(request) == fresh.handle_request(
                request
            )
        engine.close()
        fresh.close()

    @pytest.mark.skipif(
        not hasattr(os, "O_DIRECTORY"), reason="directory fsync is POSIX-only"
    )
    def test_rename_is_made_durable(self, tmp_path, monkeypatch):
        """The parent directory is fsynced after the rename."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            is_directory = os.path.samestat(
                os.fstat(fd), os.stat(str(tmp_path))
            )
            renamed = os.path.exists(str(tmp_path / "snap.json"))
            synced.append((is_directory, renamed))
            real_fsync(fd)

        monkeypatch.setattr(lifecycle.os, "fsync", recording_fsync)
        engine = loaded_engine()
        lifecycle.write_snapshot(
            str(tmp_path / "snap.json"), lifecycle.capture_state(engine)
        )
        # File data first (before the rename), then the directory (after).
        assert synced == [(False, False), (True, True)]
        engine.close()

    def test_read_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "other"}, handle)
        with pytest.raises(ConfigurationError):
            lifecycle.read_snapshot(path)


class TestSnapshotPolicy:
    def test_zero_interval_never_due(self):
        policy = lifecycle.SnapshotPolicy(0)
        assert not any(policy.due() for _ in range(100))

    def test_fires_every_interval(self):
        policy = lifecycle.SnapshotPolicy(10)
        fired = [index for index in range(35) if policy.due()]
        assert fired == [9, 19, 29]

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            lifecycle.SnapshotPolicy(-1)


def continued_tail(engine):
    """A mixed tail of requests, answered by ``engine``."""
    answers = []
    for index in range(40):
        answers.append(
            engine.handle_request(
                {"op": "enqueue", "flow": index % 8, "size": 400 + index}
            )
        )
        if index % 9 == 0:
            answers.append(engine.handle_request({"op": "drain", "count": 4}))
    answers.append(engine.handle_request({"op": "drain", "count": 10_000}))
    return answers


def restored_engine(state):
    """Restore ``state`` the way ``repro serve --restore`` does."""
    config = small_config()
    config.adopt_scheduling_fields(state["config"])
    engine = ServeEngine(config)
    engine.restore(state)
    return engine


def without_key(value, key):
    """``value`` with every ``key`` entry dropped, at any depth."""
    if isinstance(value, dict):
        return {
            name: without_key(item, key)
            for name, item in value.items()
            if name != key
        }
    if isinstance(value, list):
        return [without_key(item, key) for item in value]
    return value


class TestLegacySnapshots:
    """Snapshots written before the one mode knob still restore."""

    @pytest.mark.parametrize("mode", ["gate", "turbo"])
    def test_parent_format_snapshot_continues_the_exact_order(self, mode):
        # Earlier formats also froze a ``turbo`` bool and a ``workers``
        # process count in the config; both are ignored on restore.
        engine = loaded_engine(small_config(mode=mode))
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        state["config"]["turbo"] = mode == "turbo"
        state["config"]["workers"] = 2
        restored = restored_engine(state)
        assert restored.config.mode == mode
        assert continued_tail(restored) == continued_tail(engine)
        engine.close()
        restored.close()

    @pytest.mark.parametrize("mode", ["gate", "turbo"])
    def test_pre_engine_snapshot_with_only_turbo(self, mode):
        engine = loaded_engine(small_config(mode=mode))
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        state = without_key(state, "mode")
        state["config"]["turbo"] = mode == "turbo"
        restored = restored_engine(state)
        assert restored.config.mode == mode
        assert all(
            store.mode == mode for store in restored.system.store.stores
        )
        assert continued_tail(restored) == continued_tail(engine)
        engine.close()
        restored.close()


class TestCrashPoints:
    """A crash at any step of ``write_snapshot`` leaves the last
    complete snapshot readable, and it continues the exact order."""

    CRASH_POINTS = [
        "mkstemp", "mid_write", "file_fsync", "replace", "dir_fsync"
    ]

    def inject(self, monkeypatch, point):
        """Make the write fail at ``point``."""

        class Crash(Exception):
            pass

        if point == "mkstemp":
            def mkstemp(*args, **kwargs):
                raise Crash(point)

            monkeypatch.setattr(lifecycle.tempfile, "mkstemp", mkstemp)
        elif point == "mid_write":
            real_write_json = lifecycle._write_json

            def write_json(write, value, path=()):
                written = []

                def failing_write(text):
                    written.append(text)
                    if len(written) > 3:
                        raise Crash(point)
                    write(text)

                real_write_json(failing_write, value, path)

            monkeypatch.setattr(lifecycle, "_write_json", write_json)
        elif point in ("file_fsync", "dir_fsync"):
            real_fsync = os.fsync
            calls = []

            def fsync(fd):
                calls.append(fd)
                failing_call = 1 if point == "file_fsync" else 2
                if len(calls) == failing_call:
                    raise Crash(point)
                real_fsync(fd)

            monkeypatch.setattr(lifecycle.os, "fsync", fsync)
        else:
            def replace(source, target):
                raise Crash(point)

            monkeypatch.setattr(lifecycle.os, "replace", replace)
        return Crash

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_last_complete_snapshot_survives(
        self, tmp_path, monkeypatch, point
    ):
        if point == "dir_fsync" and not hasattr(os, "O_DIRECTORY"):
            pytest.skip("directory fsync is POSIX-only")
        path = str(tmp_path / "snap.json")
        old_engine = loaded_engine(drains=40)
        lifecycle.write_snapshot(path, lifecycle.capture_state(old_engine))
        new_engine = loaded_engine(drains=70)
        crash = self.inject(monkeypatch, point)
        with pytest.raises(crash):
            lifecycle.write_snapshot(
                path, lifecycle.capture_state(new_engine)
            )
        monkeypatch.undo()
        # Before the rename the old snapshot stands; after it, the new.
        survivor = new_engine if point == "dir_fsync" else old_engine
        state = lifecycle.read_snapshot(path)
        assert state["served_seq"] == survivor.served_seq
        restored = restored_engine(state)
        assert continued_tail(restored) == continued_tail(survivor)
        assert not [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith(".serve-snapshot-")
        ]
        for engine in (old_engine, new_engine, restored):
            engine.close()
