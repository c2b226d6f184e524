"""Hostile numbers and deep JSON: answered with an error, never a drop.

Python's ``json`` accepts ``NaN``/``Infinity`` tokens, ``1e999`` parses
to ``inf``, and the parser itself gives up on over-long integers and
over-deep nesting with exceptions that are not ``JSONDecodeError``.
Every such request must get one error response, leave the engine's
state as it was, and keep the connection serving.
"""

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import VERBS, ProtocolDecodeError, decode_line
from repro.serve.server import ServeConfig, ServeEngine, WfqServer


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


def opened_engine(flows=4):
    engine = ServeEngine(small_config())
    for flow in range(flows):
        response = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": flow, "rate_bps": 2e6}
        )
        assert response["ok"], response
    return engine


def call(engine, line):
    """The server's per-line path: decode, handle, answer."""
    try:
        request = decode_line(line)
    except ProtocolDecodeError as exc:
        return {"ok": False, "reason": str(exc)}
    return engine.handle_request(request)


#: one wire line per reproduced case
DEEP_LINE = b"[" * 60_000
HUGE_INT_LINE = b'{"op":"drain","count":' + b"9" * 5_000 + b"}"


class TestHostileNumbers:
    def test_non_finite_reschedule_tag_keeps_the_packet_cancellable(self):
        engine = opened_engine()
        token = engine.handle_request(
            {"op": "enqueue", "flow": 0, "size": 100}
        )["handle"]
        for token_text in (b"NaN", b"Infinity", b"-Infinity", b"1e999"):
            line = (
                b'{"op":"reschedule","handle":%d,"tag":%s}'
                % (token, token_text)
            )
            response = call(engine, line)
            assert response["ok"] is False
            assert "tag" in response["reason"]
        cancelled = engine.handle_request({"op": "cancel", "handle": token})
        assert cancelled["ok"], cancelled
        assert len(engine.system.store) == 0
        engine.close()

    def test_nan_rate_open_leaves_admission_untouched(self):
        engine = ServeEngine(small_config())
        line = b'{"op":"open","tenant":"t","flow":3,"rate_bps":NaN}'
        assert call(engine, line)["ok"] is False
        assert engine.admission.admitted_count == 0
        assert engine.sessions.count == 0
        reopened = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": 3, "rate_bps": 2e6}
        )
        assert reopened["ok"] and reopened["admitted"], reopened
        engine.close()

    def test_negative_flow_rejected_without_leaking_a_buffer_slot(self):
        engine = ServeEngine(small_config())
        opened = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": -7, "rate_bps": 2e6}
        )
        assert opened["ok"] is False
        enqueued = engine.handle_request(
            {"op": "enqueue", "flow": -7, "size": 100}
        )
        assert enqueued["ok"] is False
        assert engine.system.buffer.occupancy == 0
        closed = engine.handle_request({"op": "close", "flow": -7})
        assert closed["ok"] is False
        engine.close()

    def test_parser_give_ups_are_decode_errors(self):
        for line in (DEEP_LINE, HUGE_INT_LINE):
            with pytest.raises(ProtocolDecodeError, match="malformed"):
                decode_line(line)


class TestOverTcp:
    def test_every_case_is_answered_and_the_connection_keeps_serving(self):
        engine = opened_engine()
        server = WfqServer(engine)
        done = threading.Event()
        threading.Thread(
            target=lambda: (asyncio.run(server.serve()), done.set()),
            daemon=True,
        ).start()
        deadline = time.monotonic() + 10
        while server.port is None and time.monotonic() < deadline:
            time.sleep(0.01)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"op":"enqueue","flow":0,"size":100}\n')
            token = json.loads(reader.readline())["handle"]
            self.exchange(sock, reader, token)
        assert done.wait(10)

    def exchange(self, sock, reader, token):
        hostile = [
            b'{"op":"reschedule","handle":%d,"tag":NaN}' % token,
            b'{"op":"reschedule","handle":%d,"tag":Infinity}' % token,
            b'{"op":"reschedule","handle":%d,"tag":-Infinity}' % token,
            b'{"op":"open","tenant":"t","flow":9,"rate_bps":NaN}',
            b'{"op":"open","tenant":"t","flow":-7,"rate_bps":2e6}',
            b'{"op":"enqueue","flow":-7,"size":100}',
            DEEP_LINE,
            HUGE_INT_LINE,
            # invalid UTF-8 in mid-line: a stray byte, a cut-off sequence
            b'{"op":"st\xffats"}',
            b'{"op":"stats","id":"\xc3"}',
            # NUL before and after the object, and a UTF-8 BOM
            b'\x00{"op":"stats"}',
            b'{"op":"stats"}\x00',
            b'\xef\xbb\xbf{"op":"stats"}',
        ]
        for line in hostile:
            sock.sendall(line + b"\n")
            response = json.loads(reader.readline())
            assert response["ok"] is False, (line[:40], response)
        # One request written in four pieces gets exactly one answer.
        for piece in (b'{"op":"he', b'llo"', b',"id":', b'7}\n'):
            sock.sendall(piece)
            time.sleep(0.05)
        answer = json.loads(reader.readline())
        assert answer["ok"] and answer["id"] == 7, answer
        sock.sendall(b'{"op":"hello","id":8}\n')
        assert json.loads(reader.readline())["id"] == 8
        sock.sendall(b'{"op":"cancel","handle":%d}\n' % token)
        assert json.loads(reader.readline())["ok"]
        sock.sendall(b'{"op":"open","tenant":"t","flow":9,"rate_bps":2e6}\n')
        assert json.loads(reader.readline())["admitted"]
        sock.sendall(b'{"op":"stats"}\n')
        stats = json.loads(reader.readline())["stats"]
        assert stats["buffer"]["occupancy"] == 0
        sock.sendall(b'{"op":"shutdown"}\n')
        reader.readline()


# ----------------------------------------------------------------------
# fuzzing

#: JSON values, hostile numbers included (what ``json.loads`` can yield)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

#: small ints hit live flows and handles, the rest probes the edges
field_values = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from(
        [
            float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e308,
            -1e308, 5e-324, 2 ** 63, 10 ** 30,
        ]
    ),
    json_values,
)


@st.composite
def requests(draw):
    op = draw(st.sampled_from(sorted(VERBS) + ["nonesuch"]))
    required, optional = VERBS.get(op, ({}, {}))
    request = {"op": op}
    for name in list(required) + list(optional):
        if draw(st.integers(0, 9)) < (9 if name in required else 4):
            request[name] = draw(field_values)
    if draw(st.booleans()):
        request["id"] = draw(json_values)
    return request


@settings(max_examples=300, deadline=None)
@given(line=st.binary(max_size=64))
def test_decode_line_returns_a_dict_or_a_decode_error(line):
    try:
        message = decode_line(line)
    except ProtocolDecodeError:
        return
    assert isinstance(message, dict)


@settings(max_examples=200, deadline=None)
@given(line=st.lists(st.sampled_from([b"[", b"{", b'"a":', b"1", b","])).map(
    lambda parts: b"".join(parts) * 500
))
def test_decode_line_survives_deep_and_long_json(line):
    try:
        decode_line(line)
    except ProtocolDecodeError:
        pass


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=st.lists(requests(), min_size=1, max_size=8))
def test_handle_request_always_answers(batch):
    """Request sequences, so later requests meet whatever state the
    earlier hostile ones left behind."""
    engine = opened_engine(flows=6)
    for index in range(12):
        engine.handle_request(
            {"op": "enqueue", "flow": index % 6, "size": 100 + index}
        )
    try:
        for request in batch:
            if request.get("op") in ("snapshot", "shutdown"):
                request = {"op": "stats"}
            response = engine.handle_request(request)
            assert isinstance(response["ok"], bool)
            json.dumps(response)
            assert engine.system.buffer.occupancy == len(engine.system.store)
    finally:
        engine.close()
