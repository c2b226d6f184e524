"""The service plane's wire protocol: line-delimited JSON.

One request object per line, one response object per line, UTF-8.  Every
request carries an ``op`` naming the verb; every response carries
``ok`` (bool) and, on failure, a human-readable ``reason``.  Clients may
attach an ``id`` to any request and the response echoes it verbatim —
the standard correlation trick for pipelined requests on one connection.

The verb schemas live here, next to the codec, so the server's dispatch
and the tests validate against a single source of truth.  Floats ride
through ``repr``-exact JSON (the same property the checkpoint layer
leans on), so a tag echoed by the server re-submits bit-identically in a
``reschedule``.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

#: protocol revision, reported by ``hello`` and stamped into snapshots
PROTOCOL_VERSION = 1


class ProtocolDecodeError(ValueError):
    """A wire line that is not a valid request/response object."""


# ----------------------------------------------------------------------
# codec

#: compact, key-sorted JSON text — the wire and serve-log format.  One
#: shared encoder: ``json.dumps`` with keyword arguments builds a new
#: ``JSONEncoder`` on every call.  It is also the reference the
#: fixed-shape writers below are pinned to, byte for byte.
to_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: the JSON scanner without ``json.loads``'s Python wrapper around it
_scan = json.JSONDecoder().raw_decode

# The two answers a busy server sends most, as fixed templates in
# sorted-key order.  ``%s`` of an int or a float is its ``repr``, which is
# what the reference encoder writes for an exact int and a finite float;
# the optional ``"id":…,`` field sorts between ``handle``/``backlog`` and
# ``ok``.
_ENQUEUE_LINE = '{"ecn":%s,"handle":%s,%s"ok":true,"tag":%s}\n'
_DRAIN_LINE = '{"backlog":%s,%s"ok":true,"served":[%s]}\n'
_ENQUEUE_KEYS = frozenset(("ok", "handle", "tag", "ecn"))
_ENQUEUE_ID_KEYS = _ENQUEUE_KEYS | {"id"}
_DRAIN_KEYS = frozenset(("ok", "served", "backlog"))
_DRAIN_ID_KEYS = _DRAIN_KEYS | {"id"}
#: one drain record (and one serve-log line): ``flow, seq, size, tag``
_RECORD = '{"flow":%s,"seq":%s,"size":%s,"tag":%s}'
_record_fields = itemgetter("flow", "seq", "size", "tag")
_NUMBER_TYPES = {int, float}


def encode(message: Dict[str, Any]) -> bytes:
    """One message → one wire line (compact JSON + newline).

    An enqueue answer and a drain answer are written from fixed
    templates; every other message, and any such answer whose values a
    template cannot write exactly (an ``id`` that is not an int or a
    str, a non-finite or non-number tag, …), goes through
    :data:`to_json`.  The bytes are the same either way.
    """
    if type(message) is dict and message.get("ok") is True:
        keys = message.keys()
        if keys == _ENQUEUE_KEYS or keys == _ENQUEUE_ID_KEYS:
            handle = message["handle"]
            tag = message["tag"]
            ecn = message["ecn"]
            ident = _id_field(message["id"]) if "id" in keys else ""
            if (
                type(handle) is int
                and (ecn is True or ecn is False)
                and (
                    type(tag) is int
                    or (type(tag) is float and math.isfinite(tag))
                )
                and ident is not None
            ):
                return (
                    _ENQUEUE_LINE
                    % ("true" if ecn else "false", handle, ident, tag)
                ).encode()
        elif keys == _DRAIN_KEYS or keys == _DRAIN_ID_KEYS:
            backlog = message["backlog"]
            served = message["served"]
            ident = _id_field(message["id"]) if "id" in keys else ""
            if (
                type(backlog) is int
                and type(served) is list
                and ident is not None
            ):
                return (
                    _DRAIN_LINE % (backlog, ident, join_records(served, ","))
                ).encode()
    return (to_json(message) + "\n").encode("utf-8")


def _id_field(ident: Any) -> Optional[str]:
    """A template's ``"id":…,`` field, or None for an ``id`` that is
    not an int or a str."""
    if type(ident) is int:
        return '"id":%d,' % ident
    if type(ident) is str:
        return '"id":%s,' % _json_string(ident)
    return None


def join_records(records: List[Any], separator: str) -> str:
    """Drain records as JSON text, ``separator`` between them.

    Byte-identical to ``separator.join(map(to_json, records))``, which
    is what runs unless :func:`_record_values` takes every record; those
    are written from the record template in one ``%``.
    """
    values = _record_values(records)
    if values is None:
        return separator.join(map(to_json, records))
    return separator.join(repeat(_RECORD, len(records))) % values


def _record_values(records: List[Any]) -> Optional[Tuple[Any, ...]]:
    """Every record's ``flow, seq, size, tag`` in one flat tuple.

    None unless each record is a dict of exactly those four keys whose
    values are exact ints or finite floats.
    """
    if (
        type(records) is not list
        or not set(map(type, records)) <= {dict}
        or not set(map(len, records)) <= {4}
    ):
        return None
    try:
        values = tuple(chain.from_iterable(map(_record_fields, records)))
    except KeyError:
        return None
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        return values if all(map(math.isfinite, values)) else None
    except OverflowError:  # an int past float range: the reference writes it
        return None


def decode_line(line: bytes) -> Dict[str, Any]:
    """One wire line → one message dict.

    Raises :class:`ProtocolDecodeError` on malformed JSON or a payload
    that is not an object — the server answers those with an error
    response instead of dropping the connection.  That covers every
    way the parser gives up: bad UTF-8 and bad JSON, an integer past
    CPython's digit limit (``ValueError``) and nesting past the
    recursion limit (``RecursionError``).

    The scanner reads the line first; a line it refuses, or does not
    consume whole (surrounding whitespace included), is read again by
    ``json.loads``, so the result and every error message are exactly
    ``json.loads``'s.
    """
    try:
        text = line.decode("utf-8")
        message, end = _scan(text)
        if end != len(text):
            raise ValueError("trailing text")
    except (ValueError, RecursionError):
        try:
            message = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolDecodeError(f"malformed JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolDecodeError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# verb schemas

def _is_number(value: Any) -> bool:
    # Finite only: Python's json accepts NaN/Infinity, and 1e999 parses
    # to inf, but neither is a rate, a delay or a tag.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_flow(value: Any) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


#: verb → (required fields, optional fields); each maps name → checker
VERBS: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {
    # control plane
    "hello": ({}, {}),
    "open": (
        {
            "tenant": lambda v: isinstance(v, str) and bool(v),
            "flow": _is_flow,
            "rate_bps": _is_number,
        },
        {
            "burst_bits": _is_number,
            "max_packet_bytes": _is_int,
            "delay_target_s": _is_number,
        },
    ),
    "close": ({"flow": _is_flow}, {}),
    # data plane
    "enqueue": ({"flow": _is_flow, "size": _is_int}, {}),
    "cancel": ({"handle": _is_int}, {}),
    "reschedule": ({"handle": _is_int, "tag": _is_number}, {}),
    "drain": ({"count": _is_int}, {}),
    # operations
    "stats": ({}, {}),
    "snapshot": ({}, {}),
    "shutdown": ({}, {}),
}


def validate_request(message: Dict[str, Any]) -> Optional[str]:
    """Check one decoded request against its verb schema.

    Returns ``None`` when valid, else the rejection reason.  Unknown
    fields are rejected too — a typo'd optional field failing loudly
    beats a silently ignored one.
    """
    op = message.get("op")
    if not isinstance(op, str):
        return "request needs a string 'op' field"
    schema = VERBS.get(op)
    if schema is None:
        return f"unknown op {op!r} (valid: {', '.join(sorted(VERBS))})"
    required, optional = schema
    for name, check in required.items():
        if name not in message:
            return f"{op}: missing required field {name!r}"
        if not check(message[name]):
            return f"{op}: field {name!r} has an invalid value"
    # Only ``op``, an ``id`` and the required fields: no key is left to
    # be unknown or optional.
    if len(message) == len(required) + 1 + ("id" in message):
        return None
    for name, value in message.items():
        if name in ("op", "id"):
            continue
        if name in required:
            continue
        check = optional.get(name)
        if check is None:
            return f"{op}: unknown field {name!r}"
        if not check(value):
            return f"{op}: field {name!r} has an invalid value"
    return None


# ----------------------------------------------------------------------
# response helpers

def ok_response(request: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
    """A success response, echoing the request's ``id`` if present."""
    response: Dict[str, Any] = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    return response


def error_response(
    request: Dict[str, Any], reason: str, **fields: Any
) -> Dict[str, Any]:
    """A failure response with the rejection reason."""
    response: Dict[str, Any] = {"ok": False, "reason": reason}
    if "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    return response
