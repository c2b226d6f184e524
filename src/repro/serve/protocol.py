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
from typing import Any, Dict, Optional, Tuple

#: protocol revision, reported by ``hello`` and stamped into snapshots
PROTOCOL_VERSION = 1


class ProtocolDecodeError(ValueError):
    """A wire line that is not a valid request/response object."""


# ----------------------------------------------------------------------
# codec

#: compact, key-sorted JSON text — the wire and serve-log format.  One
#: shared encoder: ``json.dumps`` with keyword arguments builds a new
#: ``JSONEncoder`` on every call.
to_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def encode(message: Dict[str, Any]) -> bytes:
    """One message → one wire line (compact JSON + newline)."""
    return (to_json(message) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """One wire line → one message dict.

    Raises :class:`ProtocolDecodeError` on malformed JSON or a payload
    that is not an object — the server answers those with an error
    response instead of dropping the connection.  That covers every
    way the parser gives up: bad UTF-8 and bad JSON, an integer past
    CPython's digit limit (``ValueError``) and nesting past the
    recursion limit (``RecursionError``).
    """
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
