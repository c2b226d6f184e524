"""The fixed-shape writers and the scanner-first decode, pinned to json.

``encode`` writes the enqueue and drain answers from templates and
``decode_line`` scans a line before ``json.loads`` sees it.  These
properties hold both to the general codec: the same bytes out of
``encode`` as the sorted-key reference encoder, and the same message or
the same error message out of ``decode_line`` as ``json.loads``.  Each
well-shaped answer is also encoded with the reference switched off, so
a template that quietly fell back would fail here.
"""

import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolDecodeError,
    decode_line,
    encode,
    join_records,
)


def reference(message):
    """The general encoder: compact, sorted keys, one line."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def _refuse(message):
    raise AssertionError(f"reference encoder reached for {message!r}")


def fixed_shape(message):
    """``encode(message)`` with the reference encoder switched off."""
    with mock.patch.object(protocol, "to_json", _refuse):
        return encode(message)


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

#: an ``id`` a template writes: an int, or a str (escapes, quotes,
#: control and non-ASCII characters included)
template_ids = st.integers(min_value=-(2 ** 70), max_value=2 ** 70) | st.text(
    alphabet=st.sampled_from('ab"\\/\n\t\x00\x1fé日\U0001f600 '),
    max_size=8,
)
#: finite float tags across the exponents where ``repr`` switches
#: notation, and int tags as a reschedule can leave them
template_tags = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.builds(
        lambda mantissa, exponent: mantissa * 10.0 ** exponent,
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=-9, max_value=18),
    )
    | st.integers(min_value=0, max_value=2 ** 70)
)
handles = st.integers(min_value=0, max_value=2 ** 40)

records = st.fixed_dictionaries(
    {
        "seq": st.integers(min_value=0, max_value=2 ** 40),
        "flow": st.integers(min_value=0, max_value=2 ** 20),
        "tag": template_tags,
        "size": st.integers(min_value=1, max_value=65535),
    }
)
#: records a template must not write: a key missing or extra, or a value
#: that is not an exact int or finite float
off_records = st.one_of(
    records.map(lambda record: {**record, "note": 1}),
    records.map(lambda record: {k: v for k, v in record.items() if k != "seq"}),
    st.builds(
        lambda record, key, value: {**record, key: value},
        records,
        st.sampled_from(["seq", "flow", "tag", "size"]),
        st.sampled_from(
            [True, False, None, "1", float("nan"), float("inf"),
             -float("inf"), 10 ** 400, [1], 1.5]
        ),
    ),
    json_values,
)


def with_id(message, ident, present):
    if present:
        message["id"] = ident
    return message


@settings(max_examples=400, deadline=None)
@given(
    handle=handles,
    tag=template_tags,
    ecn=st.booleans(),
    ident=template_ids,
    present=st.booleans(),
)
@example(handle=0, tag=1e-07, ecn=False, ident=0, present=False)
@example(handle=0, tag=1e16, ecn=True, ident='"q"\n', present=True)
@example(handle=0, tag=12, ecn=True, ident="ü", present=True)
def test_enqueue_template_matches_the_reference(handle, tag, ecn, ident, present):
    message = with_id(
        {"ok": True, "handle": handle, "tag": tag, "ecn": ecn}, ident, present
    )
    assert fixed_shape(message) == reference(message)


@settings(max_examples=300, deadline=None)
@given(
    handle=handles | json_values,
    tag=template_tags | json_values,
    ecn=st.booleans() | json_values,
    ident=json_values,
    present=st.booleans(),
    ok=st.sampled_from([True, False, 1, None]),
)
def test_enqueue_shaped_answers_of_any_values_match(
    handle, tag, ecn, ident, present, ok
):
    message = with_id(
        {"ok": ok, "handle": handle, "tag": tag, "ecn": ecn}, ident, present
    )
    assert encode(message) == reference(message)


@settings(max_examples=200, deadline=None)
@given(
    served=st.lists(records, max_size=20),
    backlog=st.integers(min_value=0, max_value=2 ** 40),
    ident=template_ids,
    present=st.booleans(),
)
@example(served=[], backlog=0, ident=0, present=False)
def test_drain_template_matches_the_reference(served, backlog, ident, present):
    message = with_id(
        {"ok": True, "served": served, "backlog": backlog}, ident, present
    )
    assert fixed_shape(message) == reference(message)


#: one record per way a template must refuse it
OFF_RECORD_EXAMPLES = [
    {"flow": 1, "seq": 2, "size": 3, "tag": value}
    for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400, True)
] + [
    {"flow": 1, "seq": 2, "size": 3},
    {"flow": 1, "seq": 2, "size": 3, "tag": 4, "x": 5},
]


@settings(max_examples=300, deadline=None)
@given(
    served=st.lists(records | off_records, max_size=6) | json_values,
    backlog=st.integers(min_value=0, max_value=99) | json_values,
    ident=json_values,
    present=st.booleans(),
)
@example(served=OFF_RECORD_EXAMPLES[:1], backlog=0, ident=None, present=False)
@example(served=OFF_RECORD_EXAMPLES[1:2], backlog=0, ident=None, present=False)
@example(served=OFF_RECORD_EXAMPLES[3:4], backlog=0, ident=None, present=False)
@example(served=OFF_RECORD_EXAMPLES[4:5], backlog=0, ident=None, present=False)
@example(served=[], backlog=True, ident=None, present=False)
def test_drain_shaped_answers_of_any_values_match(
    served, backlog, ident, present
):
    message = with_id(
        {"ok": True, "served": served, "backlog": backlog}, ident, present
    )
    assert encode(message) == reference(message)


@settings(max_examples=200, deadline=None)
@given(
    served=st.lists(records | off_records, max_size=6),
    separator=st.sampled_from([",", "\n"]),
)
@example(served=OFF_RECORD_EXAMPLES, separator="\n")
def test_serve_log_records_match_the_reference(served, separator):
    expected = separator.join(
        json.dumps(record, separators=(",", ":"), sort_keys=True)
        for record in served
    )
    assert join_records(served, separator) == expected


@settings(max_examples=300, deadline=None)
@given(message=st.dictionaries(st.text(max_size=8), json_values, max_size=5))
def test_any_other_message_matches_the_reference(message):
    assert encode(message) == reference(message)


# ----------------------------------------------------------------------
# decode


def reference_decode(line):
    """What ``json.loads`` makes of a wire line: a message or a reason."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return "error", f"malformed JSON line: {exc}"
    if not isinstance(message, dict):
        return "error", f"expected a JSON object, got {type(message).__name__}"
    return "ok", repr(message)  # repr: NaN equals itself, -0.0 differs


def decoded(line):
    try:
        return "ok", repr(decode_line(line))
    except ProtocolDecodeError as exc:
        return "error", str(exc)


json_lines = st.builds(
    lambda prefix, value, suffix: (prefix + json.dumps(value) + suffix).encode(
        "utf-8"
    ),
    st.sampled_from(["", " ", "\t", "\n", "\ufeff", "x"]),
    json_values | st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    st.sampled_from(["", " ", "\r\n", "}", "]", " 1", "{}", "\x00"]),
)


@settings(max_examples=500, deadline=None)
@given(line=json_lines | st.binary(max_size=48))
@example(line=b'{"op":"enqueue","flow":1,"size":64}')
@example(line=b'{"a":1} {"b":2}')
@example(line=b'{"a":1}\xff')
@example(line=b'{"a":' + b"9" * 5_000 + b"}")
@example(line=b"[" * 60_000)
def test_decode_line_agrees_with_json_loads(line):
    assert decoded(line) == reference_decode(line)
