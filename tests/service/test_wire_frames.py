"""Malformed and edge-case request frames, one table, raw bytes.

:class:`ServiceClient` only writes well-formed JSON, so each row here is
a literal request line written to its own socket (the truncated row ends
the stream mid-line instead of with a newline). Every row is answered
exactly as the ``json`` decode of the same line would answer it: with
the same 400 message, or with the same keys array and dtype. Arrays
travel with a one-bucket splitter spec, whose stable multisplit leaves
the keys in input order, so the response's ``keys`` are the decoded
array. After the table the server must still answer ``ping``.

The rows also pin the integer codec's edge cases: literals ``json``
rejects (``007``, ``+5``) or reads as floats (``1e3``), ``-0``, a
20-digit literal on both sides of the uint64 range, blanks around
commas, a ``"keys":[`` inside a string value, a duplicated or nested
``"keys"`` member, and member names spelled with escapes.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.service import ReproService, ServiceConfig, ServiceServer
from repro.service.errors import BadRequestError
from repro.service.protocol import (_parse_json, array_from_json, check_op,
                                    parse_request_line)


def split1(dtype):
    return '{"kind":"splitter","splitters":[],"dtype":"%s"}' % dtype


def ms_line(keys: str, dtype="uint32", extra="") -> bytes:
    """A multisplit line whose ``keys`` member is the literal ``keys``."""
    return ('{"id":7,"op":"multisplit","spec":%s,"dtype":"%s"%s,"keys":%s}\n'
            % (split1(dtype), dtype, extra, keys)).encode()


DEEP = 5000
U64_MAX = str(2**64 - 1)
# (name, raw request bytes; a row without a trailing newline is cut off by
# EOF)
ROWS = [
    ("truncated-at-eof", b'{"id":7,"op":"multisplit","keys":[1,2'),
    ("invalid-utf8", b'{"id":7,"op":"ping","pad":"\xff\xfe"}\n'),
    ("non-object-top-level", b"[1,2,3]\n"),
    ("deeply-nested-array", ms_line("[" * DEEP + "]" * DEEP)),
    ("string-elements", ms_line('["1","2"]')),
    ("bool-elements", ms_line("[true,false]")),
    ("float-elements", ms_line("[1.5,2]")),
    ("nested-elements", ms_line("[[1,2],[3]]")),
    ("null-element", ms_line("[1,null]")),
    ("float-dtype-string-element", ms_line('[1.5,"2"]', "float64")),
    ("leading-zeros-int64", ms_line("[1,007]", "int64")),
    ("leading-zeros-uint64", ms_line("[007]", "uint64")),
    ("plus-sign-int64", ms_line("[+5]", "int64")),
    ("plus-sign-uint64", ms_line("[3,+5]", "uint64")),
    ("minus-zero-int64", ms_line("[-0,5]", "int64")),
    ("minus-zero-uint64", ms_line("[-0]", "uint64")),
    ("exponent-int64", ms_line("[1e3]", "int64")),
    ("exponent-uint64", ms_line("[2,1e3]", "uint64")),
    ("20-digit-int64", ms_line("[12345678901234567890]", "int64")),
    ("20-digit-uint64", ms_line("[12345678901234567890,1]", "uint64")),
    ("uint64-max", ms_line("[%s,0]" % U64_MAX, "uint64")),
    ("over-uint64-max", ms_line("[18446744073709551616]", "uint64")),
    ("int64-extremes", ms_line("[-9223372036854775808,9223372036854775807]",
                               "int64")),
    ("under-int64-min", ms_line("[-9223372036854775809]", "int64")),
    ("out-of-range-uint8", ms_line("[255,256]", "uint8")),
    ("negative-uint32", ms_line("[5,-1]")),
    ("blanks-around-commas", ms_line("[1 , 2,3 ,4]", "int64")),
    ("blank-element", ms_line("[1, ,2]", "int64")),
    ("lone-minus-element", ms_line("[1,-,2]", "int64")),
    ("trailing-comma", ms_line("[1,2,]")),
    ("empty-keys", ms_line("[]", "int32")),
    ("keys-member-inside-string", ms_line(
        "[1,2]", extra=r',"note":"x\"keys\":[7,8]"')),
    ("duplicated-keys-member", ms_line("[5,6]", extra=',"keys":[1,2,3]')),
    ("duplicated-keys-member-last-empty", ms_line(
        "[]", extra=',"keys":[1,2,3]')),
    ("keys-member-in-nested-object", ms_line(
        "[4,5]", extra=',"meta":{"keys":[9]}')),
    ("keys-member-only-in-nested-object",
     b'{"id":7,"op":"multisplit","spec":%s,"meta":{"keys":[9]}}\n'
     % split1("uint32").encode()),
    # the only member named "keys" is spelled with an escape; the bytes
    # "keys":[ belong to the member named x"keys
    ("escaped-member-names",
     b'{"id":7,"op":"multisplit","spec":%s,"x\\"keys":[7],'
     b'"k\\u0065ys":[]}\n' % split1("uint32").encode()),
]


def json_path(line: bytes):
    """What the ``json`` decode answers for ``line``: the keys array, or
    the 400 message."""
    return _decode(_parse_json, line)


def wire_path(line: bytes):
    return _decode(parse_request_line, line)


def _decode(parse, line):
    try:
        obj = parse(line)
        check_op(obj)
        if obj["op"] == "ping":
            return "pong"
        return array_from_json(obj.get("keys"),
                               dtype=obj.get("dtype", "uint32"))
    except BadRequestError as e:
        return f"400: {e}"


@pytest.mark.parametrize("i", range(len(ROWS)), ids=[r[0] for r in ROWS])
def test_decode_equals_json_path(i):
    line = ROWS[i][1]
    got, want = wire_path(line), json_path(line)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert got == want


@pytest.fixture(scope="module")
def answers():
    """Each row's decoded response line, plus a ``ping`` sent after."""
    async def send(host, port, line):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(line)
            await writer.drain()
            writer.write_eof()
            return json.loads(await reader.readline())
        finally:
            writer.close()

    async def scenario():
        cfg = ServiceConfig(max_batch=8, workers=1)
        service = await ReproService(cfg).start()
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            out = await asyncio.gather(
                *[send(server.host, server.port, line) for _, line in ROWS])
            pong = await send(server.host, server.port,
                              b'{"id":1,"op":"ping"}\n')
        finally:
            await server.close()
        return out, pong

    return asyncio.run(scenario())


@pytest.mark.parametrize("i", range(len(ROWS)), ids=[r[0] for r in ROWS])
def test_row_is_answered_as_the_json_path_answers(answers, i):
    resp = answers[0][i]
    want = json_path(ROWS[i][1])
    if isinstance(want, str):
        assert not resp["ok"], resp
        assert f"{resp['error']['code']}: {resp['error']['message']}" == want
    else:
        assert resp["ok"], resp
        assert resp["keys"] == want.tolist()


def test_server_still_answers_ping(answers):
    pong = answers[1]
    assert pong["ok"] and pong["op"] == "ping"
