"""Wire requests with bad parameters: each must be answered with a 400.

A size a request claims (a spec's ``num_buckets``, an sssp
``num_vertices``) sizes allocations before any key is read, so the
decoder bounds it by the request line limit (``MAX_LINE_BYTES``); each
size row claims one slot past that bound. Arrays must have a numeric
dtype, and an unknown ``method`` is the client's error too. Every row
is sent on its own connection to one live :class:`ServiceServer`.
"""

import asyncio

import pytest

from repro.service import ReproService, ServiceConfig, ServiceServer, connect
from repro.service.server import MAX_LINE_BYTES

OVER = MAX_LINE_BYTES + 1
RANGE16 = {"kind": "range", "num_buckets": 16}

# (name, op, request fields)
ROWS = [
    ("range-num-buckets-over-limit", "multisplit",
     {"keys": [1], "spec": {"kind": "range", "num_buckets": OVER}}),
    ("identity-num-buckets-over-limit", "multisplit",
     {"keys": [0], "spec": {"kind": "identity", "num_buckets": OVER}}),
    ("delta-num-buckets-over-limit", "multisplit",
     {"keys": [0], "spec": {"kind": "delta", "delta": 1.0,
                            "num_buckets": OVER}}),
    ("sssp-num-vertices-over-limit", "sssp",
     {"num_vertices": OVER, "edges": [[0, 1, 1.0]], "source": 0}),
    ("object-keys", "multisplit",
     {"keys": [1, 2], "dtype": "object", "spec": RANGE16}),
    ("object-splitters", "multisplit",
     {"keys": [1, 9], "spec": {"kind": "splitter", "dtype": "object",
                               "splitters": [5]}}),
    ("object-values", "multisplit",
     {"keys": [1, 2], "spec": RANGE16, "values": [3, 4],
      "values_dtype": "object"}),
    ("unknown-method", "multisplit",
     {"keys": [1, 2], "spec": RANGE16, "method": "bogus"}),
]


@pytest.fixture(scope="module")
def responses():
    """Each row's response or raised error, plus a ``ping`` sent after."""
    async def send(host, port, op, fields):
        client = await connect(host, port)
        try:
            return await client.request(op, **fields)
        finally:
            await client.close()

    async def scenario():
        cfg = ServiceConfig(max_batch=8, workers=1)
        service = await ReproService(cfg).start()
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            out = await asyncio.gather(
                *[send(server.host, server.port, op, fields)
                  for _, op, fields in ROWS], return_exceptions=True)
            pong = await send(server.host, server.port, "ping", {})
        finally:
            await server.close()
        return out, pong

    return asyncio.run(scenario())


@pytest.mark.parametrize("i", range(len(ROWS)), ids=[r[0] for r in ROWS])
def test_bad_parameter_is_400(responses, i):
    exc = responses[0][i]
    assert isinstance(exc, Exception), f"{ROWS[i][0]} was answered ok"
    assert getattr(exc, "code", None) == 400, f"{type(exc).__name__}: {exc}"


def test_server_still_answers_ping(responses):
    pong = responses[1]
    assert pong["ok"] and pong["op"] == "ping"
