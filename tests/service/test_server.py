"""TCP endpoint: wire protocol, error codes, pipelining, lifecycle.

Each test boots an in-process :class:`ServiceServer` on an ephemeral
port inside its own event loop and talks to it with the real
:class:`ServiceClient` — the same code path the CI smoke harness and
external clients use.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.multisplit import RangeBuckets, multisplit
from repro.service import (BadRequestError, ReproService, ServiceConfig,
                           ServiceServer, connect)
from repro.service.protocol import decode_request, spec_from_json


def serve_scenario(coro_fn, config=None):
    """Run ``coro_fn(server, host, port)`` against a live server."""
    async def scenario():
        cfg = config or ServiceConfig(max_batch=8, max_wait_ms=10.0,
                                      workers=1, port=0)
        service = ReproService(cfg)
        await service.start()
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await coro_fn(server, server.host, server.port)
        finally:
            await server.close()
    return asyncio.run(scenario())


class TestProtocolHelpers:
    def test_decode_rejects_bad_json_and_unknown_ops(self):
        with pytest.raises(BadRequestError):
            decode_request(b"not json\n")
        with pytest.raises(BadRequestError):
            decode_request(b"[1, 2]\n")
        with pytest.raises(BadRequestError):
            decode_request(json.dumps({"op": "explode"}).encode())

    def test_spec_round_trip(self):
        spec = spec_from_json({"kind": "range", "num_buckets": 16,
                               "lo": 10, "hi": 1000})
        assert spec.num_buckets == 16 and spec.lo == 10 and spec.hi == 1000
        spec = spec_from_json({"kind": "identity", "num_buckets": 4})
        assert spec.num_buckets == 4
        spec = spec_from_json({"kind": "delta", "num_buckets": 8, "delta": 2.5})
        assert spec.delta == 2.5

    def test_splitter_spec_round_trip(self):
        spec = spec_from_json({"kind": "splitter", "splitters": [10, 20, 30]})
        assert spec.num_buckets == 4
        assert spec.splitters.dtype == np.dtype("uint32")
        assert spec(np.array([5, 10, 25, 99], dtype=np.uint32)).tolist() == \
            [0, 1, 2, 3]
        spec = spec_from_json({"kind": "splitter", "splitters": [100],
                               "dtype": "uint64", "num_buckets": 2})
        assert spec.splitters.dtype == np.dtype("uint64")

    def test_splitter_spec_rejections(self):
        with pytest.raises(BadRequestError, match="splitters"):
            spec_from_json({"kind": "splitter"})
        with pytest.raises(BadRequestError, match="sorted"):
            spec_from_json({"kind": "splitter", "splitters": [5, 3]})
        with pytest.raises(BadRequestError, match="num_buckets"):
            spec_from_json({"kind": "splitter", "splitters": [1, 2],
                            "num_buckets": 7})
        with pytest.raises(BadRequestError, match="dtype"):
            spec_from_json({"kind": "splitter", "splitters": [1],
                            "dtype": "complex-nonsense"})

    def test_splitter_spec_rejects_nan(self):
        # json.loads accepts the NaN literal; a NaN splitter compares
        # false both ways, so it slipped past the sortedness check
        obj = json.loads('{"kind":"splitter","dtype":"float64",'
                         '"splitters":[1.0,NaN,0.5]}')
        with pytest.raises(BadRequestError, match="NaN"):
            spec_from_json(obj)

    def test_spec_rejects_unknown_kind_and_missing_fields(self):
        with pytest.raises(BadRequestError):
            spec_from_json({"kind": "eval", "num_buckets": 4})
        with pytest.raises(BadRequestError):
            spec_from_json({"kind": "range"})
        with pytest.raises(BadRequestError):
            spec_from_json({"kind": "delta", "num_buckets": 4})
        with pytest.raises(BadRequestError):
            spec_from_json("RangeBuckets(4)")


class TestEndToEnd:
    def test_ping_and_metrics(self):
        async def run(server, host, port):
            client = await connect(host, port)
            try:
                pong = await client.ping()
                assert pong["ok"] and pong["op"] == "ping"
                snap = await client.metrics()
                assert snap["ok"] and "service" in snap and "series" in snap
            finally:
                await client.close()
        serve_scenario(run)

    def test_multisplit_over_wire_matches_direct_call(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 2**32, 500, dtype=np.uint32)
        values = np.arange(500, dtype=np.uint32)

        async def run(server, host, port):
            client = await connect(host, port)
            try:
                return await client.multisplit(
                    keys, {"kind": "range", "num_buckets": 16}, values=values)
            finally:
                await client.close()
        resp = serve_scenario(run)
        ref = multisplit(keys, RangeBuckets(16), values=values, engine="fast")
        assert np.array_equal(np.asarray(resp["keys"], np.uint32), ref.keys)
        assert np.array_equal(np.asarray(resp["values"], np.uint32), ref.values)
        assert np.array_equal(np.asarray(resp["bucket_starts"], np.int64),
                              ref.bucket_starts)
        assert resp["num_buckets"] == 16

    def test_concurrent_clients_coalesce(self):
        rng = np.random.default_rng(11)
        batch = [rng.integers(0, 2**32, 200, dtype=np.uint32)
                 for _ in range(8)]

        async def run(server, host, port):
            clients = await asyncio.gather(
                *[connect(host, port) for _ in range(8)])
            try:
                spec = {"kind": "range", "num_buckets": 8}
                responses = await asyncio.gather(
                    *[c.multisplit(k, spec)
                      for c, k in zip(clients, batch)])
                snap = await clients[0].metrics()
            finally:
                await asyncio.gather(*[c.close() for c in clients])
            return responses, snap
        responses, snap = serve_scenario(run)
        for k, resp in zip(batch, responses):
            ref = multisplit(k, RangeBuckets(8), engine="fast")
            assert np.array_equal(np.asarray(resp["keys"], np.uint32), ref.keys)
        batch_max = next(rec["value"] for rec in snap["series"]
                         if rec["name"] == "service.batch_size_max")
        assert batch_max > 1  # concurrency became coalescing

    def test_sort_over_wire(self):
        keys = np.array([5, 3, 8, 1, 3, 9, 0], dtype=np.uint32)

        async def run(server, host, port):
            client = await connect(host, port)
            try:
                return await client.sort(keys)
            finally:
                await client.close()
        resp = serve_scenario(run)
        assert resp["keys"] == sorted(keys.tolist())
        assert resp["values"] is None

    def test_sssp_over_wire_encodes_unreachable_as_null(self):
        async def run(server, host, port):
            client = await connect(host, port)
            try:
                return await client.sssp(
                    3, [[0, 1, 2.5]], source=0, algorithm="dijkstra")
            finally:
                await client.close()
        resp = serve_scenario(run)
        assert resp["dist"][0] == 0.0
        assert resp["dist"][1] == 2.5
        assert resp["dist"][2] is None  # unreachable -> null, not inf

    def test_bad_request_is_400_not_connection_loss(self):
        async def run(server, host, port):
            client = await connect(host, port)
            try:
                with pytest.raises(BadRequestError):
                    await client.multisplit([1, 2, 3], {"kind": "bogus"})
                # connection still usable after the 400
                pong = await client.ping()
                assert pong["ok"]
            finally:
                await client.close()
        serve_scenario(run)

    def test_pipelined_requests_on_one_connection(self):
        async def run(server, host, port):
            client = await connect(host, port)
            try:
                spec = {"kind": "identity", "num_buckets": 4}
                waves = [client.multisplit([0, 1, 2, 3, 2, 1], spec)
                         for _ in range(6)]
                responses = await asyncio.gather(*waves)
                assert all(r["ok"] for r in responses)
                assert len({id(r) for r in responses}) == 6
            finally:
                await client.close()
        serve_scenario(run)

    def test_raw_line_with_unknown_op_gets_error_response(self):
        async def run(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"id": 7, "op": "explode"}\n')
                await writer.drain()
                line = await reader.readline()
                resp = json.loads(line)
                assert resp["id"] == 7 and not resp["ok"]
                assert resp["error"]["code"] == 400
            finally:
                writer.close()
        serve_scenario(run)

    def test_overlong_line_gets_error_response_not_reset(self):
        # a line past the 64 KiB stream limit cannot be framed: the
        # server answers it once with a 400 naming the limit, answers
        # the request already in flight, and closes that connection only
        async def run(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"id": 1, "op": "ping"}\n')
                writer.write(b'{"id": 2, "op": "ping", "pad": "'
                             + b"x" * 100_000 + b'"}\n')
                await writer.drain()
                responses = [json.loads(line) async for line in reader]
            finally:
                writer.close()
            by_id = {r["id"]: r for r in responses}
            assert set(by_id) == {1, None}
            assert by_id[1]["ok"]
            error = by_id[None]["error"]
            assert error["code"] == 400 and "65536 bytes" in error["message"]
            client = await connect(host, port)
            try:
                assert (await client.ping())["ok"]
            finally:
                await client.close()
        serve_scenario(run)

    def test_server_close_is_idempotent_and_port_resolves(self):
        async def scenario():
            service = ReproService(ServiceConfig(workers=1))
            await service.start()
            server = ServiceServer(service, port=0)
            await server.start()
            port = server.port
            assert port > 0
            await server.close()
            await server.close()
            return port
        assert asyncio.run(scenario()) > 0
