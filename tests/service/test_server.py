"""TCP endpoint: wire protocol, error codes, pipelining, lifecycle.

Each test boots an in-process :class:`ServiceServer` on an ephemeral
port inside its own event loop and talks to it with the real
:class:`ServiceClient` — the same code path the CI smoke harness and
external clients use.
"""

import asyncio
import json
import logging
import threading

import numpy as np
import pytest

import repro.service.service as service_mod
import repro.sort
import repro.sssp
from repro.engine import DEFAULT_SHARD_KEYS
from repro.multisplit import RangeBuckets, multisplit
from repro.service import (BadRequestError, ReproService, ServiceClosedError,
                           ServiceConfig, ServiceServer, connect)
from repro.service.protocol import decode_request, spec_from_json
from repro.sssp.graph import Graph


def serve_scenario(coro_fn, config=None):
    """Run ``coro_fn(server, host, port)`` against a live server."""
    async def scenario():
        cfg = config or ServiceConfig(max_batch=8, workers=1, port=0)
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

    def test_oversized_response_fails_the_client_at_once_not_hangs(self):
        # 65537 bucket starts make a legal response line longer than the
        # client's 64 KiB stream limit: the reader stops, so that request
        # and every later one on the client must fail now, naming why
        async def run(server, host, port):
            client = await connect(host, port)
            try:
                with pytest.raises(ServiceClosedError) as oversized:
                    await asyncio.wait_for(client.multisplit(
                        [1, 2, 3], {"kind": "range", "num_buckets": 65536}),
                        5.0)
                with pytest.raises(ServiceClosedError, match="ValueError"):
                    await asyncio.wait_for(client.ping(), 5.0)
                assert "ValueError" in str(oversized.value)
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


# client resets mid-pipeline: (route, extra request fields, connections,
# requests each connection pipelines before it aborts)
RESET_SCENARIOS = [
    pytest.param("multisplit", {"spec": {"kind": "range", "num_buckets": 16}},
                 8, 20, id="multisplit-range"),
    pytest.param("sort", {}, 8, 20, id="sort"),
    pytest.param("multisplit", {"spec": {"kind": "identity", "num_buckets": 4},
                                "method": "direct"}, 4, 40,
                 id="multisplit-identity-direct"),
]


class TestClientReset:
    @pytest.mark.parametrize("op,fields,connections,pipelined",
                             RESET_SCENARIOS)
    def test_reset_mid_pipeline_is_quiet_and_server_keeps_serving(
            self, caplog, op, fields, connections, pipelined):
        """Clients that pipeline requests and then reset the connection
        must not log a traceback or a write per undeliverable response,
        and the next client still gets a correct answer."""
        keys = np.random.default_rng(3).integers(0, 4, 4096, dtype=np.uint32)
        body = {"op": op, "keys": keys.tolist(), **fields}
        lines = b"".join(json.dumps({"id": i, **body}).encode() + b"\n"
                         for i in range(pipelined))

        async def run(server, host, port):
            async def pipeline_then_reset():
                _, writer = await asyncio.open_connection(host, port)
                writer.write(lines)
                await writer.drain()
                writer.transport.abort()  # unread responses: an RST

            await asyncio.gather(*[pipeline_then_reset()
                                   for _ in range(connections)])
            client = await connect(host, port)
            try:
                return await client.request(op, keys=keys[:100].tolist(),
                                            **fields)
            finally:
                await client.close()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            resp = serve_scenario(run)
        noise = [r.getMessage() for r in caplog.records
                 if "client_connected_cb" in r.getMessage()
                 or "socket.send() raised" in r.getMessage()]
        assert noise == []
        assert resp["ok"]
        if op == "sort":
            assert resp["keys"] == sorted(keys[:100].tolist())
        else:
            ref = multisplit(keys[:100], spec_from_json(fields["spec"]),
                             engine="fast")
            assert resp["keys"] == ref.keys.tolist()
            assert resp["bucket_starts"] == ref.bucket_starts.tolist()


def record_kernel_threads(monkeypatch):
    """Wrap the kernels the service looks up at call time so each call
    records its thread; a multisplit window of more than
    ``DEFAULT_SHARD_KEYS`` keys blocks until ``release`` is set
    (``entered`` says it started)."""
    seen = {"window": [], "sort": [], "sssp": []}
    entered, release = threading.Event(), threading.Event()

    def wrap(name, fn, hold=False):
        def wrapper(*args, **kwargs):
            seen[name].append(threading.get_ident())
            if hold and sum(k.size for k in args[0]) > DEFAULT_SHARD_KEYS:
                entered.set()
                assert release.wait(10.0), "window was never released"
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(service_mod, "coalesced_multisplit_batch",
                        wrap("window", service_mod.coalesced_multisplit_batch,
                             hold=True))
    monkeypatch.setattr(repro.sort, "fast_radix_sort",
                        wrap("sort", repro.sort.fast_radix_sort))
    monkeypatch.setattr(repro.sssp, "dijkstra",
                        wrap("sssp", repro.sssp.dijkstra))
    return seen, entered, release


class TestKernelThread:
    """Windows and sorts of up to 32K keys run on the event-loop thread;
    bigger windows and every sssp request run on the executor."""

    def test_small_window_and_sort_run_on_the_loop_thread(self, monkeypatch):
        seen, _, _ = record_kernel_threads(monkeypatch)
        rng = np.random.default_rng(5)
        # two requests fill the window to exactly DEFAULT_SHARD_KEYS keys
        half = [rng.integers(0, 2**32, DEFAULT_SHARD_KEYS // 2,
                             dtype=np.uint32) for _ in range(2)]
        small = rng.integers(0, 2**32, 4096, dtype=np.uint32)

        async def run(server, host, port):
            svc = server.service
            res = await asyncio.gather(
                *[svc.multisplit(k, RangeBuckets(16)) for k in half])
            sorted_keys, _ = await svc.sort(small)
            graph = Graph.from_edges(2, [0], [1], [1.5])
            dist, _ = await svc.sssp(graph, 0, algorithm="dijkstra")
            return threading.get_ident(), res, sorted_keys, dist

        loop_thread, res, sorted_keys, dist = serve_scenario(
            run, ServiceConfig(max_batch=2, workers=1))
        assert seen["window"] == [loop_thread]
        assert seen["sort"] == [loop_thread]
        assert len(seen["sssp"]) == 1 and seen["sssp"][0] != loop_thread
        for k, r in zip(half, res):
            assert r.extra["coalesced"] == 2
            assert np.array_equal(
                r.keys, multisplit(k, RangeBuckets(16), engine="fast").keys)
        assert np.array_equal(sorted_keys, np.sort(small, kind="stable"))
        assert dist.tolist() == [0.0, 1.5]

    def test_large_window_runs_on_the_executor_while_ping_answers(
            self, monkeypatch):
        seen, entered, release = record_kernel_threads(monkeypatch)
        rng = np.random.default_rng(6)
        # one key past a shard: the window leaves the loop thread
        big = [rng.integers(0, 2**32, DEFAULT_SHARD_KEYS // 2 + 1,
                            dtype=np.uint32) for _ in range(2)]

        async def run(server, host, port):
            svc = server.service
            tasks = [asyncio.ensure_future(svc.multisplit(k, RangeBuckets(16)))
                     for k in big]
            try:
                while not entered.is_set():
                    await asyncio.sleep(0.005)
                # the window's kernel is still held: the loop answers anyway
                client = await connect(host, port)
                try:
                    pong = await asyncio.wait_for(client.ping(), 5.0)
                finally:
                    await client.close()
            finally:
                release.set()
            return threading.get_ident(), pong, await asyncio.gather(*tasks)

        loop_thread, pong, res = serve_scenario(
            run, ServiceConfig(max_batch=2, workers=1))
        assert pong["ok"]
        assert len(seen["window"]) == 1 and seen["window"][0] != loop_thread
        for k, r in zip(big, res):
            assert np.array_equal(
                r.keys, multisplit(k, RangeBuckets(16), engine="fast").keys)
