"""TCP endpoint: line-JSON requests multiplexed onto a ReproService.

Each connection may pipeline requests; every request line spawns a task
so slow routes never head-of-line-block fast ones on the same
connection (responses carry the request ``id`` for matching). A
per-connection write lock keeps response lines atomic.

``serve()`` is the CLI entry point: it runs a service + server until
SIGINT/SIGTERM, then drains gracefully — exactly what the CI smoke job
exercises.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal

from repro.sssp.graph import Graph

from . import protocol
from .config import ServiceConfig
from .errors import BadRequestError
from .protocol import MAX_LINE_BYTES
from .service import ReproService

__all__ = ["ServiceServer", "serve"]


class ServiceServer:
    """Asyncio TCP front end for one :class:`ReproService`."""

    def __init__(self, service: ReproService, *, host: str | None = None,
                 port: int | None = None):
        self.service = service
        self.host = host if host is not None else service.config.host
        self._port = port if port is not None else service.config.port
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` after start)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._port,
            limit=MAX_LINE_BYTES)
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop listening, let in-flight requests finish, close clients."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.close(drain=drain)
        while self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)

    async def __aenter__(self) -> "ServiceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # LimitOverrunError: the line outgrew the stream
                    # limit; answer once, then close after in-flight
                    # requests finish, since the bytes after it cannot
                    # be framed
                    err = BadRequestError(
                        f"request line exceeds {MAX_LINE_BYTES} bytes")
                    await self._send(writer, write_lock,
                                     protocol.error_response(None, err))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._respond(writer, write_lock, line))
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
                self._conn_tasks.add(task)
                task.add_done_callback(self._conn_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # reset, broken pipe or abort: the client went away
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            with contextlib.suppress(ConnectionError):
                # close without awaiting wait_closed(): the transport
                # finishes asynchronously, and awaiting here can be
                # cancelled at loop teardown for already-gone clients
                writer.close()

    async def _respond(self, writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock, line: bytes) -> None:
        req_id = None
        try:
            req = protocol.parse_request_line(line)
            req_id = req.get("id")  # salvage the id before op validation
            protocol.check_op(req)
            response = await self._execute(req)
        except Exception as exc:  # noqa: BLE001 — everything crosses the wire
            response = protocol.error_response(req_id, exc)
        await self._send(writer, write_lock, response)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                    response: dict) -> None:
        try:
            async with write_lock:
                # a dead transport only logs each further write
                if writer.is_closing():
                    return
                writer.write(protocol.encode_line(response))
                await writer.drain()
        except ConnectionError:
            pass  # client went away; response is undeliverable

    async def _execute(self, req: dict) -> dict:
        op = req["op"]
        req_id = req.get("id")
        svc = self.service
        if op == "ping":
            return {"id": req_id, "ok": True, "op": "ping"}
        if op == "metrics":
            return {"id": req_id, "ok": True, **svc.metrics_snapshot()}
        if op == "multisplit":
            spec = protocol.spec_from_json(req.get("spec"))
            keys = protocol.array_from_json(
                req.get("keys"), dtype=req.get("dtype", "uint32"))
            values = None
            if req.get("values") is not None:
                values = protocol.array_from_json(
                    req["values"], dtype=req.get("values_dtype", "uint32"),
                    what="values")
            result = await svc.multisplit(
                keys, spec, values=values, method=req.get("method", "auto"))
            return protocol.multisplit_response(req_id, result)
        if op == "sort":
            keys = protocol.array_from_json(
                req.get("keys"), dtype=req.get("dtype", "uint32"))
            values = None
            if req.get("values") is not None:
                values = protocol.array_from_json(
                    req["values"], dtype=req.get("values_dtype", "uint32"),
                    what="values")
            sorted_keys, sorted_values = await svc.sort(keys, values)
            return protocol.sort_response(req_id, sorted_keys, sorted_values)
        # op == "sssp"
        graph = self._graph_from_json(req)
        dist, stats = await svc.sssp(
            graph, int(req.get("source", 0)),
            algorithm=req.get("algorithm", "delta_stepping"),
            delta=req.get("delta"))
        return protocol.sssp_response(req_id, dist, stats)

    @staticmethod
    def _graph_from_json(req: dict) -> Graph:
        edges = req.get("edges")
        if not isinstance(edges, list):
            raise BadRequestError("sssp needs an 'edges' list of [u, v, w]")
        try:
            n = int(req["num_vertices"])
        except (KeyError, TypeError, ValueError) as e:
            raise BadRequestError(
                f"sssp needs an integer num_vertices: {e}") from e
        protocol.check_claimed_size(n, "num_vertices")
        src, dst, w = [], [], []
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 3:
                raise BadRequestError("each edge must be [u, v, weight]")
            src.append(e[0])
            dst.append(e[1])
            w.append(e[2])
        try:
            return Graph.from_edges(n, src, dst, w)
        except (ValueError, TypeError) as e:
            raise BadRequestError(f"bad graph: {e}") from e


async def serve(config: ServiceConfig | None = None, *,
                ready_message: bool = True) -> int:
    """Run service + TCP server until SIGINT/SIGTERM; drain; return 0.

    Prints ``repro-serve listening on <host>:<port>`` once accepting —
    the smoke harness parses that line to find an ephemeral port.
    """
    config = config or ServiceConfig()
    service = ReproService(config)
    await service.start()
    server = ServiceServer(service)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(sig, stop.set)
    if ready_message:
        print(f"repro-serve listening on {server.host}:{server.port}",
              flush=True)
    await stop.wait()
    if ready_message:
        print("repro-serve draining ...", flush=True)
    await server.close(drain=True)
    if ready_message:
        snapshot = service.metrics_snapshot()["series"]
        requests = sum(rec.get("value", 0) for rec in snapshot
                       if rec["name"] == "service.requests")
        batches = sum(rec.get("value", 0) for rec in snapshot
                      if rec["name"] == "service.batches")
        print(f"repro-serve stopped ({requests} requests, "
              f"{batches} batches)", flush=True)
    return 0
