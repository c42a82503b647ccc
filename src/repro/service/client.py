"""Minimal asyncio client for the line-JSON TCP endpoint.

Used by the load/smoke harness, the service benchmark, and the tests;
also a reference implementation of the protocol for external clients.
One connection supports arbitrary pipelining: ``request()`` assigns a
monotonically increasing ``id``, a background reader task matches
response lines back to waiting futures, and error responses are raised
as the matching :mod:`repro.service.errors` exception type. Once the
reader stops (EOF, a reset, a response line over the stream limit),
every waiting and every later request fails with
:class:`~repro.service.errors.ServiceClosedError` naming the cause.
"""

from __future__ import annotations

import asyncio
import json

from .errors import (BadRequestError, RequestTimeoutError, ServiceClosedError,
                     ServiceError, ServiceOverloadedError)

__all__ = ["ServiceClient", "connect"]

_ERRORS_BY_CODE = {
    400: BadRequestError,
    429: ServiceOverloadedError,
    503: ServiceClosedError,
    504: RequestTimeoutError,
}


def _raise_error(err: dict) -> None:
    code = err.get("code", 500)
    message = err.get("message", "service error")
    cls = _ERRORS_BY_CODE.get(code, ServiceError)
    if cls is ServiceOverloadedError:
        raise ServiceOverloadedError(
            message, retry_after_ms=err.get("retry_after_ms", 0.0))
    raise cls(message)


class ServiceClient:
    """One pipelined connection to a :class:`~repro.service.ServiceServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._waiting: dict[int, asyncio.Future] = {}
        self._closed_cause: str | None = None
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        cause = "connection closed"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                fut = self._waiting.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(response)
        except Exception as exc:  # noqa: BLE001 — handed to every waiter
            cause = f"connection closed: {type(exc).__name__}: {exc}"
        finally:
            self._closed_cause = cause
            for fut in self._waiting.values():
                if not fut.done():
                    fut.set_exception(ServiceClosedError(cause))
            self._waiting.clear()

    async def request(self, op: str, **fields) -> dict:
        """Send one request; await its response; raise service errors."""
        if self._closed_cause is not None:
            raise ServiceClosedError(self._closed_cause)
        self._next_id += 1
        req_id = self._next_id
        fut = asyncio.get_running_loop().create_future()
        self._waiting[req_id] = fut
        payload = {"id": req_id, "op": op, **fields}
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        self._writer.write(line.encode())
        await self._writer.drain()
        response = await fut
        if not response.get("ok"):
            _raise_error(response.get("error", {}))
        return response

    # -- convenience wrappers -------------------------------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def metrics(self) -> dict:
        return await self.request("metrics")

    async def multisplit(self, keys, spec: dict, *, values=None,
                         method: str = "auto") -> dict:
        return await self.request(
            "multisplit", keys=_as_list(keys), spec=spec,
            values=_as_list(values), method=method)

    async def sort(self, keys, *, values=None) -> dict:
        return await self.request("sort", keys=_as_list(keys),
                                  values=_as_list(values))

    async def sssp(self, num_vertices: int, edges, source: int = 0, *,
                   algorithm: str = "delta_stepping") -> dict:
        return await self.request(
            "sssp", num_vertices=num_vertices, edges=edges, source=source,
            algorithm=algorithm)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _as_list(data):
    if data is None:
        return None
    tolist = getattr(data, "tolist", None)
    return tolist() if tolist is not None else list(data)


async def connect(host: str, port: int) -> ServiceClient:
    """Shorthand for :meth:`ServiceClient.connect`."""
    return await ServiceClient.connect(host, port)
