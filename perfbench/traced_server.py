"""``repro serve`` with spans around every layer the request path calls.

Wraps, from outside the package, the module attributes the server looks up
at call time -- ``repro.service.protocol.*``, ``validate_spec`` /
``coalesced_multisplit_batch`` / ``multisplit_batch`` as imported by
``repro.service.service``, and ``repro.sort.fast_radix_sort`` -- plus the
per-request ``ServiceServer._respond`` task as the request's root span, the
``ids``/``eval_into`` of every decoded spec, and asyncio's ``Handle._run``
for event-loop busy time. Then it runs ``repro.service.serve`` with the
default config, exactly as ``python -m repro serve --port 0`` does, and
writes the spans when the server stops.

Usage: python3 perfbench/traced_server.py TRACE_OUT
"""

from __future__ import annotations

import asyncio
import asyncio.events
import contextvars
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import repro.sort  # noqa: E402
import repro.service.protocol as protocol  # noqa: E402
import repro.service.service as service_mod  # noqa: E402
from repro.service import ServiceConfig, ServiceServer, serve  # noqa: E402
from tracing import Tracer  # noqa: E402

_now = time.perf_counter
# loop busy time is kept as 1 ms bins, not spans: the loop runs tens of
# thousands of callbacks per second
BIN_S = 1e-3
MAX_BINS = 1_200_000

_request = contextvars.ContextVar("request", default=None)


def _context():
    req = _request.get()
    return (req["span"], req["op"]) if req is not None else (None, None)


tracer = Tracer(context=_context)
# id(keys array) -> request id, so executor-side spans (which see only
# arrays) can name the requests they served
_array_op: dict[int, object] = {}
loop_busy = np.zeros(MAX_BINS)
_origin = _now()
_loop_thread = threading.get_ident()


def _wrap_parse(orig):
    def parse_request_line(line):
        t0 = _now()
        obj = orig(line)
        req = _request.get()
        op = obj.get("id")
        parent = None
        if req is not None:
            req["op"] = op
            parent = req["span"]
        tracer.record("protocol.parse", t0, _now(), parent=parent, op=op, n=len(line))
        return obj

    return parse_request_line


def _wrap_spec_from_json(orig):
    def spec_from_json(obj):
        spec = tracer.call("protocol.spec", orig, (obj,), {})
        return tracer.wrap_spec(spec, op=_context()[1])

    return spec_from_json


def _wrap_array_from_json(orig):
    def array_from_json(data, *args, **kwargs):
        n = len(data) if isinstance(data, list) else 0
        arr = tracer.call("protocol.array", orig, (data, *args), kwargs, n=n)
        if kwargs.get("what", "keys") == "keys":
            _array_op[id(arr)] = _context()[1]
        return arr

    return array_from_json


def _batch_ops(keys_batch, *_a, **_k):
    return [_array_op.pop(id(k), None) for k in keys_batch]


def _wrap_respond(orig):
    async def _respond(self, writer, write_lock, line):
        req = {"span": tracer.new_id(), "op": None}
        _request.set(req)
        t0 = _now()
        try:
            return await orig(self, writer, write_lock, line)
        finally:
            tracer.record("service.request", t0, _now(), op=req["op"], sid=req["span"])

    return _respond


def _wrap_handle_run(orig):
    def _run(self):
        t0 = _now()
        try:
            return orig(self)
        finally:
            if threading.get_ident() == _loop_thread:
                _add_busy(t0, _now())

    return _run


def _add_busy(t0: float, t1: float) -> None:
    b = int((t0 - _origin) / BIN_S)
    while t0 < t1 and b < MAX_BINS:
        edge = _origin + (b + 1) * BIN_S
        seg = min(t1, edge) - t0
        loop_busy[b] += seg
        t0 += seg
        b += 1


def _keys_in(spec, keys, *_a, **_k) -> int:
    return len(keys)


def _batch_keys(keys_batch, *_a, **_k) -> int:
    return sum(len(k) for k in keys_batch)


def _sort_op(keys, *_a, **_k):
    return _array_op.pop(id(keys), None)


def _sort_keys(keys, *_a, **_k) -> int:
    return len(keys)


def install() -> None:
    protocol.parse_request_line = _wrap_parse(protocol.parse_request_line)
    protocol.spec_from_json = _wrap_spec_from_json(protocol.spec_from_json)
    protocol.array_from_json = _wrap_array_from_json(protocol.array_from_json)
    for name in ("multisplit_response", "sort_response", "encode_line"):
        layer = "protocol.encode" if name == "encode_line" else "protocol.response"
        setattr(protocol, name, tracer.timed(layer, getattr(protocol, name)))
    validate = service_mod.validate_spec
    service_mod.validate_spec = tracer.timed("validate.spec", validate, count=_keys_in)
    batch_layers = {
        "coalesced_multisplit_batch": "batch.coalesced",
        "multisplit_batch": "batch.per_item",
    }
    for name, layer in batch_layers.items():
        fn = getattr(service_mod, name)
        wrapped = tracer.timed(layer, fn, op_of=_batch_ops, count=_batch_keys)
        setattr(service_mod, name, wrapped)
    radix = repro.sort.fast_radix_sort
    wrapped = tracer.timed("sort.fast_radix", radix, op_of=_sort_op, count=_sort_keys)
    repro.sort.fast_radix_sort = wrapped
    ServiceServer._respond = _wrap_respond(ServiceServer._respond)
    asyncio.events.Handle._run = _wrap_handle_run(asyncio.events.Handle._run)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0]
    install()
    code = asyncio.run(serve(ServiceConfig(port=0)))
    busy = [[int(b), float(loop_busy[b])] for b in np.flatnonzero(loop_busy)]
    workers = service_mod._default_workers()
    extra = {"origin": _origin, "bin_s": BIN_S, "executor_workers": workers}
    tracer.dump(out_path, loop_busy=busy, **extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
