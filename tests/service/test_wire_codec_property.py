"""Hypothesis differential test of the wire codec against ``json``.

Draws a route (the four wire spec kinds, and ``sort``), an array dtype
(every integer width, signed and unsigned, plus float64), a size from 0
to 4096, optional values and compact or spaced separators, then checks
three things:

- the request line decodes to the same arrays and dtypes as the
  ``json`` decode of the same line;
- the response line is byte-equal to ``json.dumps`` of the response
  with every array as its ``tolist()``;
- one round trip through a live server returns what the library call
  returns.

The multisplit engine takes 32- and 64-bit keys only, so a narrower
dtype rides in ``values`` there, and in ``keys`` on the ``sort`` route.
Settings are derandomized, so every run draws the same examples.
"""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.multisplit import multisplit, reference_multisplit
from repro.service import ReproService, ServiceConfig, ServiceServer
from repro.service.protocol import (MAX_LINE_BYTES, _parse_json,
                                    array_from_json, encode_line,
                                    multisplit_response, parse_request_line,
                                    sort_response, spec_from_json)
from repro.sort.reference import stable_sort_pairs

INT_DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "uint32",
              "int64", "uint64"]
KINDS = ["range", "identity", "delta", "splitter", "sort"]


def full_range(rng, dtype, n, extremes):
    if np.dtype(dtype).kind == "f":
        return np.round(rng.uniform(-1e6, 1e6, n), 3)
    info = np.iinfo(dtype)
    a = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    if extremes and n >= 3:
        a[:3] = [info.min, info.max, 0]
    return a


def draw_request(kind, dtype, n, kv, extremes, seed):
    """(request fields, keys, values) for one drawn example."""
    rng = np.random.default_rng(seed)
    values = full_range(rng, dtype, n, extremes) if kv else None
    if kind == "sort":
        keys = full_range(rng, dtype, n, extremes)
        return {"op": "sort", "dtype": dtype}, keys, values
    kdt = dtype if np.dtype(dtype).itemsize >= 4 else "uint32"
    is_float = np.dtype(kdt).kind == "f"
    if kind == "splitter":
        keys = full_range(rng, kdt, n, extremes)
        splitters = np.sort(full_range(rng, kdt, int(rng.integers(0, 20)),
                                       False))
        spec = {"kind": "splitter", "dtype": kdt,
                "splitters": splitters.tolist()}
    else:
        m = int(rng.integers(1, 513))
        hi = {"range": 1000 if is_float else 2**32, "identity": m,
              "delta": 10**6}[kind]
        keys = (rng.uniform(0, hi, n) if is_float
                else rng.integers(0, hi, n)).astype(kdt)
        spec = {"kind": kind, "num_buckets": m}
        if kind == "range":
            spec.update(lo=0, hi=hi)
        elif kind == "delta":
            spec["delta"] = 7.5
    return {"op": "multisplit", "spec": spec, "dtype": kdt}, keys, values


def request_line(fields, keys, values, spaced) -> bytes:
    obj = {"id": 7, **fields, "keys": keys.tolist()}
    if values is not None:
        obj.update(values=values.tolist(), values_dtype=str(values.dtype))
    seps = (", ", ": ") if spaced else (",", ":")
    return (json.dumps(obj, separators=seps) + "\n").encode()


def decode_arrays(parse, line):
    obj = parse(line)
    keys = array_from_json(obj["keys"], dtype=obj["dtype"])
    values = None
    if obj.get("values") is not None:
        values = array_from_json(obj["values"], dtype=obj["values_dtype"],
                                 what="values")
    return keys, values


def library_response(fields, keys, values) -> dict:
    if fields["op"] == "sort":
        return sort_response(7, *stable_sort_pairs(keys, values))
    result = multisplit(keys, spec_from_json(fields["spec"]), values=values,
                        engine="fast")
    return multisplit_response(7, result)


def as_lists(obj: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in obj.items()}


@pytest.fixture(scope="module")
def server_addr():
    """(host, port) of a live server running on a background loop."""
    box, ready = {}, threading.Event()

    async def main():
        service = await ReproService(
            ServiceConfig(max_batch=8, workers=1)).start()
        server = await ServiceServer(service, port=0).start()
        box.update(addr=(server.host, server.port), stop=asyncio.Event(),
                   loop=asyncio.get_running_loop())
        ready.set()
        await box["stop"].wait()
        await server.close()

    thread = threading.Thread(target=asyncio.run, args=(main(),))
    thread.start()
    assert ready.wait(30), "server did not start"
    yield box["addr"]
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(30)


def round_trip(addr, line: bytes) -> dict:
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(line)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            assert chunk, "connection closed before the response"
            buf += chunk
    return json.loads(buf)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS),
       dtype=st.sampled_from(INT_DTYPES + ["float64"]),
       n=st.integers(0, 4096),
       kv=st.booleans(),
       extremes=st.booleans(),
       spaced=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(kind="splitter", dtype="uint64", n=4096, kv=True, extremes=True,
         spaced=False, seed=0)
@example(kind="sort", dtype="int64", n=3000, kv=True, extremes=True,
         spaced=False, seed=1)
@example(kind="range", dtype="uint32", n=1024, kv=False, extremes=False,
         spaced=True, seed=2)
@example(kind="sort", dtype="int8", n=0, kv=True, extremes=False,
         spaced=False, seed=3)
def test_codec_matches_json(server_addr, kind, dtype, n, kv, extremes,
                            spaced, seed):
    fields, keys, values = draw_request(kind, dtype, n, kv, extremes, seed)

    line = request_line(fields, keys, values, spaced)
    got, want = decode_arrays(parse_request_line, line), \
        decode_arrays(_parse_json, line)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(got[0], keys)

    response = library_response(fields, keys, values)
    want_line = json.dumps(as_lists(response), separators=(",", ":")) + "\n"
    assert encode_line(response) == want_line.encode()

    # the round trip sends as many keys as fit in one request line
    while len(line) > MAX_LINE_BYTES:
        n //= 2
        keys = keys[:n]
        values = None if values is None else values[:n]
        line = request_line(fields, keys, values, spaced)
    resp = round_trip(server_addr, line)
    assert resp["ok"], resp
    if kind == "sort":
        ref_keys, ref_values = stable_sort_pairs(keys, values)
    else:
        ref_keys, ref_values, ref_starts = reference_multisplit(
            keys, spec_from_json(fields["spec"]), values)
        assert resp["bucket_starts"] == ref_starts.tolist()
    assert np.array_equal(np.asarray(resp["keys"], dtype=keys.dtype),
                          ref_keys)
    if values is None:
        assert resp["values"] is None
    else:
        assert np.array_equal(np.asarray(resp["values"], dtype=values.dtype),
                              ref_values)
