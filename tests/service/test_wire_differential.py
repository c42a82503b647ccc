"""TCP differential table: wire multisplit and sort responses against
the oracles.

Seeded tables of multisplit requests (every wire spec kind) and sort
requests, over three key dtypes, 0-4096 keys, with and without values,
are sent pipelined on one connection to a live :class:`ServiceServer`.
Every ok multisplit response must equal :func:`reference_multisplit` in
keys, values and ``bucket_starts``, and every sort response must equal
:func:`stable_sort_pairs`; every domain-error row must come back as a
400, and the connection must still answer ``ping`` afterwards. Requests
with the same spec and dtype share coalescing windows, so the error rows
also exercise per-request failure inside a shared batch.
"""

import asyncio

import numpy as np
import pytest

from repro.multisplit import reference_multisplit
from repro.service import ReproService, ServiceConfig, ServiceServer, connect
from repro.service.protocol import spec_from_json
from repro.sort.reference import stable_sort_pairs

SPLIT_U32 = {"kind": "splitter", "dtype": "uint32",
             "splitters": [1 << 20, 1 << 24, 1 << 24, 1 << 30, 3 << 30]}
SPLIT_I64 = {"kind": "splitter", "dtype": "int64",
             "splitters": [-1000, -10, 0, 10, 1000, 10**12]}
SPLIT_F64 = {"kind": "splitter", "dtype": "float64",
             "splitters": [-2.5, 0.0, 0.5, 1e9]}


def rng_spec(m, lo=None, hi=None):
    spec = {"kind": "range", "num_buckets": m}
    if lo is not None:
        spec.update(lo=lo, hi=hi)
    return spec


def delta_spec(delta, m):
    return {"kind": "delta", "delta": delta, "num_buckets": m}


def ident(m):
    return {"kind": "identity", "num_buckets": m}


# (spec, keys dtype, n, key range [lo, hi), values dtype or None); n and
# the key range keep each request and response line under the 64 KiB
# line limit of the asyncio stream reader
OK_ROWS = [
    (rng_spec(16), "uint32", 0, (0, 2**32), None),
    (rng_spec(16), "uint32", 1, (0, 2**32), "uint32"),
    (rng_spec(16), "uint32", 4096, (0, 2**32), None),
    (rng_spec(16), "uint32", 2048, (0, 2**32), "uint32"),
    (rng_spec(256), "uint32", 3000, (0, 2**32), None),
    (rng_spec(8, 0, 1000), "uint32", 777, (0, 1000), None),
    (rng_spec(8, 0, 1000), "uint32", 64, (0, 1000), "uint32"),
    (rng_spec(32, 100, 2**40), "int64", 2048, (100, 2**40), "int64"),
    (rng_spec(7, 0, 1000), "int64", 300, (0, 1000), None),
    (rng_spec(4, 10, 1010), "float64", 500, (10, 1010), "uint32"),
    (rng_spec(256), "float64", 2048, (0, 2**32), None),
    (ident(4), "uint32", 6, (0, 4), None),
    (ident(16), "uint32", 4096, (0, 16), "uint32"),
    (ident(256), "int64", 1000, (0, 256), None),
    (ident(3), "int64", 0, (0, 3), "uint32"),
    (ident(32), "float64", 200, (0, 32), "float64"),
    (delta_spec(10.0, 8), "float64", 1000, (-20, 100), "uint32"),
    (delta_spec(997.25, 64), "float64", 4096, (0, 80000), None),
    (delta_spec(2.5, 4), "uint32", 300, (0, 20), "uint32"),
    (delta_spec(1e6, 16), "int64", 2048, (-10**7, 10**8), None),
    (delta_spec(1.0, 4), "float64", 1, (-1e300, 1e300), None),
    (SPLIT_U32, "uint32", 2048, (0, 2**32), "uint32"),
    (SPLIT_U32, "uint32", 17, (1 << 24, (1 << 24) + 1), None),
    (SPLIT_U32, "int64", 900, (-100, 2**33), "uint32"),
    (SPLIT_I64, "int64", 2500, (-2000, 2000), "int64"),
    (SPLIT_I64, "int64", 0, (0, 1), None),
    (SPLIT_F64, "float64", 1500, (-10.0, 10.0), "uint32"),
    (SPLIT_F64, "float64", 4096, (-1e4, 1e4), None),
    ({"kind": "splitter", "splitters": []}, "uint32", 100, (0, 2**32),
     "uint32"),
    ({"kind": "splitter", "dtype": "float64", "splitters": [0.5]},
     "uint32", 50, (0, 2), None),
    (rng_spec(1, 0, 2**32), "uint32", 10, (0, 2**32), None),
]

# (name, spec, keys dtype, keys): each must be answered with a 400
ERROR_ROWS = [
    ("identity-negative-key", ident(16), "int32", [3, -1, 5]),
    ("identity-key-ge-m", ident(16), "uint32", [3, 16]),
    ("range-key-ge-hi", rng_spec(8, 0, 1000), "uint32", [1, 1000]),
    ("range-key-lt-lo", rng_spec(8, 0, 1000), "int64", [-1, 5]),
    ("range-nan-key", rng_spec(16), "float64", [float("nan")]),
    ("range-lo-negative", rng_spec(4, -5, 10), "int64", [0, 1]),
    ("range-too-wide", rng_spec(16, 0, 2**63), "uint32", [0]),
    ("delta-nan-key", delta_spec(1.0, 4), "float64", [1.0, float("nan")]),
    ("delta-nan-delta", delta_spec(float("nan"), 4), "float64", [1.0]),
]

# (keys dtype, n, key range [lo, hi), values dtype or None); the narrow
# ranges repeat keys, so stability decides the values' order
SORT_ROWS = [
    ("uint32", 0, (0, 2**32), None),
    ("uint32", 1, (0, 2**32), "uint32"),
    ("uint32", 4096, (0, 2**32), None),
    ("uint32", 2048, (0, 2**32), "uint32"),
    ("uint32", 3000, (0, 16), "uint32"),
    ("int64", 0, (0, 1), "int64"),
    ("int64", 2048, (-2**40, 2**40), "int64"),
    ("int64", 1000, (-5, 5), "uint32"),
    ("int64", 4096, (-10**6, 10**6), None),
    ("float64", 1, (-1.0, 1.0), None),
    ("float64", 1500, (-1e4, 1e4), "uint32"),
    ("float64", 4096, (-10.0, 10.0), None),
    # rounded to 3 places these keys repeat, -0.0 and 0.0 among them:
    # equal keys, so they keep their input order
    ("float64", 2000, (-0.002, 0.002), "float64"),
]


def make_keys(seed, dtype, n, lo, hi, values_dtype):
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "f":
        keys = np.round(rng.uniform(lo, hi, n), 3)
    else:
        keys = rng.integers(lo, hi, n, dtype=dtype)
    values = None
    if values_dtype is not None:
        values = rng.integers(0, 100, n).astype(values_dtype)
    return keys, values


def sort_row_id(row):
    dtype, n, _, values_dtype = row
    return f"sort-{dtype}-n{n}-{'kv' if values_dtype else 'k'}"


def row_id(row):
    spec, dtype = row[0], row[1]
    return f"{spec['kind']}-m{spec_from_json(spec).num_buckets}-{dtype}"


@pytest.fixture(scope="module")
def wire_responses():
    """Every row's request and response (or raised error), all sent
    pipelined on one connection, plus the ``ping`` answered after them."""
    requests = [make_keys(1000 + i, dtype, n, lo, hi, values_dtype)
                for i, (_, dtype, n, (lo, hi), values_dtype)
                in enumerate(OK_ROWS)]
    sorts = [make_keys(2000 + i, dtype, n, lo, hi, values_dtype)
             for i, (dtype, n, (lo, hi), values_dtype) in enumerate(SORT_ROWS)]

    async def scenario():
        cfg = ServiceConfig(max_batch=8, workers=1)
        service = await ReproService(cfg).start()
        server = ServiceServer(service, port=0)
        await server.start()
        client = await connect(server.host, server.port)
        try:
            calls = [client.request(
                "multisplit", spec=row[0], keys=keys.tolist(), dtype=row[1],
                values=None if values is None else values.tolist(),
                values_dtype=row[4])
                for row, (keys, values) in zip(OK_ROWS, requests)]
            calls += [client.request("multisplit", spec=spec, keys=keys,
                                     dtype=dtype)
                      for _, spec, dtype, keys in ERROR_ROWS]
            calls += [client.request(
                "sort", keys=keys.tolist(), dtype=row[0],
                values=None if values is None else values.tolist(),
                values_dtype=row[3])
                for row, (keys, values) in zip(SORT_ROWS, sorts)]
            out = await asyncio.gather(*calls, return_exceptions=True)
            pong = await client.ping()
        finally:
            await client.close()
            await server.close()
        return out, pong

    out, pong = asyncio.run(scenario())
    ok, rest = out[:len(OK_ROWS)], out[len(OK_ROWS):]
    errors, sorted_ = rest[:len(ERROR_ROWS)], rest[len(ERROR_ROWS):]
    return {"requests": requests, "ok": ok, "errors": errors, "pong": pong,
            "sorts": sorts, "sorted": sorted_}


@pytest.mark.parametrize("i", range(len(OK_ROWS)),
                         ids=[row_id(r) for r in OK_ROWS])
def test_ok_row_matches_reference(wire_responses, i):
    requests, ok = wire_responses["requests"], wire_responses["ok"]
    spec_json, dtype, _, _, values_dtype = OK_ROWS[i]
    keys, values = requests[i]
    resp = ok[i]
    assert not isinstance(resp, Exception), resp
    ref_keys, ref_values, ref_starts = reference_multisplit(
        keys, spec_from_json(spec_json), values)
    assert np.array_equal(np.asarray(resp["keys"], dtype=dtype), ref_keys)
    if values is None:
        assert resp["values"] is None
    else:
        assert np.array_equal(np.asarray(resp["values"], dtype=values_dtype),
                              ref_values)
    assert np.array_equal(np.asarray(resp["bucket_starts"], dtype=np.int64),
                          ref_starts)


@pytest.mark.parametrize("i", range(len(SORT_ROWS)),
                         ids=[sort_row_id(r) for r in SORT_ROWS])
def test_sort_row_matches_reference(wire_responses, i):
    dtype, _, _, values_dtype = SORT_ROWS[i]
    keys, values = wire_responses["sorts"][i]
    resp = wire_responses["sorted"][i]
    assert not isinstance(resp, Exception), resp
    ref_keys, ref_values = stable_sort_pairs(keys, values)
    got = np.asarray(resp["keys"], dtype=dtype)
    # bitwise, so a -0.0 that swapped places with a 0.0 shows
    assert got.tobytes() == ref_keys.tobytes()
    if values is None:
        assert resp["values"] is None
    else:
        assert np.array_equal(np.asarray(resp["values"], dtype=values_dtype),
                              ref_values)


@pytest.mark.parametrize("i", range(len(ERROR_ROWS)),
                         ids=[r[0] for r in ERROR_ROWS])
def test_domain_error_row_is_400(wire_responses, i):
    errors = wire_responses["errors"]
    exc = errors[i]
    assert isinstance(exc, Exception), f"{ERROR_ROWS[i][0]} was answered ok"
    assert getattr(exc, "code", None) == 400, f"{type(exc).__name__}: {exc}"


def test_connection_still_answers_ping(wire_responses):
    pong = wire_responses["pong"]
    assert pong["ok"] and pong["op"] == "ping"
