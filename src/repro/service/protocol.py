"""Line-JSON wire protocol for the TCP endpoint.

One request per line, one response per line, both UTF-8 JSON. Requests
carry a client-chosen ``id`` that the matching response echoes, so a
client may pipeline many requests on one connection and match
responses out of order (the server answers in completion order, which
under coalescing is not arrival order).

Request shapes (``op`` selects the route)::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "metrics"}
    {"id": 3, "op": "multisplit", "keys": [...],
     "spec": {"kind": "range", "num_buckets": 16},          # or identity/delta
     "values": [...],            # optional
     "method": "auto"}           # optional
    {"id": 4, "op": "sort", "keys": [...], "values": [...]}
    {"id": 5, "op": "sssp", "num_vertices": 8, "source": 0,
     "edges": [[u, v, w], ...],
     "algorithm": "delta_stepping"}                          # optional

Responses are ``{"id": ..., "ok": true, ...payload...}`` on success or
``{"id": ..., "ok": false, "error": {"code": 429, "message": ...,
"retry_after_ms": ...}}`` on failure, with codes from
:mod:`repro.service.errors`. Arrays travel as JSON lists; ``dtype``
(default ``uint32`` for keys) selects the numpy dtype on the way in,
and non-finite SSSP distances (unreachable vertices) are encoded as
``null``. A request's top-level integer ``keys``/``values`` lists and
every integer array of a response are read and printed by
:mod:`repro.service.codec`, byte for byte as ``json`` would; the rules
are in ``docs/SERVICE.md`` (*Arrays on the wire*).

Spec objects cover the library's elementwise bucketings — ``range``
(``lo``/``hi`` optional), ``identity``, and ``delta`` (requires
``delta``), all taking ``num_buckets``, plus ``splitter`` (requires a
sorted ``splitters`` list; optional ``dtype``, default ``uint32``, and
optional ``num_buckets`` cross-checked against ``len(splitters) + 1``)
for sampled load-balanced bucketings built client-side with
``BucketSpec.from_sample``. Custom callables are an
in-process-API-only feature; the wire protocol deliberately refuses to
eval anything. Arrays take numeric dtypes only (bool, signed and
unsigned integers, floats), and a size the request claims
(``num_buckets``, ``num_vertices``) may not exceed
:data:`MAX_LINE_BYTES`, so no request sizes an allocation beyond what
its own line could describe.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.multisplit.bucketing import (BucketSpec, DeltaBuckets,
                                        IdentityBuckets, RangeBuckets,
                                        SplitterBuckets)

from .codec import format_int_list, parse_int_list
from .errors import BadRequestError, ServiceError

__all__ = [
    "OPS",
    "MAX_LINE_BYTES",
    "parse_request_line",
    "check_op",
    "decode_request",
    "encode_line",
    "spec_from_json",
    "check_claimed_size",
    "array_from_json",
    "multisplit_response",
    "sort_response",
    "sssp_response",
    "error_response",
]

OPS = ("ping", "metrics", "multisplit", "sort", "sssp")

# Longest request line the server frames (asyncio's default stream
# limit), and the largest size a request may claim: one byte of request
# line per claimed bucket or vertex.
MAX_LINE_BYTES = 1 << 16

_SPEC_KINDS = ("range", "identity", "delta", "splitter")

# request members the integer codec reads: name, quoted name, and the
# member naming the dtype
_INT_MEMBERS = (("keys", b'"keys"', "dtype"),
                ("values", b'"values"', "values_dtype"))
# json.dumps(..., separators=(",", ":")) without building an encoder per
# call
_JSON = json.JSONEncoder(separators=(",", ":"))

# the Python types ``json`` decodes an array's elements into, per dtype
# kind (``bool`` is not an ``int`` here: ``type`` does not follow
# subclassing)
_ELEMENT_TYPES = {
    "b": ({bool}, "JSON booleans"),
    "i": ({int}, "JSON integers"),
    "u": ({int}, "JSON integers"),
    "f": ({int, float}, "JSON numbers"),
}


def parse_request_line(line: bytes) -> dict:
    """Parse one line into a request object (no op validation yet, so a
    caller can extract the ``id`` before :func:`check_op` rejects).

    A top-level integer ``keys`` or ``values`` list arrives as the
    ndarray :func:`parse_int_list` read from its text; any line the
    codec cannot prove canonical is decoded by ``json`` instead, so both
    paths give the same request."""
    obj = _parse_with_codec(line)
    return obj if obj is not None else _parse_json(line)


def _parse_with_codec(line: bytes) -> dict | None:
    """The request with each compact top-level ``"keys":[...]`` and
    ``"values":[...]`` list under an integer dtype read by
    :func:`parse_int_list`, and the rest (the envelope) by ``json``; None
    when the line must take the ``json`` path."""
    cuts = []
    for name, quoted, dtype_member in _INT_MEMBERS:
        at = line.find(quoted + b":[")
        if at < 0:
            continue
        start = at + len(quoted) + 2
        end = line.find(b"]", start)
        if end < 0:
            return None
        cuts.append((start, end, name, quoted, dtype_member))
    if not cuts:
        return None
    cuts.sort()
    pieces, prev = [], 0
    for start, end, *_ in cuts:
        if start < prev:
            return None  # one body holds the other's name: not a flat list
        pieces.append(line[prev:start])
        prev = end
    pieces.append(line[prev:])
    envelope = b"".join(pieces)
    if b"\\" in envelope:
        return None  # an escape can spell a member name or hide a quote
    try:
        obj = json.loads(envelope)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    for start, end, name, quoted, dtype_member in cuts:
        # Without escapes a quoted name followed by ":" is a member name,
        # so one occurrence that left an empty top-level list is this
        # body's member. Two (a duplicate, or one in a nested object)
        # take the json path, which keeps the last duplicate.
        if envelope.count(quoted) != 1 or obj.get(name) != []:
            return None
        try:
            dt = np.dtype(obj.get(dtype_member, "uint32"))
        except (TypeError, ValueError):
            return None
        if dt.kind not in "iu":
            return None  # bool and float lists keep json's reading
        arr = parse_int_list(line[start:end], dt)
        if arr is None:
            return None
        obj[name] = arr
    return obj


def _parse_json(line: bytes) -> dict:
    """The ``json`` decode of a request line: every array a list of
    Python values."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        # RecursionError: arrays or objects nested deeper than the
        # parser's recursion limit
        raise BadRequestError(f"unparseable request: {e}") from e
    if not isinstance(obj, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(obj).__name__}")
    return obj


def check_op(obj: dict) -> None:
    op = obj.get("op")
    if op not in OPS:
        raise BadRequestError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})")


def decode_request(line: bytes) -> dict:
    """Parse + validate one request line; raises :class:`BadRequestError`."""
    obj = parse_request_line(line)
    check_op(obj)
    return obj


def encode_line(obj: dict) -> bytes:
    """One response as a newline-terminated JSON line: byte for byte
    ``json.dumps(obj, separators=(",", ":"))`` with every ndarray member
    as its ``tolist()``. A 1-D integer array member is printed by
    :func:`format_int_list`; the other members are runs of ``json``."""
    parts, run = [], {}
    for name, value in obj.items():
        if isinstance(value, np.ndarray):
            if value.ndim == 1 and value.dtype.kind in "iu":
                if run:
                    parts.append(_JSON.encode(run)[1:-1].encode())
                    run = {}
                parts.append(b"%s:[%s]" % (_JSON.encode(name).encode(),
                                           format_int_list(value)))
                continue
            value = value.tolist()
        run[name] = value
    if run:
        parts.append(_JSON.encode(run)[1:-1].encode())
    return b"{%s}\n" % b",".join(parts)


def spec_from_json(obj) -> BucketSpec:
    """Build a bucket spec from its wire form."""
    if not isinstance(obj, dict):
        raise BadRequestError("spec must be an object with a 'kind' field")
    kind = obj.get("kind")
    if kind not in _SPEC_KINDS:
        raise BadRequestError(
            f"unknown spec kind {kind!r} (expected one of "
            f"{', '.join(_SPEC_KINDS)})")
    if kind == "splitter":
        if "splitters" not in obj:
            raise BadRequestError("splitter spec needs a 'splitters' list")
        splitters = array_from_json(obj["splitters"],
                                    dtype=obj.get("dtype", "uint32"),
                                    what="splitters")
        nb = obj.get("num_buckets")
        try:
            return SplitterBuckets(
                splitters, None if nb is None else int(nb))
        except (ValueError, TypeError) as e:
            raise BadRequestError(f"invalid splitter spec: {e}") from e
    try:
        m = int(obj["num_buckets"])
    except (KeyError, TypeError, ValueError) as e:
        raise BadRequestError(f"spec needs an integer num_buckets: {e}") from e
    check_claimed_size(m, "num_buckets")
    try:
        if kind == "range":
            lo = int(obj.get("lo", 0))
            hi = int(obj.get("hi", 2**32))
            return RangeBuckets(m, lo, hi)
        if kind == "identity":
            return IdentityBuckets(m)
        delta = obj.get("delta")
        if delta is None:
            raise BadRequestError("delta spec needs a 'delta' field")
        return DeltaBuckets(float(delta), m)
    except ValueError as e:
        raise BadRequestError(f"invalid {kind} spec: {e}") from e


def check_claimed_size(n: int, what: str) -> None:
    """Refuse a claimed size over :data:`MAX_LINE_BYTES` before anything
    is allocated from it."""
    if n > MAX_LINE_BYTES:
        raise BadRequestError(
            f"{what}={n} exceeds the wire limit of {MAX_LINE_BYTES}")


def array_from_json(data, *, dtype="uint32", what: str = "keys") -> np.ndarray:
    """Decode a JSON list into a 1-D numeric numpy array.

    Integer dtypes take only JSON integers, float dtypes only numbers and
    bool only ``true``/``false``: a string, bool, nested list or ``null``
    element is a 400 naming the array, never a silent cast. An ndarray
    is a list :func:`parse_request_line` already read, in the dtype the
    request names."""
    if isinstance(data, np.ndarray):
        return data
    if not isinstance(data, list):
        raise BadRequestError(f"{what} must be a JSON list")
    try:
        dt = np.dtype(dtype)
    except TypeError as e:
        raise BadRequestError(f"unknown dtype {dtype!r}") from e
    if dt.kind not in "biuf":
        raise BadRequestError(
            f"{what} dtype must be bool, integer or float, got {dt}")
    allowed, noun = _ELEMENT_TYPES[dt.kind]
    if not set(map(type, data)) <= allowed:
        raise BadRequestError(f"{what} must hold only {noun} for dtype {dt}")
    try:
        return np.asarray(data, dtype=dt)
    except (ValueError, TypeError, OverflowError) as e:
        raise BadRequestError(f"bad {what} payload: {e}") from e


def multisplit_response(req_id, result) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "keys": result.keys,
        "values": result.values,
        "bucket_starts": result.bucket_starts,
        "method": result.method,
        "num_buckets": result.num_buckets,
    }


def sort_response(req_id, sorted_keys, sorted_values) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "keys": sorted_keys,
        "values": sorted_values,
    }


def sssp_response(req_id, dist, stats) -> dict:
    distances = [d if math.isfinite(d) else None for d in dist.tolist()]
    wire_stats = {k: v for k, v in stats.items()
                  if isinstance(v, (int, float, str)) and
                  (not isinstance(v, float) or math.isfinite(v))}
    return {"id": req_id, "ok": True, "dist": distances, "stats": wire_stats}


def error_response(req_id, exc: Exception) -> dict:
    err = exc if isinstance(exc, ServiceError) else ServiceError(
        f"{type(exc).__name__}: {exc}")
    return {"id": req_id, "ok": False, "error": err.to_json()}
