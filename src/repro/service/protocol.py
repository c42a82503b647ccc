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
``null``.

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
    "array_to_json",
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


def parse_request_line(line: bytes) -> dict:
    """Parse one line into a request object (no op validation yet, so a
    caller can extract the ``id`` before :func:`check_op` rejects)."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as e:
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
    """One response as a newline-terminated JSON line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


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
    """Decode a JSON list into a 1-D numeric numpy array."""
    if not isinstance(data, list):
        raise BadRequestError(f"{what} must be a JSON list")
    try:
        dt = np.dtype(dtype)
    except TypeError as e:
        raise BadRequestError(f"unknown dtype {dtype!r}") from e
    if dt.kind not in "biuf":
        raise BadRequestError(
            f"{what} dtype must be bool, integer or float, got {dt}")
    try:
        arr = np.asarray(data, dtype=dt)
    except (ValueError, TypeError, OverflowError) as e:
        raise BadRequestError(f"bad {what} payload: {e}") from e
    if arr.ndim != 1:
        raise BadRequestError(f"{what} must be 1-D, got shape {arr.shape}")
    return arr


def array_to_json(arr: np.ndarray | None):
    if arr is None:
        return None
    return arr.tolist()


def multisplit_response(req_id, result) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "keys": array_to_json(result.keys),
        "values": array_to_json(result.values),
        "bucket_starts": array_to_json(result.bucket_starts),
        "method": result.method,
        "num_buckets": result.num_buckets,
    }


def sort_response(req_id, sorted_keys, sorted_values) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "keys": array_to_json(sorted_keys),
        "values": array_to_json(sorted_values),
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
