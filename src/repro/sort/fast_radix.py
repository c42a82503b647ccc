"""Reduced-bit LSB radix sort on the result-only multisplit engines.

The paper's headline application (Section 3.4) is a radix sort built by
*iterating multisplit*: each pass is a stable multisplit into
``2^digit_bits`` identity buckets of the current digit, and when only
``bits = ceil(log2 m)`` key bits participate the whole sort collapses
to ``ceil(bits / digit_bits)`` passes — one pass for any bucket count
the multisplit evaluation uses. :func:`repro.sort.radix.radix_sort`
models exactly that structure on the emulated SIMT device; this module
*runs* it, looping the fast engine's one-shard core
(:func:`~repro.engine.stream.run_core`) /
:func:`~repro.engine.sharded_multisplit` as the pass kernel so three
engine generations of split speed (fused kernels, the sharded
{local, global, local} decomposition, the out-of-core stream engine)
become end-to-end sort speed.

Structure of one call:

1. **encode** — keys are mapped to an unsigned, order-preserving work
   array (signed dtypes get their sign bit flipped; sub-32-bit dtypes
   are widened), so every pass is a plain digit extraction;
2. **passes** — ``ceil(bits / digit_bits)`` stable multisplits by
   :class:`DigitBuckets`, ping-ponging between two key/value buffer
   pairs pooled as child arenas of one :class:`~repro.engine.Workspace`
   (pass ``p`` reads the buffers pass ``p - 1`` wrote, so the engines
   never scatter in place);
3. **decode** — the sorted work array is mapped back to the input
   dtype.

``bits=None`` (default) infers the participating bit count from the
maximum encoded key — the reduced-bit trick applied automatically: keys
known to be small sort in a single pass. Because every pass is a
*stable* multisplit, the result is bit-identical to
:func:`repro.sort.reference.stable_sort_pairs` on the participating
bits (``tests/sort/test_fast_radix.py`` fuzzes this across dtypes,
bit widths, digit widths, and engines).

Timers and counters land in the ``sort.fast.*`` observability series
(see ``docs/OBSERVABILITY.md``); ``docs/SORT.md`` has the full guide.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import resolve_backend
from repro.engine.stream import run_in_memory
from repro.multisplit.bucketing import BucketSpec
from repro.obs import get_registry

__all__ = ["fast_radix_sort", "DigitBuckets", "DEFAULT_SORT_DIGIT_BITS"]

# 8-bit digits: 256 buckets per pass keeps the engines' narrowed bucket
# ids uint8 (the fastest stable-argsort width) and matches the paper's
# radix-sort baseline configuration
DEFAULT_SORT_DIGIT_BITS = 8

_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class DigitBuckets(BucketSpec):
    """Identity buckets of one radix digit: ``(key >> shift) & (2^width - 1)``.

    The pass primitive of Section 3.4 — ``2^width`` buckets whose id *is*
    the digit, evaluated elementwise so the sharded engine can label
    shards in parallel.
    """

    elementwise = True

    def __init__(self, shift: int, width: int):
        super().__init__(1 << int(width), instruction_cost=2)
        self.shift = int(shift)
        self.width = int(width)

    def ids(self, keys: np.ndarray) -> np.ndarray:
        mask = keys.dtype.type((1 << self.width) - 1)
        if self.shift:
            keys = keys >> keys.dtype.type(self.shift)
        return (keys & mask).astype(np.uint32, copy=False)

    def __repr__(self) -> str:
        return f"DigitBuckets(shift={self.shift}, width={self.width})"


def _encode_keys(keys: np.ndarray) -> np.ndarray:
    """Order-preserving unsigned (uint32/uint64) view of integer keys."""
    dt = keys.dtype
    signed = np.issubdtype(dt, np.signedinteger)
    work = keys.view(_UNSIGNED[dt.itemsize]) if signed else keys
    if signed:
        work = work ^ work.dtype.type(1 << (dt.itemsize * 8 - 1))
    if dt.itemsize < 4:
        work = work.astype(np.uint32)
    return work


def _decode_keys(work: np.ndarray, dt: np.dtype) -> np.ndarray:
    """Invert :func:`_encode_keys` on the sorted work array."""
    if dt.itemsize < 4:
        work = work.astype(_UNSIGNED[dt.itemsize])
    if np.issubdtype(dt, np.signedinteger):
        work = (work ^ work.dtype.type(1 << (dt.itemsize * 8 - 1))).view(dt)
    return work


def _split_pass(work, spec, vals, method: str, eng: str, arena,
                max_workers):
    """One stable multisplit pass through the selected result-only
    engine; on ``fast``, the core at one shard over the sort's own
    checked buffers."""
    if eng == "sharded":
        from repro.engine import sharded_multisplit
        return sharded_multisplit(work, spec, values=vals, method=method,
                                  workspace=arena, max_workers=max_workers)
    return run_in_memory("fast", work, vals, spec, method, arena, 1,
                         resolve_backend(), 1)


def _chunk_factory(arr: np.ndarray, chunk_keys: int, encode: bool):
    """Zero-argument chunk source over ``arr`` for the stream engine:
    plain zero-copy slices, or slices run through :func:`_encode_keys`
    chunk-wise (so signed / narrow dtypes never encode the whole
    array)."""
    def chunks():
        for lo in range(0, arr.size, chunk_keys):
            sl = arr[lo:lo + chunk_keys]
            yield _encode_keys(sl) if encode else sl
    return chunks


def _stream_radix(keys, values, bits, digit_bits: int, method: str,
                  workspace, max_workers, chunk_bytes, reg):
    """The pass loop on the stream engine: out-of-core LSB radix sort.

    Every pass streams the previous pass's output through
    :func:`~repro.engine.stream_multisplit` into the other buffer of a
    lazily-allocated ping-pong pair of :func:`~repro.engine.stream_buffer`
    outputs, so the whole sort inherits the stream engine's
    ``O(chunk + m * shards)`` peak anonymous memory for any ``n``
    (buffers past ``MEMMAP_OUT_THRESHOLD`` live in unlinked temp-file
    memmaps). The order-preserving key encoding and its inverse are
    applied chunk-wise — the input array is never encoded whole.
    """
    from repro.engine import Workspace
    from repro.engine.stream import (DEFAULT_CHUNK_BYTES, stream_buffer,
                                     stream_multisplit)

    n = keys.size
    dt = keys.dtype
    work_dtype = np.dtype(_UNSIGNED[max(dt.itemsize, 4)])
    identity = dt == work_dtype  # unsigned >= 32-bit: encode is a no-op
    cb = int(chunk_bytes) if chunk_bytes is not None else DEFAULT_CHUNK_BYTES
    chunk_keys = max(1, cb // work_dtype.itemsize)
    if bits is None:
        mx = 0
        for lo in range(0, n, chunk_keys):
            mx = max(mx, int(_encode_keys(keys[lo:lo + chunk_keys]).max()))
        bits = max(1, mx.bit_length())
    passes = -(-bits // digit_bits)

    reg.inc("sort.fast.calls", 1, kind="radix", engine="stream")
    if reg.enabled:
        reg.inc("sort.fast.keys", n, kind="radix")
        reg.inc("sort.fast.passes", passes, kind="radix")

    ws = workspace if workspace is not None else Workspace()
    arena = ws.subarena("sort.stream")
    # lazily-allocated ping-pong output pairs: a single-pass sort (the
    # reduced-bit sweet spot) only ever touches one pair
    buf_keys: list = [None, None]
    buf_vals: list = [None, None]
    cur_keys, cur_vals = None, None
    with reg.timer("sort.fast.run_ms", kind="radix", engine="stream",
                   kv=values is not None).time():
        for p in range(passes):
            shift = p * digit_bits
            spec = DigitBuckets(shift, min(digit_bits, bits - shift))
            slot = p & 1
            if buf_keys[slot] is None:
                buf_keys[slot] = stream_buffer(n, work_dtype)
                if values is not None:
                    buf_vals[slot] = stream_buffer(n, values.dtype)
            if p == 0:
                # a chunked-callable source keeps pass 0's encode
                # chunk-wise; values ride along as a matching callable
                src = keys if identity else _chunk_factory(
                    keys, chunk_keys, encode=True)
                vsrc = values if (identity or values is None) else \
                    _chunk_factory(values, chunk_keys, encode=False)
            else:
                src, vsrc = cur_keys, cur_vals
            with reg.timer("sort.fast.pass_ms", kind="radix").time():
                res = stream_multisplit(
                    src, spec, values=vsrc, method=method, workspace=arena,
                    chunk_bytes=chunk_bytes, max_workers=max_workers,
                    out=buf_keys[slot],
                    out_values=buf_vals[slot])
            cur_keys, cur_vals = res.keys, res.values
    if identity:
        return cur_keys, cur_vals
    dec = stream_buffer(n, dt)
    for lo in range(0, n, chunk_keys):
        hi = min(lo + chunk_keys, n)
        dec[lo:hi] = _decode_keys(np.asarray(cur_keys[lo:hi]), dt)
    return dec, cur_vals


def fast_radix_sort(keys: np.ndarray, values: np.ndarray | None = None, *,
                    bits: int | None = None,
                    digit_bits: int = DEFAULT_SORT_DIGIT_BITS,
                    engine: str = "auto", max_workers: int | None = None,
                    chunk_bytes: int | None = None, workspace=None):
    """Stable LSB radix sort of ``keys`` (and ``values``), multisplit-powered.

    Bit-identical to :func:`~repro.sort.reference.stable_sort_pairs`
    over the participating bits; returns ``(sorted_keys,
    sorted_values)`` with ``None`` values passing through.

    Parameters
    ----------
    keys:
        1-D array of any numpy integer dtype (an ``np.memmap`` streams
        out-of-core under ``engine="stream"``/``"auto"``). Signed keys
        are handled by an order-preserving sign-bit flip.
    values:
        Optional same-shape array moved alongside the keys.
    bits:
        Participating key bits, counted from the LSB of the (encoded)
        key. ``None`` (default) infers ``ceil(log2(max_key + 1))`` from
        the data — the reduced-bit trick of Section 3.4: keys bounded
        by ``2^digit_bits`` sort in a single multisplit pass. An
        explicit ``bits`` sorts by the low ``bits`` bits only (exactly
        like :func:`repro.sort.radix.radix_sort`) and therefore
        requires an unsigned dtype.
    digit_bits:
        Bits per pass (1-16; default 8 = 256 buckets per pass).
    engine:
        ``"fast"``, ``"sharded"``, ``"stream"`` (each pass runs the
        out-of-core streamed engine between memmap-eligible ping-pong
        buffers — peak anonymous memory stays ``O(chunk + m * shards)``
        for any ``n``), or ``"auto"`` (default — the multisplit API's
        dispatch, applied per sort: memmap keys and in-memory arrays
        past ``STREAM_AUTO_MIN_BYTES`` stream, inputs from
        ``SHARDED_AUTO_MIN_N`` keys shard at any ``digit_bits`` and
        worker count).
    max_workers / chunk_bytes:
        Forwarded to every pass and checked by the multisplit API's
        engine resolver: ``max_workers`` needs any engine but
        ``"fast"``, ``chunk_bytes`` ``"stream"`` or ``"auto"`` (where it
        selects stream). Never affect results.
    workspace:
        Optional :class:`~repro.engine.Workspace`. The sort carves two
        child arenas (``sort.ping`` / ``sort.pong``) for the ping-pong
        buffer pair (one ``sort.stream`` arena for stream-pass chunk
        scratch), so repeated sorts reuse all scratch. The usual
        ownership contract applies: with a pooling workspace the
        returned arrays may be views that the next call on the same
        workspace overwrites. Stream results are never pooled.
    """
    # ascontiguousarray would strip the np.memmap subclass (and copy
    # read-only contiguous arrays' flags decide nothing — it is already
    # zero-copy for them); only coerce when actually needed so the
    # engine dispatch below still sees memmaps
    if not (isinstance(keys, np.ndarray) and keys.flags.c_contiguous):
        keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(
            f"fast_radix_sort requires integer keys, got dtype {keys.dtype}; "
            "map floats through an order-preserving encoding first "
            "(see repro.multisplit.keys.encode_keys)")
    if values is not None:
        if not (isinstance(values, np.ndarray) and values.flags.c_contiguous):
            values = np.ascontiguousarray(values)
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}")
    if not 1 <= digit_bits <= 16:
        raise ValueError(f"digit_bits must be in [1, 16], got {digit_bits}")
    width = keys.dtype.itemsize * 8
    if bits is not None:
        if np.issubdtype(keys.dtype, np.signedinteger):
            raise ValueError(
                "explicit bits= addresses raw key bits and is only defined "
                "for unsigned dtypes; signed keys are sign-bit-encoded — "
                "leave bits=None to sort them on their full width")
        if not 1 <= bits <= width:
            raise ValueError(
                f"bits must be in [1, {width}] for {keys.dtype} keys, got {bits}")

    n = keys.size
    if n == 0:
        return keys.copy(), (values.copy() if values is not None else None)

    # reduced-bit multisplit is the thematic pass method but its
    # key-value packing constraint limits it to 32-bit keys; "direct"
    # carries 64-bit pairs with the identical stable permutation
    method = "reduced_bit" if max(keys.dtype.itemsize, 4) == 4 else "direct"

    from repro.engine import Workspace
    from repro.multisplit.api import _RESULT_ONLY, _resolve_engine
    eng = _resolve_engine(engine, keys, method, engines=_RESULT_ONLY,
                          max_workers=max_workers, chunk_bytes=chunk_bytes)

    reg = get_registry()
    if eng == "stream":
        return _stream_radix(keys, values, bits, digit_bits, method,
                             workspace, max_workers, chunk_bytes, reg)

    work = _encode_keys(keys)
    if bits is None:
        bits = max(1, int(work.max()).bit_length())
    passes = -(-bits // digit_bits)
    reg.inc("sort.fast.calls", 1, kind="radix", engine=eng)
    if reg.enabled:
        reg.inc("sort.fast.keys", n, kind="radix")
        reg.inc("sort.fast.passes", passes, kind="radix")

    ws = workspace if workspace is not None else Workspace()
    arenas = (ws.subarena("sort.ping"), ws.subarena("sort.pong"))
    cur_keys, cur_vals = work, values
    with reg.timer("sort.fast.run_ms", kind="radix", engine=eng,
                   kv=values is not None).time():
        for p in range(passes):
            shift = p * digit_bits
            spec = DigitBuckets(shift, min(digit_bits, bits - shift))
            with reg.timer("sort.fast.pass_ms", kind="radix").time():
                res = _split_pass(cur_keys, spec, cur_vals, method, eng,
                                  arenas[p & 1], max_workers)
            cur_keys, cur_vals = res.keys, res.values
    return _decode_keys(cur_keys, keys.dtype), cur_vals
