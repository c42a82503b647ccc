"""Reduced-bit LSB radix sort on the result-only multisplit engines.

The paper's headline application (Section 3.4) is a radix sort built by
*iterating multisplit*: each pass is a stable multisplit into
``2^digit_bits`` identity buckets of the current digit, and when only
``bits = ceil(log2 m)`` key bits participate the whole sort collapses
to ``ceil(bits / digit_bits)`` passes — one pass for any bucket count
the multisplit evaluation uses. :func:`repro.sort.radix.radix_sort`
models exactly that structure on the emulated SIMT device; this module
*runs* it: every pass, on every engine, is one call of the result-only
engines' {local, global, local} core
(:func:`~repro.engine.stream.run_core`), so three engine generations of
split speed (one shard, cache-sized shards over worker threads, the
out-of-core stream) become end-to-end sort speed.

One call is one loop of ``ceil(bits / digit_bits)`` stable multisplits
by :class:`DigitBuckets`, each reading the buffers the previous pass
wrote and writing the other buffer of a ping-pong pair (the core never
scatters in place). :class:`DigitBuckets` reads the digit of the key's
order-preserving unsigned image (the sign bit flipped for signed
dtypes), so keys of every integer dtype are sorted as they are, with
no work copy, and the output keeps their dtype. The engine decides
only four things: the chunk budget (the whole array, or
``chunk_bytes`` on stream), the shards per chunk (one on fast,
cache-sized otherwise), the worker threads (one on fast, at most the
pass's shards otherwise), and where the ping-pong pair lives (the
``sort.ping``/``sort.pong`` arenas of a :class:`~repro.engine.Workspace`
in memory; two lazily allocated, never pooled
:func:`~repro.engine.stream_buffer` pairs on stream, which turn into
unlinked temp-file memmaps past ``MEMMAP_OUT_THRESHOLD``).

``bits=None`` (default) infers the participating bit count from the
image of the largest key — the reduced-bit trick applied automatically:
keys known to be small sort in a single pass. Because every pass is a
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
from repro.engine.stream import (_ChunkSource, _cache_shards, _chunk_budget,
                                 _resolve_workers, run_core, stream_buffer)
from repro.engine.workspace import Workspace, out_buffer
from repro.multisplit.bucketing import BucketSpec
from repro.obs import get_registry

__all__ = ["fast_radix_sort", "DigitBuckets", "DEFAULT_SORT_DIGIT_BITS"]

# 8-bit digits: 256 buckets per pass keeps the engines' narrowed bucket
# ids uint8 (the fastest stable-argsort width) and matches the paper's
# radix-sort baseline configuration
DEFAULT_SORT_DIGIT_BITS = 8

_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class DigitBuckets(BucketSpec):
    """Identity buckets of one radix digit: ``(key >> shift) & (2^width - 1)``
    of the key's order-preserving unsigned image.

    The pass primitive of Section 3.4 — ``2^width`` buckets whose id *is*
    the digit, evaluated elementwise so the sharded engine can label
    shards in parallel. The image of an unsigned key is the key; a
    signed key's image has its sign bit flipped, so the digit holding
    that bit is flipped there and every other digit is the raw one.
    """

    elementwise = True

    def __init__(self, shift: int, width: int):
        super().__init__(1 << int(width), instruction_cost=2)
        self.shift = int(shift)
        self.width = int(width)

    def ids(self, keys: np.ndarray) -> np.ndarray:
        signed = keys.dtype.kind == "i"
        if signed:
            keys = keys.view(_UNSIGNED[keys.dtype.itemsize])
        mask = keys.dtype.type((1 << self.width) - 1)
        if self.shift:
            keys = keys >> keys.dtype.type(self.shift)
        digit = (keys & mask).astype(np.uint32, copy=False)
        sign = keys.dtype.itemsize * 8 - 1 - self.shift  # in the digit
        if signed and 0 <= sign < self.width:
            digit ^= np.uint32(1 << sign)
        return digit

    def __repr__(self) -> str:
        return f"DigitBuckets(shift={self.shift}, width={self.width})"


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
        Participating key bits, counted from the LSB of the key's
        order-preserving unsigned image. ``None`` (default) infers
        ``ceil(log2(max_image + 1))`` from the data — the reduced-bit trick of Section 3.4: keys bounded
        by ``2^digit_bits`` sort in a single multisplit pass. An
        explicit ``bits`` sorts by the low ``bits`` bits only (exactly
        like :func:`repro.sort.radix.radix_sort`) and therefore
        requires an unsigned dtype.
    digit_bits:
        Bits per pass (1-16; default 8 = 256 buckets per pass).
    engine:
        ``"fast"``, ``"sharded"``, ``"stream"`` (each pass streams
        chunks of ``chunk_bytes`` between memmap-eligible ping-pong
        buffers — peak anonymous memory stays ``O(chunk + m * shards)``
        for any ``n`` and key dtype), or ``"auto"`` (default — the multisplit API's
        dispatch, applied per sort: memmap keys and in-memory arrays
        past ``STREAM_AUTO_MIN_BYTES`` stream, inputs from
        ``SHARDED_AUTO_MIN_N`` keys shard at any ``digit_bits`` and
        worker count).
    max_workers / chunk_bytes:
        Forwarded to every pass and checked by the multisplit API's
        engine resolver: ``max_workers`` needs any engine but
        ``"fast"``, ``chunk_bytes`` ``"stream"`` or ``"auto"`` (where it
        selects stream); ``chunk_bytes < 1`` raises. Never affect
        results.
    workspace:
        Optional :class:`~repro.engine.Workspace`. The sort carves two
        child arenas (``sort.ping`` / ``sort.pong``) for the ping-pong
        buffer pair (one ``sort.stream`` arena for stream-pass chunk
        scratch), so repeated sorts reuse all scratch. The usual
        ownership contract applies: with a pooling workspace the
        returned arrays may be views that the next call on the same
        workspace overwrites. Stream results are never pooled.
    """

    if np.ndim(keys) != 1:  # before coercion, which makes 0-D keys 1-D
        raise ValueError(f"keys must be 1-D, got shape {np.shape(keys)}")
    # ascontiguousarray would strip the np.memmap subclass; only coerce
    # when needed so the engine resolver below still sees memmaps
    if not (isinstance(keys, np.ndarray) and keys.flags.c_contiguous):
        keys = np.ascontiguousarray(keys)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(
            f"fast_radix_sort requires integer keys, got dtype {keys.dtype}; "
            "map floats through an order-preserving encoding first "
            "(see repro.multisplit.keys.encode_keys)")
    if values is not None:
        if np.shape(values) != keys.shape:
            raise ValueError(
                f"values shape {np.shape(values)} must match keys shape "
                f"{keys.shape}")
        if not (isinstance(values, np.ndarray) and values.flags.c_contiguous):
            values = np.ascontiguousarray(values)
    if not 1 <= digit_bits <= 16:
        raise ValueError(f"digit_bits must be in [1, 16], got {digit_bits}")
    width = keys.dtype.itemsize * 8
    signed = np.issubdtype(keys.dtype, np.signedinteger)
    if bits is not None:
        if signed:
            raise ValueError(
                "explicit bits= addresses raw key bits and is only defined "
                "for unsigned dtypes; signed keys are sign-bit-encoded — "
                "leave bits=None to sort them on their full width")
        if not 1 <= bits <= width:
            raise ValueError(
                f"bits must be in [1, {width}] for {keys.dtype} keys, got {bits}")

    # reduced-bit multisplit is the thematic pass method but its
    # key-value packing constraint limits it to 32-bit keys; "direct"
    # carries 64-bit pairs with the identical stable permutation
    method = "reduced_bit" if width <= 32 else "direct"
    from repro.multisplit.api import _RESULT_ONLY, _resolve_engine
    eng = _resolve_engine(engine, keys, method, engines=_RESULT_ONLY,
                          max_workers=max_workers, chunk_bytes=chunk_bytes)
    budget = (_chunk_budget(chunk_bytes) if eng == "stream"
              else max(keys.nbytes, 1))
    n = keys.size
    if n == 0:
        return keys.copy(), (values.copy() if values is not None else None)

    if bits is None:  # the bit length of the largest key's image
        top = int(keys.max()) + (1 << (width - 1) if signed else 0)
        bits = max(1, top.bit_length())
    passes = -(-bits // digit_bits)
    reg = get_registry()
    reg.inc("sort.fast.calls", 1, kind="radix", engine=eng)
    if reg.enabled:
        reg.inc("sort.fast.keys", n, kind="radix")
        reg.inc("sort.fast.passes", passes, kind="radix")

    ws = workspace if workspace is not None else Workspace()
    if eng == "stream":
        arenas = (ws.subarena("sort.stream"),) * 2
    else:
        arenas = (ws.subarena("sort.ping"), ws.subarena("sort.pong"))
    # stream's ping-pong outputs, allocated on first use and never
    # pooled: a single-pass sort (the reduced-bit sweet spot) only ever
    # touches one pair
    pairs: list = [None, None]
    step = max(1, budget // keys.dtype.itemsize)  # keys per chunk
    bk = resolve_backend()
    cur_keys, cur_vals = keys, values
    with reg.timer("sort.fast.run_ms", kind="radix", engine=eng,
                   kv=values is not None).time():
        for p in range(passes):
            shift = p * digit_bits
            spec = DigitBuckets(shift, min(digit_bits, bits - shift))
            m, arena = spec.num_buckets, arenas[p & 1]
            if eng == "stream":
                if pairs[p & 1] is None:
                    pairs[p & 1] = (stream_buffer(n, keys.dtype), None
                                    if values is None else
                                    stream_buffer(n, values.dtype))
                out_k, out_v = pairs[p & 1]
            else:
                out_k = out_buffer(arena, "keys", n, keys.dtype)
                out_v = (None if values is None else
                         out_buffer(arena, "values", n, values.dtype))
            if eng == "fast":
                shards_for, workers = (lambda _: 1), 1
            else:
                def shards_for(n_c, m=m):
                    return _cache_shards(n_c, m)
                shards = (n // step) * shards_for(step) + shards_for(n % step)
                workers = min(_resolve_workers(max_workers), shards)
            with reg.timer("sort.fast.pass_ms", kind="radix").time():
                res = run_core(eng, _ChunkSource(cur_keys, cur_vals, budget),
                               m, method, arena, workers, bk, shards_for,
                               out_k, out_v, spec=spec, ids_budget=budget)
            cur_keys, cur_vals = res.keys, res.values
    return cur_keys, cur_vals
