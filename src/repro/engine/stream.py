"""The {local, global, local} core, and the streamed out-of-core engine.

The paper's Section 3 decomposition has three phases: per-shard
histograms, one chunk-major exclusive scan of the ``m x P`` count
matrix (Eq. 1), and per-shard stable counting scatters.
:func:`run_core` is the one implementation of it in this package:

1. **local** — the key source is consumed in *super-shards* ("chunks");
   each chunk is cut into cache-resident shards, and the shards of all
   chunks form one chunk-major sequence that is prescanned with the
   per-shard kernels (:mod:`repro.engine.backends`);
2. **global** — one exclusive scan down the stacked ``(P, m)`` count
   matrix, plus the global bucket starts, gives every shard its
   private base offset into every bucket (Eq. 1), without ever
   materializing an ``n``-sized intermediate;
3. **local** — the source is *replayed* and every shard
   stable-counting-scatters straight into the output at its offsets.

Each pass stripes shards over the worker threads with one map per
window: the whole pass when the chunks are views of one C-contiguous
array (an ndarray or memmap), one chunk at a time when they are
copies (callable and iterator sources, non-contiguous arrays).

Every stable result-only call runs the core. ``engine="stream"``
(:func:`stream_multisplit`) feeds it chunks of ``chunk_bytes``, so peak memory is
``O(chunk + m * P_total)`` regardless of ``n``: one chunk of
keys/values, the shards' bucket ids, and the count matrix. (While the
chunks' ids fit inside the chunk budget they are kept from pass 1 — the
"ids cache" — which skips the second bucket-id evaluation; any other
shard evaluates its ids into shard-sized worker scratch.)
``engine="sharded"`` (:func:`~repro.engine.sharded_multisplit`) is the
core over one in-memory chunk: the whole array; ``engine="fast"`` is
that chunk as one shard on one worker (P = 1), also over a coalesced
window's composite bucket ids. Every one of these entry points opens
with the same :func:`prologue` (spec, method, keys and values, unknown
keyword arguments) and records its call through :func:`record_call`.

Because the offsets are the chunk-major Eq. 1 scan over the shard
sequence, and the within-shard scatter is stable, the concatenation is
*the* unique global stable permutation: outputs are **bit-identical**
to ``engine="fast"`` / ``engine="sharded"`` / ``engine="emulate"`` for
the whole stable method family, for any chunk budget, shard size,
worker count, or backend.

Key sources
-----------
``stream_multisplit`` accepts three kinds of key source:

* an ``np.ndarray`` (including ``np.memmap`` — the intended
  out-of-core input), sliced into chunks of ``chunk_bytes``;
* a zero-argument **callable** returning an iterable of 1-D chunks;
  it is invoked once per pass and must yield the same chunks both
  times (a cheap way to stream a transform without materializing it);
* a one-shot **iterable/iterator** of chunks; pass 1 spools the chunks
  to a temporary file as it consumes them, and pass 2 replays the
  spool as a read-only memmap, so even a non-replayable source keeps
  peak *memory* bounded (it costs ``n`` bytes of *disk*).

Chunked sources require an **elementwise** bucket spec
(:attr:`~repro.multisplit.bucketing.BucketSpec.elementwise`): the
engine evaluates the spec chunk-by-chunk, which is only equal to a
whole-array evaluation for elementwise specs.

Outputs default to fresh arrays, switching to unlinked temporary-file
memmaps at :data:`MEMMAP_OUT_THRESHOLD` so results larger than memory
spill to disk transparently; pass ``out=`` / ``out_values=`` (e.g. your
own ``np.memmap``) to control placement. Stream results are **never**
pooled in a workspace — the workspace only recycles chunk scratch.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.multisplit._common import (as_inputs, check_key_dtype,
                                     packs_in_64_bits, pick_auto)
from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.ids import narrow_ids_dtype
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from repro.simt.config import WARP_WIDTH
from .backends import _LOOP_MIN_RUN, resolve_backend
from .workspace import Workspace, out_buffer

__all__ = [
    "stream_multisplit",
    "stream_buffer",
    "DEFAULT_CHUNK_BYTES",
    "STREAM_AUTO_MIN_BYTES",
    "MEMMAP_OUT_THRESHOLD",
]

# Default shard size, from the bucket count m: 4 x DEFAULT_SHARD_KEYS
# (128K keys) while a shard that size keeps its mean run on the
# slice-copy path of NumpyBackend.scatter at 4 x _LOOP_MIN_RUN or more
# (128K / m >= 2048, i.e. m <= 64); DEFAULT_SHARD_KEYS (32K) otherwise,
# where the runs are short and take the computed-destination store.
# Every shard's slice copies hold the GIL, so fewer, longer shards let
# two workers overlap. On a uniform split the default shards' mean run
# is thus >= 2048 or < 512, never in the band between, where the two
# write paths are close. Measured basis: 2-vCPU host,
# sharded_multisplit, 2^25 uint32 kv, RangeBuckets(m), two workers,
# whole call in ms at 32K / 64K / 128K shards, medians of 4-6
# alternated runs:
#   m = 16:   412 / -   / 316
#   m = 32:   449 / -   / 341
#   m = 64:   677 / 505 / 447
#   m = 128:  505 / 613 / 539
#   m = 256:  565 / -   / 701 (a second sweep: 444 / - / 561)
#   m = 1024: 602 / 616 / 647
# At m = 256 a 128K shard's mean run is exactly _LOOP_MIN_RUN; moved
# onto the computed store it still read 476 ms against 433 ms at 32K.
DEFAULT_SHARD_KEYS = 1 << 15
_DEFAULT_MAX_WORKERS = 4
# Default super-shard budget: 16 MiB of keys per chunk (4M uint32 keys
# -> 32-128 shards) keeps the working set far below any realistic RAM
# while leaving each chunk enough shards to occupy the worker pool; the
# bench sweep in benchmarks/bench_stream.py shows throughput is flat
# within ~10% from 8 MiB to 64 MiB.
DEFAULT_CHUNK_BYTES = 16 << 20
# engine="auto" switches to "stream" when an in-memory ndarray's keys
# alone exceed this budget (memmap and chunked sources stream
# regardless of size) — large enough that the in-core tiers keep every
# input they are faster on, small enough that "auto" never doubles a
# multi-hundred-MB dataset in RAM just to route it.
STREAM_AUTO_MIN_BYTES = 256 << 20
# Outputs at/above this size are backed by unlinked temp-file memmaps
# instead of np.empty, so the result of an out-of-core run does not
# itself blow the memory budget.
MEMMAP_OUT_THRESHOLD = 128 << 20
# Override where spools/outputs land (defaults to tempfile's choice).
_TMPDIR_ENV = "REPRO_STREAM_TMPDIR"

# run_core's methods: each is a stable multisplit, whose permutation is unique
STABLE_METHODS = frozenset({
    "direct", "warp", "block", "sparse_block",
    "scan_split", "recursive_split", "reduced_bit",
})
# The emulated methods' keyword arguments besides keys, spec, values and
# workspace: the launch shape, which no result-only engine needs, and
# the knobs the fast engine's radix_sort (bits) and randomized
# (relaxation, seed, warps_per_block) honor. Any other name raises.
METHOD_KWARGS = frozenset({"warps_per_block", "items_per_lane", "device",
                           "bits", "relaxation", "seed"})
# Methods whose emulation tiles the input to full warps and therefore
# requires 32/64-bit keys; mirrored so the contract is engine-invariant.
_PADDED_METHODS = frozenset({"direct", "warp", "block", "sparse_block"})


def check_method(method: str, m: int, key_dtype, value_dtype) -> None:
    """The result-only engines' method constraints (engine-invariant),
    and their key dtype check, which a chunked source meets at its first
    chunk; ``value_dtype`` is ``None`` without values."""
    check_key_dtype(key_dtype)
    if method in _PADDED_METHODS and key_dtype.itemsize not in (4, 8):
        raise ValueError(f"keys must be 32- or 64-bit, got dtype {key_dtype}")
    if method == "warp" and m > WARP_WIDTH:
        raise ValueError(
            f"warp-level MS supports m <= {WARP_WIDTH} buckets (got {m}); "
            "use method='block' or 'reduced_bit'")
    if method == "scan_split" and m != 2:
        raise ValueError(
            f"scan-based split handles exactly 2 buckets, got {m}; "
            "use method='recursive_split' for more")
    if (method == "reduced_bit" and value_dtype is not None
            and not packs_in_64_bits(key_dtype, value_dtype)):
        raise ValueError(
            "reduced-bit key-value multisplit packs (key, value) into 64 bits "
            "and therefore requires 32-bit keys and values of at most 32 "
            "bits; use direct/warp/block/sparse_block for wider pairs")


def prologue(name: str, keys, values, spec_or_fn, num_buckets, method,
             kwargs: dict, *, methods=STABLE_METHODS, strict: bool = False,
             source: bool = False):
    """The call prologue of every result-only entry point (``name``
    labels its errors).

    Rejects any name in ``kwargs`` that no emulated method takes
    (:data:`METHOD_KWARGS`) with :class:`TypeError`, coerces the spec,
    runs the ``strict`` battery on a key sample, resolves ``method``
    (``"auto"`` by bucket count) and checks it against ``methods``, then
    checks and coerces the keys and values — unless they are a stream
    call's ``source``, which :class:`_ChunkSource` checks chunk by
    chunk. Returns ``(spec, method, keys, values)``.
    """
    if kwargs and not kwargs.keys() <= METHOD_KWARGS:
        unknown = sorted(kwargs.keys() - METHOD_KWARGS)
        raise TypeError(f"{name}() got unexpected keyword argument(s) "
                        f"{', '.join(map(repr, unknown))}")
    spec = as_bucket_spec(spec_or_fn, num_buckets)
    if strict:
        if _is_chunked_source(keys):
            raise ValueError(
                "strict=True needs to sample the keys, but chunked sources "
                "are one-shot; materialize the keys (ndarray/memmap) or "
                "drop strict=")
        from repro.multisplit.validate import validate_spec
        validate_spec(spec, np.asarray(keys))
    method = getattr(method, "value", method)
    if method == "auto":
        method = pick_auto(spec.num_buckets, keys, values)
    if method not in methods:
        family = ("the stable method family" if methods is STABLE_METHODS
                  else "the methods")
        raise ValueError(f"{name} handles {family} "
                         f"({', '.join(sorted(methods))}); got {method!r}")
    if not source:
        keys, values = as_inputs(keys, values)
        check_method(method, spec.num_buckets, keys.dtype,
                     None if values is None else values.dtype)
    return spec, method, keys, values


def record_call(engine: str, method: str, kv: bool, workers: int, run):
    """Run one result-only call, ``run()``, under its call record:
    ``engine.<engine>.calls`` and ``engine.<engine>.run_ms`` always, and
    while metrics are on its ``keys``/``buckets`` counters and
    ``workers`` gauge."""
    reg = get_registry()
    reg.inc(f"engine.{engine}.calls", 1, method=method)
    with reg.timer(f"engine.{engine}.run_ms", method=method, kv=kv).time():
        res = run()
    if reg.enabled:
        reg.inc(f"engine.{engine}.keys", res.keys.size, method=method)
        reg.inc(f"engine.{engine}.buckets", res.num_buckets, method=method)
        reg.set_gauge(f"engine.{engine}.workers", workers, method=method)
    return res


def _mkstemp(suffix: str) -> tuple[int, str]:
    return tempfile.mkstemp(prefix="repro-stream-", suffix=suffix,
                            dir=os.environ.get(_TMPDIR_ENV))


def stream_buffer(size: int, dtype,
                  threshold: int = MEMMAP_OUT_THRESHOLD) -> np.ndarray:
    """An output buffer for streamed results: RAM below ``threshold``
    bytes, an unlinked temporary-file ``np.memmap`` at/above it.

    The backing file is unlinked immediately, so the mapping lives
    exactly as long as the returned array (no cleanup to manage) and
    file-backed pages never count against an anonymous-memory rlimit.
    """
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    if size == 0 or nbytes < threshold:
        return np.empty(size, dtype=dtype)
    fd, path = _mkstemp(".out")
    try:
        os.ftruncate(fd, nbytes)
        buf = np.memmap(path, dtype=dtype, mode="r+", shape=(size,))
    finally:
        os.close(fd)
        os.unlink(path)
    return buf


# ---------------------------------------------------------------------------
# chunk sources
# ---------------------------------------------------------------------------

class _Spool:
    """Disk spool for one-shot iterators: written during pass 1,
    replayed as a read-only memmap during pass 2, unlinked on close."""

    def __init__(self, tag: str):
        fd, self.path = _mkstemp(f".{tag}.spool")
        self.file = os.fdopen(fd, "wb")
        self.nbytes = 0

    def append(self, arr: np.ndarray) -> None:
        self.file.write(arr.data)
        self.nbytes += arr.nbytes

    def finish(self, dtype) -> np.ndarray:
        self.file.flush()
        self.file.close()
        try:
            if self.nbytes == 0:
                return np.empty(0, dtype=dtype)
            return np.memmap(self.path, dtype=dtype, mode="r")
        finally:
            os.unlink(self.path)
            self.path = None

    def abort(self) -> None:
        if self.path is not None:
            self.file.close()
            os.unlink(self.path)
            self.path = None


def _is_chunked_source(obj) -> bool:
    """Whether ``obj`` is a chunked key source (callable factory or an
    iterable of chunks) rather than a single in-memory/memmap array."""
    if isinstance(obj, np.ndarray):
        return False
    if callable(obj) or hasattr(obj, "__next__"):
        return True
    # non-array iterables (generators, lists of chunks) stream; scalars
    # and 1-D array-likes (lists, ranges, array.array of numbers) do not
    # — probe a sized, indexable source's first element without
    # consuming anything
    if hasattr(obj, "__len__") and hasattr(obj, "__getitem__"):
        return len(obj) > 0 and isinstance(obj[0], np.ndarray)
    return hasattr(obj, "__iter__")


class _ChunkSource:
    """Normalizes the three source kinds behind one two-pass protocol.

    ``passes()`` may be called at most twice; each call yields
    contiguous ``(key_chunk, value_chunk_or_None)`` pairs. Pass 2 is
    validated chunk-by-chunk against pass 1's recorded lengths and
    dtypes, so a callable source that does not replay identically fails
    loudly instead of corrupting the scatter. ``check(key_dtype,
    value_dtype)`` vets the dtypes once they are known (``value_dtype``
    is ``None`` without values).
    """

    def __init__(self, keys, values, chunk_bytes: int, check=None):
        # array-likes of scalars (plain lists, generators are NOT this)
        # behave like the other engines' inputs: one in-memory array
        if not (isinstance(keys, np.ndarray) or _is_chunked_source(keys)):
            keys = np.asarray(keys)
        if values is not None and not (isinstance(values, np.ndarray)
                                       or _is_chunked_source(values)):
            values = np.asarray(values)
        self.kv = values is not None
        self.chunk_bytes = chunk_bytes
        self.check = check
        self.lens: list[int] = []
        self.key_dtype = None
        self.value_dtype = None
        self.pass_no = 0
        self.spooled = False
        self.views = False  # every chunk a view: holding all costs nothing
        if isinstance(keys, np.ndarray):
            if keys.ndim != 1:
                raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
            if self.kv and not isinstance(values, np.ndarray):
                values = np.asarray(values)
            if self.kv and values.shape != keys.shape:
                raise ValueError(
                    f"values shape {values.shape} must match keys shape "
                    f"{keys.shape}")
            self.kind = "array"
            self.views = keys.flags.c_contiguous and (
                not self.kv or values.flags.c_contiguous)
            self.key_dtype = keys.dtype
            self.value_dtype = values.dtype if self.kv else None
            if check is not None:
                check(self.key_dtype, self.value_dtype)
        elif callable(keys):
            if self.kv and not callable(values):
                raise TypeError(
                    "a callable key source needs a callable values source "
                    "(both are re-invoked for the scatter pass)")
            self.kind = "callable"
        elif hasattr(keys, "__iter__"):
            if self.kv and (isinstance(values, np.ndarray)
                            or not hasattr(values, "__iter__")):
                raise TypeError(
                    "an iterable key source needs an iterable values source "
                    "yielding chunks of matching lengths")
            self.kind = "iterator"
            self.spooled = True
        else:
            raise TypeError(
                f"keys must be an ndarray, a callable returning chunks, or "
                f"an iterable of chunks; got {type(keys).__name__}")
        self.keys = keys
        self.values = values

    def _array_chunks(self):
        """An array's chunks on either pass: a list of views, or (for a
        non-contiguous array) contiguous copies made one at a time."""
        keys, values, kv = self.keys, self.values, self.kv
        step = max(1, self.chunk_bytes // max(keys.dtype.itemsize, 1))
        bounds = range(0, keys.size, step)
        self.lens = [min(step, keys.size - lo) for lo in bounds]
        if self.views:
            return [(keys[lo:lo + step], values[lo:lo + step] if kv else None)
                    for lo in bounds]
        return ((np.ascontiguousarray(keys[lo:lo + step]),
                 np.ascontiguousarray(values[lo:lo + step]) if kv else None)
                for lo in bounds)

    def _raw_chunks(self):
        if self.kind == "callable":
            kit = iter(self.keys())
            vit = iter(self.values()) if self.kv else None
        else:
            kit = iter(self.keys)
            vit = iter(self.values) if self.kv else None
        for kchunk in kit:
            vchunk = None
            if vit is not None:
                try:
                    vchunk = next(vit)
                except StopIteration:
                    raise ValueError(
                        "values source ran out of chunks before the keys "
                        "source") from None
            yield kchunk, vchunk
        if vit is not None:
            try:
                next(vit)
            except StopIteration:
                pass
            else:
                raise ValueError(
                    "values source yielded more chunks than the keys source")

    def _check_chunk(self, c: int, kchunk, vchunk):
        kchunk = np.asarray(kchunk)
        if kchunk.ndim != 1:
            raise ValueError(
                f"chunk {c}: key chunks must be 1-D, got shape {kchunk.shape}")
        first = self.key_dtype is None
        if first:
            self.key_dtype = kchunk.dtype
        elif kchunk.dtype != self.key_dtype:
            raise ValueError(
                f"chunk {c}: key dtype {kchunk.dtype} does not match the "
                f"first chunk's dtype {self.key_dtype} — a chunked source "
                "must yield one consistent dtype")
        if self.kv:
            vchunk = np.asarray(vchunk)
            if vchunk.shape != kchunk.shape:
                raise ValueError(
                    f"chunk {c}: values chunk shape {vchunk.shape} must "
                    f"match keys chunk shape {kchunk.shape}")
            if self.value_dtype is None:
                self.value_dtype = vchunk.dtype
            elif vchunk.dtype != self.value_dtype:
                raise ValueError(
                    f"chunk {c}: values dtype {vchunk.dtype} does not match "
                    f"the first chunk's dtype {self.value_dtype}")
        if first and self.check is not None:
            self.check(self.key_dtype, self.value_dtype)
        return kchunk, vchunk

    def passes(self):
        self.pass_no += 1
        if self.kind == "array":
            return self._array_chunks()
        if self.pass_no == 1:
            return self._first_pass()
        if self.pass_no == 2:
            return self._second_pass()
        raise RuntimeError(  # pragma: no cover - internal misuse
            "a _ChunkSource supports exactly two passes")

    def _first_pass(self):
        spool_k = spool_v = None
        if self.spooled:
            spool_k = _Spool("keys")
            spool_v = _Spool("values") if self.kv else None
        try:
            for c, (kchunk, vchunk) in enumerate(self._raw_chunks()):
                kchunk, vchunk = self._check_chunk(c, kchunk, vchunk)
                kchunk = np.ascontiguousarray(kchunk)
                if self.kv:
                    vchunk = np.ascontiguousarray(vchunk)
                self.lens.append(kchunk.size)
                if spool_k is not None and kchunk.size:
                    spool_k.append(kchunk)
                    if spool_v is not None:
                        spool_v.append(vchunk)
                yield kchunk, vchunk
            if self.key_dtype is None:
                raise ValueError(
                    "chunked key source yielded no chunks — cannot infer a "
                    "key dtype; pass an (empty) ndarray instead")
        except BaseException:
            if spool_k is not None:
                spool_k.abort()
            if spool_v is not None:
                spool_v.abort()
            raise
        if spool_k is not None:
            self._replay_keys = spool_k.finish(self.key_dtype)
            self._replay_values = (spool_v.finish(self.value_dtype)
                                   if spool_v is not None else None)

    def _second_pass(self):
        if self.spooled:
            lo = 0
            for ln in self.lens:
                sl = slice(lo, lo + ln)
                yield (self._replay_keys[sl],
                       self._replay_values[sl] if self.kv else None)
                lo += ln
            return
        c = -1
        for c, (kchunk, vchunk) in enumerate(self._raw_chunks()):
            if c >= len(self.lens):
                raise ValueError(
                    "chunked source changed between passes: it yielded more "
                    f"chunks on replay than the {len(self.lens)} recorded")
            kchunk, vchunk = self._check_chunk(c, kchunk, vchunk)
            if kchunk.size != self.lens[c]:
                raise ValueError(
                    f"chunked source changed between passes: chunk {c} "
                    f"replayed with {kchunk.size} keys, recorded "
                    f"{self.lens[c]} — a callable source must yield "
                    "identical chunks on every invocation")
            yield (np.ascontiguousarray(kchunk),
                   np.ascontiguousarray(vchunk) if self.kv else None)
        if c + 1 < len(self.lens):
            raise ValueError(
                "chunked source changed between passes: replay ended after "
                f"{c + 1} chunks, recorded {len(self.lens)}")


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS
    reports one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return min(_DEFAULT_MAX_WORKERS, usable_cores())
    return max(1, int(max_workers))


def _shard_keys(m: int) -> int:
    """Default keys per shard for ``m`` buckets (see
    :data:`DEFAULT_SHARD_KEYS`)."""
    if m * _LOOP_MIN_RUN <= DEFAULT_SHARD_KEYS:
        return 4 * DEFAULT_SHARD_KEYS
    return DEFAULT_SHARD_KEYS


def _cache_shards(n_chunk: int, m: int) -> int:
    """Shard count for one chunk: shards of ``_shard_keys(m)`` keys."""
    return -(-n_chunk // _shard_keys(m))


def _chunk_budget(chunk_bytes: int | None) -> int:
    """The stream engine's bytes of keys per chunk: ``chunk_bytes``, or
    :data:`DEFAULT_CHUNK_BYTES` for ``None``; below 1 raises."""
    cb = DEFAULT_CHUNK_BYTES if chunk_bytes is None else int(chunk_bytes)
    if cb < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {cb}")
    return cb


def stream_multisplit(keys, spec_or_fn, num_buckets: int | None = None, *,
                      values=None, method: str = "auto",
                      workspace: Workspace | None = None,
                      chunk_bytes: int | None = None,
                      max_workers: int | None = None, backend=None,
                      out: np.ndarray | None = None,
                      out_values: np.ndarray | None = None,
                      strict: bool = False,
                      **kwargs) -> MultisplitResult:
    """Out-of-core streamed multisplit, bit-identical to ``engine="fast"``.

    Parameters
    ----------
    keys:
        An ``np.ndarray`` / ``np.memmap``, a zero-argument callable
        returning an iterable of 1-D chunks (invoked once per pass), or
        a one-shot iterable of chunks (spooled to disk for the second
        pass). Chunked sources require an elementwise bucket spec.
    values:
        Same kind as ``keys`` (or ``None``); chunk lengths must match.
    chunk_bytes:
        Byte budget for one super-shard of keys (default
        :data:`DEFAULT_CHUNK_BYTES`). Peak scratch is
        ``O(chunk_bytes + m * shards)``; results never depend on it.
    out, out_values:
        Optional preallocated 1-D output arrays (e.g. writable
        memmaps) of length ``n`` and matching dtype. Without them the
        engine allocates via :func:`stream_buffer` (RAM below
        :data:`MEMMAP_OUT_THRESHOLD`, unlinked temp memmaps above).
        Stream outputs are never pooled in ``workspace``. With an array
        source, an output that shares memory with ``keys``, ``values``
        or the other output raises :class:`ValueError`.
    max_workers, backend, workspace:
        As in :func:`~repro.engine.sharded_multisplit`: worker threads
        for the two local phases, the per-shard kernel backend, and the
        scratch arena recycled across chunks. None of them affect
        results.
    strict:
        Run the :func:`~repro.multisplit.validate.validate_spec`
        battery on the spec before streaming. Requires an
        ndarray/memmap key source — chunked sources are one-shot and
        cannot be sampled without consuming them.

    Only the stable method family is supported; ``kwargs`` takes the
    emulated methods' knobs (:data:`METHOD_KWARGS`), which are accepted
    and ignored, and any other name raises :class:`TypeError`.
    """
    spec, method, keys, values = prologue(
        "stream_multisplit", keys, values, spec_or_fn, num_buckets, method,
        kwargs, strict=strict, source=True)
    if not spec.elementwise:
        raise ValueError(
            "engine='stream' evaluates the bucket spec chunk-by-chunk and "
            "therefore requires an elementwise spec "
            f"(got {type(spec).__name__} with elementwise=False); "
            "use engine='sharded' or engine='fast' for whole-array specs")
    m = spec.num_buckets
    chunk_bytes = _chunk_budget(chunk_bytes)

    workers = _resolve_workers(max_workers)
    bk = resolve_backend(backend)
    source = _ChunkSource(keys, values, chunk_bytes,
                          lambda *dtypes: check_method(method, m, *dtypes))
    kv = source.kv
    if not kv and out_values is not None:
        raise ValueError("out_values was given but values is None")
    if source.kind == "array":
        _check_no_alias(out, out_values, source.keys, source.values)

    result = record_call("stream", method, kv, workers, lambda: run_core(
        "stream", source, m, method, workspace, workers, bk,
        lambda n_c: _cache_shards(n_c, m), out, out_values, spec=spec,
        ids_budget=chunk_bytes))
    out_memmap = isinstance(result.keys, np.memmap)
    result.extra.update(chunks=len(source.lens), chunk_bytes=chunk_bytes,
                        out_memmap=out_memmap)
    reg = get_registry()
    if reg.enabled:
        reg.inc("engine.stream.chunks", len(source.lens), method=method)
        reg.set_gauge("engine.stream.chunk_bytes", chunk_bytes, method=method)
        reg.set_gauge("engine.stream.out_memmap", int(out_memmap),
                      method=method)
        if source.spooled:
            reg.inc("engine.stream.spool_bytes",
                    result.keys.size * result.keys.dtype.itemsize)
    return result


def _scratch(ws: Workspace | None, slot: str, size: int, dtype) -> np.ndarray:
    return np.empty(size, dtype) if ws is None else ws.take(slot, size, dtype)


def run_core(engine: str, source: _ChunkSource, m: int, method: str,
             ws: Workspace | None, workers: int, bk, shards_for, out,
             out_values, *, spec=None,
             global_ids: np.ndarray | None = None,
             ids_budget: int | None = None) -> MultisplitResult:
    """The {local, global, local} core of every result-only engine's
    stable family: ``fast`` (P = 1), ``sharded``, ``stream``, a
    coalesced batch window and every ``fast_radix_sort`` pass.

    ``shards_for(n_chunk)`` cuts every chunk of ``source`` into shards,
    which form one chunk-major sequence. Pass 1 prescans every shard,
    one exclusive scan of the count matrix gives every shard its
    offsets, and pass 2 scatters every shard — or copies it, when one
    bucket holds every key. Each nonempty shard costs one
    ``bk.prescan`` and, unless copied, one ``bk.scatter``. Pass 2 of a
    views source reuses pass 1's shards. Bucket ids come from
    ``spec.eval_into`` or from a caller's whole-input ``global_ids`` for
    a one-chunk source; pass-1 ids are kept for pass 2 while their bytes
    fit ``ids_budget`` (``None``: always). Scratch comes
    from ``ws`` (``None``: fresh arrays); ``out``/``out_values`` are
    output arrays or ``None`` for :func:`stream_buffer`. Records
    ``engine.<engine>.{prescan,scan,scatter}_ms``.
    """
    reg = get_registry()
    kv = source.kv
    ids_dtype = np.dtype(narrow_ids_dtype(m))
    rows: list[np.ndarray] = []  # one int64[m] histogram per shard
    # per chunk: first shard, shard size, and the ids cache: pass-1 ids
    # kept while their bytes fit ids_budget, skipping the pass-2
    # evaluation (or None)
    cuts: list[tuple] = []
    cached_bytes = 0

    def cut(c: int, kchunk, vchunk) -> list:
        """Chunk ``c``'s nonempty shards as views ``(p, keys, values,
        ids)``, ``p`` being the place in the sequence."""
        p0, size, ids = cuts[c]
        return [(p0 + i, kchunk[lo:lo + size],
                 vchunk[lo:lo + size] if kv else None,
                 None if ids is None else ids[lo:lo + size])
                for i, lo in enumerate(range(0, kchunk.size, size))]

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    # per-worker sub-arenas, shared by both passes: spec-eval and
    # uncached-ids scratch, and the scatter's gather scratch
    arenas = [Workspace() if ws is None else ws.subarena(f"core-worker{w}")
              for w in range(workers)]

    def run(fn, window) -> None:
        """Stripe a window's shards over the workers: worker ``w`` runs
        shards ``w, w + workers, ...``. A lone shard runs here, without
        worker scratch: it has nothing to share it with."""
        if len(window) <= 1 or pool is None:
            for shard in window:
                fn(shard, arenas[0] if len(window) > 1 else None)
            return
        list(pool.map(lambda w: [fn(shard, arenas[w])
                                 for shard in window[w::workers]],
                      range(min(workers, len(window)))))

    def prescan(shard, arena) -> None:
        p, keys, _, ids = shard
        if ids is None:
            ids = _scratch(arena, "core.ids", keys.size, ids_dtype)
        if global_ids is None:  # the caller's ids are final
            spec.eval_into(keys, ids, arena)
        rows[p] = bk.prescan(ids, m)

    def scatter(shard, arena) -> None:
        p, keys, values, ids = shard
        if ids is None:  # not cached: evaluate again, into scratch
            ids = _scratch(arena, "core.ids", keys.size, ids_dtype)
            spec.eval_into(keys, ids, arena)
        bk.scatter(keys, values, ids, hist[p], offsets[p], out_keys,
                   out_vals, arena=arena)

    def copy(shard, arena) -> None:
        # bucket ``full`` holds every key: the permutation is the identity
        p, keys, values, _ = shard
        lo = int(offsets[p, full])
        out_keys[lo:lo + keys.size] = keys
        if kv:
            out_vals[lo:lo + keys.size] = values

    # phase boundaries, observed as engine.<engine>.<phase>_ms at the end
    clock = [time.perf_counter()]
    try:
        # ---- pass 1: local prescan of every shard ---------------------
        n = 0
        zero = np.zeros(m, dtype=np.int64)
        window: list = []
        for c, (kchunk, vchunk) in enumerate(source.passes()):
            n_c = kchunk.size
            n += n_c
            P_c = shards_for(n_c) if n_c else 0
            rows += [zero] * P_c
            ids = None
            if global_ids is not None:  # the one chunk's, final
                ids = global_ids.astype(ids_dtype, copy=False)
            elif n_c and (ids_budget is None or cached_bytes
                          + n_c * ids_dtype.itemsize <= ids_budget):
                ids = _scratch(ws, f"core.ids.{c}", n_c, ids_dtype)
            cached_bytes += 0 if ids is None else ids.nbytes
            cuts.append((len(rows) - P_c, -(-n_c // P_c) if P_c else 1, ids))
            window += cut(c, kchunk, vchunk)
            if not source.views:
                run(prescan, window)
                window = []
        run(prescan, window)
        clock.append(time.perf_counter())

        P = len(rows)
        hist = np.array(rows, dtype=np.int64).reshape(P, m)
        rows.clear()  # hist holds the counts; free the rows' memory
        if reg.enabled and engine != "fast":  # fast: one shard, always
            reg.set_gauge(f"engine.{engine}.shards", P, method=method)
            reg.set_gauge(f"engine.{engine}.ids_cached_bytes", cached_bytes,
                          method=method)

        # ---- global: Eq. 1, one exclusive scan -------------------------
        # the counts scanned bucket-major: entry b * P + p is shard p's
        # offset into bucket b (bucket b's start plus its keys in every
        # earlier shard), entry b * P is bucket b's start
        scan = np.zeros(m * P + 1, dtype=np.int64)
        np.add.accumulate(hist.T.ravel(), out=scan[1:])
        offsets = scan[:-1].reshape(m, P).T  # (P, m)
        # stream results, starts too, are never pooled
        starts = out_buffer(None if engine == "stream" else ws, "starts",
                            m + 1, np.int64)
        starts[:] = scan[::max(P, 1)]  # P == 0: n == 0, all zeros
        clock.append(time.perf_counter())

        out_keys = _resolve_out(out, "out", n, source.key_dtype)
        out_vals = (_resolve_out(out_values, "out_values", n,
                                 source.value_dtype) if kv else None)

        # ---- pass 2: local stable scatters (views: pass 1's shards) ----
        # the last nonempty bucket holds every key iff it starts at 0
        # (n == 0 gives -1, and there are no shards)
        full = int(starts.searchsorted(n)) - 1
        fn = copy if int(starts[full]) == 0 else scatter
        if source.views:
            run(fn, window)
        else:
            for c, (kchunk, vchunk) in enumerate(source.passes()):
                run(fn, cut(c, kchunk, vchunk))
        clock.append(time.perf_counter())
    finally:
        if pool is not None:
            pool.shutdown()
    if reg.enabled:
        for phase, t0, t1 in zip(("prescan", "scan", "scatter"), clock,
                                 clock[1:]):
            reg.observe_ms(f"engine.{engine}.{phase}_ms", (t1 - t0) * 1e3,
                           method=method)

    return MultisplitResult(
        keys=out_keys, values=out_vals, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": engine, "backend": bk.name,
               "shards": P, "workers": workers},
    )


def run_in_memory(engine: str, keys, values, spec, method: str,
                  workspace: Workspace | None, workers: int, bk,
                  shards: int) -> MultisplitResult:
    """:func:`run_core` over one checked in-memory array cut into
    ``shards`` shards, outputs from ``workspace``: fast and sharded."""
    return run_core(
        engine, _ChunkSource(keys, values, max(keys.nbytes, 1)),
        spec.num_buckets, method, workspace, workers, bk, lambda _: shards,
        out_buffer(workspace, "keys", keys.size, keys.dtype), None
        if values is None else out_buffer(workspace, "values", keys.size,
                                          values.dtype),
        # a non-elementwise spec sees the whole key array exactly once
        spec=spec if spec.elementwise else None,
        global_ids=None if spec.elementwise else spec(keys))


def _resolve_out(buf, name: str, n: int, dtype) -> np.ndarray:
    if buf is None:
        return stream_buffer(n, dtype)
    if not isinstance(buf, np.ndarray):
        raise TypeError(f"{name} must be a 1-D ndarray, got "
                        f"{type(buf).__name__}")
    if buf.ndim != 1 or buf.size != n:
        raise ValueError(
            f"{name} must be 1-D with {n} elements, got shape {buf.shape}")
    if buf.dtype != np.dtype(dtype):
        raise ValueError(f"{name} dtype {buf.dtype} must match the source "
                         f"dtype {np.dtype(dtype)}")
    if not buf.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return buf


def _check_no_alias(out, out_values, keys, values) -> None:
    """Reject output buffers that share memory with an input or with
    each other: the scatter would overwrite input it has yet to read."""
    named = [("out", out), ("out_values", out_values), ("keys", keys),
             ("values", values)]
    for i, (a, x) in enumerate(named[:2]):
        for b, y in named[i + 1:]:
            if (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and np.shares_memory(x, y)):
                raise ValueError(f"{a} shares memory with {b}; pass a "
                                 "separate output buffer")
