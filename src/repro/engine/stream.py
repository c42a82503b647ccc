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

Two engines run the core. ``engine="stream"`` (:func:`stream_multisplit`)
feeds it chunks of ``chunk_bytes``, so peak memory is
``O(chunk + m * P_total)`` regardless of ``n``: one chunk of
keys/values, the shards' bucket ids, and the count matrix. (While the
chunks' ids fit inside the chunk budget they are kept from pass 1 — the
"ids cache" — which skips the second bucket-id evaluation; any other
shard evaluates its ids into shard-sized worker scratch.)
``engine="sharded"`` (:func:`~repro.engine.sharded_multisplit`) is the
core over one in-memory chunk: the whole array.

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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.ids import narrow_ids_dtype
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import _LOOP_MIN_RUN, resolve_backend
from .fused import STABLE_METHODS, coerce_and_check, _starts
from .workspace import Workspace

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

    ``passes()`` may be called exactly twice; each call yields
    ``(key_chunk, value_chunk_or_None)`` pairs. Pass 2 is validated
    chunk-by-chunk against pass 1's recorded lengths and dtypes, so a
    callable source that does not replay identically fails loudly
    instead of corrupting the scatter.
    """

    def __init__(self, keys, values, chunk_bytes: int):
        self.kv = values is not None
        self.chunk_bytes = chunk_bytes
        self.lens: list[int] = []
        self.key_dtype = None
        self.value_dtype = None
        self.pass_no = 0
        self.spooled = False
        self._spools = None
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
            self.key_dtype = keys.dtype
            self.value_dtype = values.dtype if self.kv else None
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

    @classmethod
    def build(cls, keys, values, chunk_bytes: int) -> "_ChunkSource":
        # array-likes of scalars (plain lists, generators are NOT this)
        # behave like the other engines' inputs: one in-memory array
        if not (isinstance(keys, np.ndarray) or _is_chunked_source(keys)):
            keys = np.asarray(keys)
        if values is not None and not (isinstance(values, np.ndarray)
                                       or _is_chunked_source(values)):
            values = np.asarray(values)
        return cls(keys, values, chunk_bytes)

    @property
    def views(self) -> bool:
        """Whether every chunk is a view of a C-contiguous array, so
        that holding all of them at once costs no memory."""
        return (self.kind == "array" and self.keys.flags.c_contiguous
                and (not self.kv or self.values.flags.c_contiguous))

    def _raw_chunks(self):
        if self.kind == "array":
            keys, values = self.keys, self.values
            step = max(1, self.chunk_bytes // max(keys.dtype.itemsize, 1))
            for lo in range(0, keys.size, step):
                sl = slice(lo, min(lo + step, keys.size))
                yield keys[sl], values[sl] if self.kv else None
            return
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
        if self.key_dtype is None:
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
        return kchunk, vchunk

    def passes(self):
        self.pass_no += 1
        if self.pass_no == 1:
            yield from self._first_pass()
        elif self.pass_no == 2:
            yield from self._second_pass()
        else:  # pragma: no cover - internal misuse
            raise RuntimeError("a _ChunkSource supports exactly two passes")

    def _first_pass(self):
        spool_k = spool_v = None
        if self.spooled:
            spool_k = _Spool("keys")
            spool_v = _Spool("values") if self.kv else None
            self._spools = (spool_k, spool_v)
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
        except BaseException:
            if spool_k is not None:
                spool_k.abort()
            if spool_v is not None:
                spool_v.abort()
            raise
        if self.key_dtype is None:
            raise ValueError(
                "chunked key source yielded no chunks — cannot infer a "
                "key dtype; pass an (empty) ndarray instead")
        if spool_k is not None:
            self._replay_keys = spool_k.finish(self.key_dtype)
            self._replay_values = (spool_v.finish(self.value_dtype)
                                   if spool_v is not None else None)
            self._spools = None

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
        if self.kind == "callable" and len(self.lens) and c + 1 < len(self.lens):
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

    Only the stable method family is supported; the launch-shape
    ``kwargs`` of the emulated engine are accepted and ignored.
    """
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
        from repro.multisplit.api import _pick_auto
        method = _pick_auto(spec.num_buckets, keys, values).value
    if method not in STABLE_METHODS:
        raise ValueError(
            f"engine='stream' handles the stable method family "
            f"({', '.join(sorted(STABLE_METHODS))}); got {method!r} — "
            "use engine='fast' for radix_sort/randomized")
    if not spec.elementwise:
        raise ValueError(
            "engine='stream' evaluates the bucket spec chunk-by-chunk and "
            "therefore requires an elementwise spec "
            f"(got {type(spec).__name__} with elementwise=False); "
            "use engine='sharded' or engine='fast' for whole-array specs")
    m = spec.num_buckets
    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    chunk_bytes = int(chunk_bytes)
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")

    workers = _resolve_workers(max_workers)
    bk = resolve_backend(backend)
    ws = workspace if workspace is not None else Workspace()
    source = _ChunkSource.build(keys, values, chunk_bytes)
    kv = source.kv
    if not kv and out_values is not None:
        raise ValueError("out_values was given but values is None")
    if source.kind == "array":
        _check_no_alias(out, out_values, source.keys, source.values)

    reg = get_registry()
    reg.inc("engine.stream.calls", 1, method=method)
    reg.inc("engine.backend.calls", 1, backend=bk.name, engine="stream")
    if reg.enabled:
        reg.inc("engine.stream.buckets", m, method=method)
        reg.set_gauge("engine.stream.workers", workers, method=method)
        reg.set_gauge("engine.stream.chunk_bytes", chunk_bytes, method=method)
        reg.set_gauge("engine.backend.name", 1, backend=bk.name)
    with reg.timer("engine.stream.run_ms", method=method, kv=kv).time():
        result = run_core("stream", source, spec, method, ws, workers, bk,
                          lambda n_c: _cache_shards(n_c, m), out,
                          out_values, reg, ids_budget=chunk_bytes)
    out_memmap = isinstance(result.keys, np.memmap)
    result.extra.update(chunks=len(source.lens), chunk_bytes=chunk_bytes,
                        out_memmap=out_memmap)
    if reg.enabled:
        reg.inc("engine.stream.chunks", len(source.lens), method=method)
        reg.set_gauge("engine.stream.out_memmap", int(out_memmap),
                      method=method)
        reg.inc("engine.stream.keys", result.keys.size, method=method)
        if source.spooled:
            reg.inc("engine.stream.spool_bytes",
                    result.keys.size * result.keys.dtype.itemsize)
    return result


def run_core(engine: str, source: _ChunkSource, spec, method: str,
             ws: Workspace, workers: int, bk, shards_for, out, out_values,
             reg, *, ids_budget: int | None = None,
             global_ids: np.ndarray | None = None) -> MultisplitResult:
    """The {local, global, local} core behind ``sharded`` and ``stream``.

    ``shards_for(n_chunk)`` cuts every chunk of ``source`` into shards,
    which form one chunk-major sequence. Pass 1 prescans every shard,
    one exclusive scan of the stacked count matrix gives every shard
    its offsets, and pass 2 replays the source and scatters every shard
    — or copies the source, when one bucket holds every key. Each
    nonempty shard costs one ``bk.prescan`` and, unless copied, one
    ``bk.scatter``; each pass maps the workers once per window (see the
    module docstring). Pass-1 bucket ids are kept for pass 2 while
    their bytes fit ``ids_budget`` (``None``: always); other shards
    evaluate theirs into worker scratch. ``global_ids`` are whole-input
    ids of a non-elementwise spec, evaluated once by the caller; they
    require a one-chunk source and an unbounded ``ids_budget``.
    ``out``/``out_values`` are validated output arrays or ``None`` for
    :func:`stream_buffer`. Records
    ``engine.<engine>.{prescan,scan,scatter}_ms``.
    """
    m = spec.num_buckets
    kv = source.kv
    ids_dtype = narrow_ids_dtype(m)
    rows: list[np.ndarray] = []  # one int64[m] histogram per shard
    # ids cache: pass-1 bucket ids kept while their cumulative bytes fit
    # inside ids_budget, skipping the pass-2 re-evaluation
    ids_cache: dict[int, np.ndarray] = {}
    cached_bytes = 0

    def windows(first: bool):
        """One pass's nonempty shards as ``(p, slice, keys, values,
        cached_ids)``, ``p`` being the shard's place in the chunk-major
        sequence, grouped into windows."""
        nonlocal cached_bytes
        window, p0 = [], 0
        for c, (kchunk, vchunk) in enumerate(source.passes()):
            kchunk, vchunk = coerce_and_check(kchunk, vchunk, method, m)
            n_c = kchunk.size
            P_c = shards_for(n_c) if n_c else 0
            csize = -(-n_c // P_c) if P_c else 0
            if first:
                rows.extend([np.zeros(m, dtype=np.int64)] * P_c)
                ids_nbytes = n_c * np.dtype(ids_dtype).itemsize
                if n_c and (ids_budget is None
                            or cached_bytes + ids_nbytes <= ids_budget):
                    ids_cache[c] = ws.take(f"core.ids.{c}", n_c, ids_dtype)
                    cached_bytes += ids_nbytes
            ids = ids_cache.get(c)
            for i in range(P_c):
                s = slice(i * csize, min((i + 1) * csize, n_c))
                if s.stop > s.start:
                    window.append((p0 + i, s, kchunk, vchunk, ids))
            p0 += P_c
            if not source.views:
                yield window
                window = []
        if window:
            yield window

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    # per-worker sub-arenas, shared by both passes: spec-eval and
    # uncached-ids scratch, and the scatter's gather scratch
    arenas = [ws.subarena(f"core-worker{w}") for w in range(workers)]

    def run(fn, window):
        """Stripe a window's shards over the workers: worker ``w`` runs
        shards ``w, w + workers, ...`` in order."""
        if pool is None or len(window) <= 1:
            for shard in window:
                fn(shard, arenas[0])
            return
        list(pool.map(lambda w: [fn(shard, arenas[w])
                                 for shard in window[w::workers]],
                      range(min(workers, len(window)))))

    def evaluate(shard, arena):
        """Evaluate a shard's bucket ids into its slice of the cached
        ids, or else into the worker's shard-sized scratch."""
        _, s, kchunk, _, ids = shard
        ids = (arena.take("core.ids", s.stop - s.start, ids_dtype)
               if ids is None else ids[s])
        if global_ids is None:
            spec.eval_into(kchunk[s], ids, arena)
        else:
            np.copyto(ids, global_ids[s], casting="unsafe")
        return ids

    def prescan(shard, arena):
        rows[shard[0]] = bk.prescan(evaluate(shard, arena), m)

    def scatter(shard, arena):
        p, s, kchunk, vchunk, ids = shard
        ids = evaluate(shard, arena) if ids is None else ids[s]
        bk.scatter(kchunk[s], vchunk[s] if kv else None, ids, hist[p],
                   offsets[p], out_keys, out_vals, arena=arena)

    try:
        # ---- pass 1: local prescan of every shard ---------------------
        with reg.timer(f"engine.{engine}.prescan_ms", method=method).time():
            for window in windows(first=True):
                run(prescan, window)

        n = int(sum(source.lens))
        hist = np.array(rows, dtype=np.int64).reshape(-1, m)  # (P, m)
        rows.clear()  # hist holds the counts; free the rows' memory
        if reg.enabled:
            reg.set_gauge(f"engine.{engine}.shards", hist.shape[0],
                          method=method)
            reg.set_gauge(f"engine.{engine}.ids_cached_bytes", cached_bytes,
                          method=method)

        # ---- global: Eq. 1, one chunk-major exclusive scan -------------
        with reg.timer(f"engine.{engine}.scan_ms", method=method).time():
            counts = hist.sum(axis=0)
            starts = _starts(counts, m, ws)
            # shard p's offset into bucket b: bucket b's start plus
            # bucket b's keys in every earlier shard of the sequence
            offsets = np.cumsum(hist, axis=0)
            offsets -= hist
            offsets += starts[:m]

        # ---- outputs ---------------------------------------------------
        out_keys = _resolve_out(out, "out", n, source.key_dtype)
        out_vals = (_resolve_out(out_values, "out_values", n,
                                 source.value_dtype) if kv else None)

        # ---- pass 2: replay + local stable scatters --------------------
        with reg.timer(f"engine.{engine}.scatter_ms", method=method).time():
            if int(counts.max()) == n:
                # one bucket holds every key (or n == 0): the stable
                # permutation is the identity
                lo = 0
                for kchunk, vchunk in source.passes():
                    hi = lo + kchunk.size
                    out_keys[lo:hi] = kchunk
                    if kv:
                        out_vals[lo:hi] = vchunk
                    lo = hi
            else:
                for window in windows(first=False):
                    run(scatter, window)
    finally:
        if pool is not None:
            pool.shutdown()

    return MultisplitResult(
        keys=out_keys, values=out_vals, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": engine, "backend": bk.name,
               "shards": hist.shape[0], "workers": workers},
    )


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
