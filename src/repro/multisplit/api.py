"""Public multisplit API: one entry point over every implementation.

``multisplit(keys, spec, method=...)`` dispatches to the paper's three
proposed methods and the four baselines. ``Method.AUTO`` encodes the
paper's Figure 3 guidance: warp-level MS is fastest for small bucket
counts, block-level MS for larger ones, and reduced-bit sort once the
bucket count grows past the warp-synchronous methods' useful range.

Several execution engines share this entry point:

* ``engine="emulate"`` (default) — the paper-faithful SIMT emulation;
  results carry the priced kernel timeline.
* ``engine="fast"`` — :mod:`repro.engine`'s fused result-only kernels:
  the bit-identical permutation with ``timeline=None``, optionally
  reusing scratch across calls via a
  :class:`~repro.engine.Workspace`.
* ``engine="sharded"`` — the paper's {local, global, local} prescan /
  scan / postscan decomposition run shard-parallel across worker
  threads (stable family only; still bit-identical).
* ``engine="auto"`` — production dispatch between the two result-only
  engines: sharded above a calibrated input size (or whenever
  ``shards=`` is given) for stable methods, fast otherwise.

``multisplit_batch`` runs many independent multisplits through one
dispatcher (shared specs, pooled scratch, thread-pool fan-out).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.obs import get_registry

from .bucketing import as_bucket_spec
from .block_level import block_level_multisplit
from .direct import direct_multisplit
from .randomized import randomized_multisplit
from .reduced_bit import reduced_bit_multisplit, sort_based_multisplit
from .result import MultisplitResult
from .scan_split import scan_split_multisplit, recursive_scan_split_multisplit
from .sparse_block import sparse_block_multisplit
from .warp_level import warp_level_multisplit

__all__ = ["Method", "multisplit", "multisplit_kv", "multisplit_batch"]


class Method(str, enum.Enum):
    """Selectable multisplit implementations."""

    AUTO = "auto"
    DIRECT = "direct"
    WARP = "warp"
    BLOCK = "block"
    SCAN_SPLIT = "scan_split"
    RECURSIVE_SPLIT = "recursive_split"
    SPARSE_BLOCK = "sparse_block"
    REDUCED_BIT = "reduced_bit"
    RADIX_SORT = "radix_sort"
    RANDOMIZED = "randomized"


# Figure 3 crossovers (key-only / key-value are close; use one policy):
_WARP_BEST_MAX_M = 8
_BLOCK_BEST_MAX_M = 128


def _pick_auto(m: int) -> "Method":
    if m <= _WARP_BEST_MAX_M:
        return Method.WARP
    if m <= _BLOCK_BEST_MAX_M:
        return Method.BLOCK
    return Method.REDUCED_BIT


def _pick_engine(keys_or_n, method_value: str, shards, max_workers,
                 spec=None) -> str:
    """``engine="auto"``: dispatch between the result-only engines.

    ``keys_or_n`` is the original key source when available (enabling
    the memmap/chunked-source checks) or a plain element count. The
    choice accounts for the *configuration*, not just the input size:

    * a chunked source (generator/iterable of chunks, chunk-factory
      callable) can only be consumed by the stream engine;
    * non-stable methods only exist in the fast engine;
    * an explicit ``shards=`` request forces sharded;
    * a memmap key array, or an in-memory array whose keys alone exceed
      ``STREAM_AUTO_MIN_BYTES``, streams (out-of-core inputs must never
      be materialized whole) — provided the spec is elementwise, the
      stream engine's requirement;
    * otherwise the crossover depends on how many workers the sharded
      engine would actually get: ``SHARDED_AUTO_MIN_N`` when worker
      parallelism is available, ``SHARDED_AUTO_MIN_N_SINGLE`` (~4x
      higher) when the call would run single-worker — a fixed size
      threshold alone would shard tiny machines where the monolithic
      fast path is the better choice.
    """
    from repro.engine import STABLE_METHODS
    from repro.engine.sharded import (SHARDED_AUTO_MIN_N,
                                      SHARDED_AUTO_MIN_N_SINGLE)
    from repro.engine.stream import (STREAM_AUTO_MIN_BYTES,
                                     _is_chunked_source, _resolve_workers)
    keys = None
    if isinstance(keys_or_n, (int, np.integer)):
        n = int(keys_or_n)
    else:
        keys = keys_or_n
        if _is_chunked_source(keys):
            return "stream"
        if not isinstance(keys, np.ndarray):  # keep memmaps recognizable
            keys = np.asarray(keys)
        n = keys.size
    if method_value not in STABLE_METHODS:
        return "fast"
    if shards is not None:
        return "sharded"
    if (keys is not None and (spec is None or spec.elementwise)
            and (isinstance(keys, np.memmap)
                 or keys.nbytes >= STREAM_AUTO_MIN_BYTES)):
        return "stream"
    workers = _resolve_workers(max_workers)
    floor = SHARDED_AUTO_MIN_N if workers > 1 else SHARDED_AUTO_MIN_N_SINGLE
    return "sharded" if n >= floor else "fast"


def multisplit(keys, spec_or_fn, num_buckets: int | None = None, *,
               values=None, method: Method | str = Method.AUTO,
               engine: str = "emulate", workspace=None,
               shards: int | None = None, max_workers: int | None = None,
               backend=None, chunk_bytes: int | None = None,
               out: np.ndarray | None = None,
               out_values: np.ndarray | None = None,
               strict: bool = False,
               device=None, warps_per_block: int = 8, **kwargs) -> MultisplitResult:
    """Permute ``keys`` (and optionally ``values``) into contiguous buckets.

    Parameters
    ----------
    keys:
        1-D array of 32-bit keys. With ``engine="stream"`` (or
        ``"auto"``) this may also be an ``np.memmap``, a zero-argument
        callable returning an iterable of 1-D chunks, or a one-shot
        iterable of chunks — see :func:`repro.engine.stream_multisplit`.
    spec_or_fn:
        A :class:`BucketSpec` or a vectorized callable ``keys -> ids``
        (pass ``num_buckets`` with a bare callable).
    values:
        Optional array moved alongside the keys.
    method:
        A :class:`Method` (or its string value). ``AUTO`` picks by
        bucket count per the paper's evaluation.
    engine:
        ``"emulate"`` (default) runs the paper-faithful SIMT emulation
        and prices a timeline; ``"fast"`` runs the fused result-only
        kernels of :mod:`repro.engine`; ``"sharded"`` runs the
        shard-parallel {local, global, local} engine (stable methods
        only); ``"stream"`` runs the out-of-core two-level streamed
        engine (stable methods + elementwise specs, bounded peak
        memory); ``"auto"`` picks among the result-only engines —
        stream for chunked/memmap sources and in-memory arrays past
        ``STREAM_AUTO_MIN_BYTES``, then sharded above a calibrated
        input size, fast otherwise. All result-only engines return the
        bit-identical permutation with ``timeline=None``.
    workspace:
        Optional :class:`~repro.engine.Workspace` reused across calls.
        With the result-only engines it pools scratch *and* (by
        default) result buffers — see the workspace ownership contract;
        with ``engine="emulate"`` it pools the warp-tile padding
        arrays. The sharded engine additionally carves one sub-arena
        per worker thread from it.
    shards / max_workers:
        Decomposition knobs for ``engine="sharded"`` (and ``"auto"``,
        where an explicit ``shards=`` forces sharded): shard count and
        worker-thread cap. ``max_workers`` also applies to
        ``engine="stream"``. Never affect results. Rejected with the
        other engines.
    chunk_bytes / out / out_values:
        Stream-engine knobs (``engine="stream"``; under ``"auto"``
        passing any of them selects stream): super-shard byte budget
        and preallocated output arrays (e.g. writable memmaps). See
        :func:`repro.engine.stream_multisplit`. Rejected with the
        other engines.
    backend:
        Kernel backend for the result-only engines — ``"numpy"``
        (default), ``"numba"`` (compiled kernels; degrades to numpy
        with a one-time warning when numba is absent), ``"auto"``
        (numba if available), or a
        :class:`~repro.engine.backends.KernelBackend` instance. Every
        backend returns the bit-identical permutation; see
        ``docs/BACKENDS.md``. Rejected with ``engine="emulate"``.
    strict:
        Run :func:`~repro.multisplit.validate.validate_spec` — the
        input-validator battery — on the spec against a bounded sample
        of the keys before dispatching. Hostile or buggy specs
        (out-of-range/wrapped ids, lying ``elementwise`` claims,
        non-determinism) raise
        :class:`~repro.multisplit.validate.SpecValidationError` up
        front instead of corrupting shared state. Requires an
        in-memory/memmap key source (chunked sources are rejected:
        they are one-shot and cannot be sampled without consuming
        them).
    device:
        A :class:`~repro.simt.Device`, a ``DeviceSpec``, or ``None``
        (fresh K40c); the emulated-kernel timeline is returned on the
        result. Ignored by the result-only engines.

    Returns
    -------
    MultisplitResult
        Permuted keys/values, bucket boundaries, and simulated timings.
    """
    spec = as_bucket_spec(spec_or_fn, num_buckets)
    method = Method(method)
    if method is Method.AUTO:
        method = _pick_auto(spec.num_buckets)

    requested = engine
    resolved_backend = backend
    if engine in ("fast", "sharded", "stream", "auto") and backend is not None:
        from repro.engine.backends import resolve_backend
        resolved_backend = resolve_backend(backend)
    stream_knobs = (chunk_bytes is not None or out is not None
                    or out_values is not None)
    if engine == "auto":
        if stream_knobs:
            # chunk_bytes/out/out_values are an explicit streaming
            # request; honoring them on another engine is impossible
            engine = "stream"
        else:
            engine = _pick_engine(keys, method.value, shards, max_workers,
                                  spec)
    from repro.engine.stream import _is_chunked_source
    if _is_chunked_source(keys) and engine not in ("stream",):
        raise TypeError(
            "chunked key sources (generators/iterables of chunks, chunk "
            "factories) can only be consumed by the stream engine; pass "
            f"engine='stream' or engine='auto' (got engine={requested!r})")
    if requested not in ("sharded", "auto") and shards is not None:
        raise ValueError(
            "shards is a sharded-engine knob; pass it with "
            f"engine='sharded' or engine='auto' (got engine={requested!r})")
    if (requested not in ("sharded", "stream", "auto")
            and max_workers is not None):
        raise ValueError(
            "max_workers is a sharded/stream-engine knob; pass it with "
            "engine='sharded', 'stream', or 'auto' "
            f"(got engine={requested!r})")
    if stream_knobs and requested not in ("stream", "auto"):
        raise ValueError(
            "chunk_bytes/out/out_values are stream-engine knobs; pass them "
            f"with engine='stream' or engine='auto' (got engine={requested!r})")
    if backend is not None and requested not in ("fast", "sharded", "stream",
                                                 "auto"):
        raise ValueError(
            "backend selects the result-only engines' kernels; pass it with "
            f"engine='fast', 'sharded', 'stream', or 'auto' "
            f"(got engine={requested!r})")

    if strict:
        if _is_chunked_source(keys):
            raise ValueError(
                "strict=True needs to sample the keys, but chunked sources "
                "are one-shot; materialize the keys (ndarray/memmap) or "
                "drop strict=")
        from .validate import validate_spec
        validate_spec(spec, np.asarray(keys))

    reg = get_registry()
    reg.inc("api.multisplit.calls", 1, engine=engine, method=method.value)
    if reg.enabled and not _is_chunked_source(keys):
        reg.inc("api.multisplit.keys", np.asarray(keys).size,
                engine=engine, method=method.value)

    if engine == "stream":
        from repro.engine import stream_multisplit
        if shards is not None:
            raise ValueError(
                "the stream engine sizes its shards from chunk_bytes and "
                "has no shards knob; drop shards= or use engine='sharded'")
        return stream_multisplit(keys, spec, values=values,
                                 method=method.value, workspace=workspace,
                                 chunk_bytes=chunk_bytes,
                                 max_workers=max_workers,
                                 backend=resolved_backend,
                                 out=out, out_values=out_values,
                                 warps_per_block=warps_per_block, **kwargs)
    if engine == "fast":
        from repro.engine import fast_multisplit
        return fast_multisplit(keys, spec, values=values, method=method.value,
                               workspace=workspace, backend=resolved_backend,
                               warps_per_block=warps_per_block, **kwargs)
    if engine == "sharded":
        from repro.engine import sharded_multisplit
        return sharded_multisplit(keys, spec, values=values, method=method.value,
                                  workspace=workspace, shards=shards,
                                  max_workers=max_workers,
                                  backend=resolved_backend,
                                  warps_per_block=warps_per_block, **kwargs)
    if engine != "emulate":
        raise ValueError(
            f"engine must be 'emulate', 'fast', 'sharded', 'stream', or "
            f"'auto', got {engine!r}")
    if workspace is not None and method in (Method.DIRECT, Method.WARP,
                                            Method.BLOCK, Method.SPARSE_BLOCK):
        # the warp-tiled methods pool their padding arrays; the others
        # have no padded scratch for a workspace to reuse
        kwargs["workspace"] = workspace

    with reg.timer("api.multisplit.wall_ms", engine="emulate",
                   method=method.value).time():
        return _run_emulated(method, keys, spec, values, device,
                             warps_per_block, kwargs)


def _run_emulated(method: Method, keys, spec, values, device,
                  warps_per_block: int, kwargs) -> MultisplitResult:
    if method is Method.DIRECT:
        return direct_multisplit(keys, spec, values=values, device=device,
                                 warps_per_block=warps_per_block, **kwargs)
    if method is Method.WARP:
        return warp_level_multisplit(keys, spec, values=values, device=device,
                                     warps_per_block=warps_per_block, **kwargs)
    if method is Method.BLOCK:
        return block_level_multisplit(keys, spec, values=values, device=device,
                                      warps_per_block=warps_per_block, **kwargs)
    if method is Method.SPARSE_BLOCK:
        return sparse_block_multisplit(keys, spec, values=values, device=device,
                                       warps_per_block=warps_per_block, **kwargs)
    if method is Method.SCAN_SPLIT:
        return scan_split_multisplit(keys, spec, values=values, device=device, **kwargs)
    if method is Method.RECURSIVE_SPLIT:
        return recursive_scan_split_multisplit(keys, spec, values=values,
                                               device=device, **kwargs)
    if method is Method.REDUCED_BIT:
        return reduced_bit_multisplit(keys, spec, values=values, device=device, **kwargs)
    if method is Method.RADIX_SORT:
        return sort_based_multisplit(keys, spec, values=values, device=device, **kwargs)
    if method is Method.RANDOMIZED:
        return randomized_multisplit(keys, spec, values=values, device=device,
                                     warps_per_block=warps_per_block, **kwargs)
    raise ValueError(f"unhandled method {method!r}")  # pragma: no cover


def multisplit_kv(keys: np.ndarray, values: np.ndarray, spec_or_fn,
                  num_buckets: int | None = None, **kwargs) -> MultisplitResult:
    """Key-value convenience wrapper around :func:`multisplit`."""
    return multisplit(keys, spec_or_fn, num_buckets, values=values, **kwargs)


def multisplit_batch(keys_batch, spec_or_fn, num_buckets: int | None = None,
                     **kwargs) -> list[MultisplitResult]:
    """Run many independent multisplits through one dispatcher.

    Defaults to ``engine="fast"`` with pooled per-thread scratch and
    thread-pool fan-out for large batches; see
    :func:`repro.engine.multisplit_batch` for the full parameter list.
    """
    from repro.engine import multisplit_batch as _batch
    return _batch(keys_batch, spec_or_fn, num_buckets, **kwargs)
