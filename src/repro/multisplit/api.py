"""Public multisplit API: one entry point over every implementation.

``multisplit(keys, spec, method=...)`` dispatches to the paper's three
proposed methods and the four baselines. ``Method.AUTO`` encodes the
paper's Figure 3 guidance: warp-level MS is fastest for small bucket
counts, block-level MS for larger ones, and reduced-bit sort once the
bucket count grows past the warp-synchronous methods' useful range
(unless it would have to pack a pair whose keys are not 32-bit).

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
* ``engine="auto"`` — production dispatch between the result-only
  engines: stream for chunked, memmap and very large sources, sharded
  from one input-size floor for stable methods at any bucket and worker
  count, fast otherwise.

One resolver, :func:`_resolve_engine`, checks ``engine=`` and the knob
contract and routes ``auto`` for every entry point (this module, the
batch dispatcher and the sort family).

``multisplit_batch`` runs many independent multisplits through one
dispatcher (shared specs, pooled scratch, thread-pool fan-out).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.obs import get_registry

from ._common import pick_auto
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


_ENGINES = ("emulate", "fast", "sharded", "stream", "auto")
_RESULT_ONLY = _ENGINES[1:]

# the knob contract: knob -> (what it tunes, the engine= values that take
# it); "auto" takes every knob one of its engines takes
_KNOBS = {
    "max_workers": ("sharded/stream-engine", ("sharded", "stream", "auto")),
    "chunk_bytes": ("stream-engine", ("stream", "auto")),
    "out": ("stream-engine", ("stream", "auto")),
    "out_values": ("stream-engine", ("stream", "auto")),
    "backend": ("result-only-engine", _RESULT_ONLY),
}
_STREAM_KNOBS = ("chunk_bytes", "out", "out_values")


def _resolve_engine(engine: str, keys, method: str, spec=None, *,
                    engines=_ENGINES, **knobs) -> str:
    """The engine policy of every entry point: check, enforce, route.

    Checks that ``engine`` is one of ``engines``, rejects every knob in
    ``knobs`` (those of :data:`_KNOBS`; others pass through) that the
    requested engine does not take, and resolves ``"auto"``:

    * a chunked source (generator/iterable of chunks, chunk-factory
      callable) or a stream knob (``chunk_bytes``/``out``/
      ``out_values``) streams;
    * non-stable methods only exist in the fast engine;
    * a memmap key array, or an in-memory array whose keys alone exceed
      ``STREAM_AUTO_MIN_BYTES``, streams when the spec is elementwise
      (memory placement: out-of-core inputs are never materialized);
    * otherwise one size floor, ``SHARDED_AUTO_MIN_N``, splits fast
      from sharded for every bucket and worker count.

    A chunked source on any engine but stream raises ``TypeError``.
    """
    from repro.engine import STABLE_METHODS
    from repro.engine.sharded import SHARDED_AUTO_MIN_N
    from repro.engine.stream import STREAM_AUTO_MIN_BYTES, _is_chunked_source
    if engine not in engines:
        hint = ("; the emulated sort is repro.sort.radix_sort"
                if engine == "emulate" else "")
        raise ValueError(f"engine must be one of "
                         f"{', '.join(map(repr, engines))}, got {engine!r}"
                         + hint)
    for name, value in knobs.items():
        if value is not None and name in _KNOBS:
            kind, takers = _KNOBS[name]
            if engine not in takers:
                raise ValueError(
                    f"{name} is a {kind} knob; pass it with engine="
                    f"{' or '.join(map(repr, takers))} (got engine={engine!r})")
    chunked = _is_chunked_source(keys)
    if engine == "auto":
        if chunked or any(knobs.get(k) is not None for k in _STREAM_KNOBS):
            engine = "stream"
        elif method not in STABLE_METHODS:
            engine = "fast"
        else:
            if not isinstance(keys, np.ndarray):  # keep memmaps recognizable
                keys = np.asarray(keys)
            if ((spec is None or spec.elementwise)
                    and (isinstance(keys, np.memmap)
                         or keys.nbytes >= STREAM_AUTO_MIN_BYTES)):
                engine = "stream"
            else:
                engine = "sharded" if keys.size >= SHARDED_AUTO_MIN_N else "fast"
    if chunked and engine != "stream":
        raise TypeError(
            "chunked key sources (generators/iterables of chunks, chunk "
            "factories) can only be consumed by the stream engine; pass "
            f"engine='stream' or engine='auto' (got engine={engine!r})")
    return engine


def multisplit(keys, spec_or_fn, num_buckets: int | None = None, *,
               values=None, method: Method | str = Method.AUTO,
               engine: str = "emulate", workspace=None,
               max_workers: int | None = None, backend=None, chunk_bytes: int | None = None,
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
        bucket count per the paper's evaluation, and never picks
        reduced-bit for a key-value pair without 32-bit keys.
    engine:
        ``"emulate"`` (default) runs the paper-faithful SIMT emulation
        and prices a timeline; ``"fast"`` runs the fused result-only
        kernels of :mod:`repro.engine`; ``"sharded"`` runs the
        shard-parallel {local, global, local} engine (stable methods
        only); ``"stream"`` runs the out-of-core two-level streamed
        engine (stable methods + elementwise specs, bounded peak
        memory); ``"auto"`` picks among the result-only engines —
        stream for chunked/memmap sources and in-memory arrays past
        ``STREAM_AUTO_MIN_BYTES``, then sharded from
        ``SHARDED_AUTO_MIN_N`` keys at any worker count, fast
        otherwise. All result-only engines return the bit-identical
        permutation with ``timeline=None``. A knob the engine does not
        take (below) raises ``ValueError``; a keyword argument that no
        engine takes raises ``TypeError``.
    workspace:
        Optional :class:`~repro.engine.Workspace` reused across calls.
        With the result-only engines it pools scratch *and* (by
        default) result buffers — see the workspace ownership contract;
        with ``engine="emulate"`` it pools the warp-tile padding
        arrays. The sharded engine additionally carves one sub-arena
        per worker thread from it.
    max_workers:
        Worker-thread cap of ``engine="sharded"`` and ``"stream"`` (and
        ``"auto"``). Never affects results. Rejected with the other
        engines; not a routing input of ``"auto"``. The shard count
        follows the bucket count (see
        :data:`~repro.engine.DEFAULT_SHARD_KEYS`).
    chunk_bytes / out / out_values:
        Stream-engine knobs (``engine="stream"``; under ``"auto"``
        passing any of them selects stream): super-shard byte budget
        and preallocated output arrays (e.g. writable memmaps). See
        :func:`repro.engine.stream_multisplit`. Rejected with the
        other engines.
    backend:
        Kernel backend for the result-only engines — ``None`` or
        ``"numpy"`` (the default numpy kernels) or a
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
        method = Method(pick_auto(spec.num_buckets, keys, values))

    engine = _resolve_engine(engine, keys, method.value, spec,
                             max_workers=max_workers, backend=backend,
                             chunk_bytes=chunk_bytes, out=out,
                             out_values=out_values)

    if strict and engine != "stream":  # the stream engine runs its own
        from .validate import validate_spec
        validate_spec(spec, np.asarray(keys))

    from repro.engine.stream import _is_chunked_source
    reg = get_registry()
    reg.inc("api.multisplit.calls", 1, engine=engine, method=method.value)
    if reg.enabled and not _is_chunked_source(keys):
        reg.inc("api.multisplit.keys", np.asarray(keys).size,
                engine=engine, method=method.value)

    if engine == "stream":
        from repro.engine import stream_multisplit
        return stream_multisplit(keys, spec, values=values,
                                 method=method.value, workspace=workspace,
                                 chunk_bytes=chunk_bytes,
                                 max_workers=max_workers,
                                 backend=backend,
                                 out=out, out_values=out_values,
                                 strict=strict,
                                 warps_per_block=warps_per_block, **kwargs)
    if engine == "fast":
        from repro.engine import fast_multisplit
        return fast_multisplit(keys, spec, values=values, method=method.value,
                               workspace=workspace, backend=backend,
                               warps_per_block=warps_per_block, **kwargs)
    if engine == "sharded":
        from repro.engine import sharded_multisplit
        return sharded_multisplit(keys, spec, values=values, method=method.value,
                                  workspace=workspace,
                                  max_workers=max_workers,
                                  backend=backend,
                                  warps_per_block=warps_per_block, **kwargs)
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
