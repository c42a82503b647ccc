"""Sharded parallel fast engine: the {local, global, local} core over one
in-memory chunk.

The fast engine (:mod:`repro.engine.fused`) runs a single large stable
multisplit as one monolithic label/bincount/argsort/gather pipeline.
That leaves two kinds of performance on the table:

* **cache locality** — the global stable argsort and the two big
  gathers stream the whole input through cache-unfriendly access
  patterns; and
* **cores** — one call runs on one thread, even on machines where
  ``multisplit_batch`` happily saturates a pool with *independent*
  calls.

``engine="sharded"`` applies the paper's own decomposition (Section 3,
Eq. 1/2) to a single call by running the stream engine's core
(:func:`repro.engine.stream.run_core`) over one chunk: the whole
array. The input is split into ``P`` contiguous shards, each shard
computes its ``m``-bin histogram in parallel across worker threads, one
chunk-major exclusive scan of the ``m x P`` matrix yields every
shard's private base offset into every bucket
(``offset[b][p] = sum_{b'<b} count[b'] + sum_{p'<p} count[b][p']``),
and each shard stable-counting-scatters its elements to those offsets.

Because the offsets are chunk-major, shard ``p``'s bucket-``b`` run
lands immediately before shard ``p+1``'s, and the within-shard sort is
stable — so the concatenation is *the* unique global stable
permutation. Outputs are therefore **bit-identical** to
``engine="fast"`` and ``engine="emulate"`` for the whole stable method
family, regardless of ``shards``/``max_workers`` (every destination is
precomputed, so thread scheduling cannot perturb the result).

What the one-chunk case adds over ``engine="stream"``: the bucket ids
of the whole input are always kept from the prescan (the spec is never
evaluated twice), ``shards=`` sets the shard count, non-elementwise
specs are evaluated once over the whole array, and the outputs come
from the caller's :class:`~repro.engine.Workspace` like the fast
engine's.

Shards default to ~32K keys so a shard's ids, permutation, and gathered
output stay cache-resident; on this decomposition the engine is
measurably faster than the monolithic fast path even single-threaded,
and scales with worker threads on multicore hosts (the dominant numpy
kernels — sort, take, slice copies — release the GIL).
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import narrow_ids_dtype, resolve_backend
from .fused import STABLE_METHODS, coerce_and_check
from .stream import DEFAULT_SHARD_KEYS, _ChunkSource, _resolve_workers, run_core
from .workspace import Workspace, out_buffer

__all__ = ["sharded_multisplit", "SHARDED_AUTO_MIN_N",
           "SHARDED_AUTO_MIN_N_SINGLE", "DEFAULT_SHARD_KEYS"]

# engine="auto" switches from "fast" to "sharded" at this input size —
# below it the monolithic pipeline's lower fixed overhead wins, above
# it the sharded pipeline wins on cache locality alone (and further on
# worker threads); calibrated alongside DEFAULT_SHARD_KEYS
SHARDED_AUTO_MIN_N = 1 << 19
# single-worker crossover: with no thread-level parallelism available
# (max_workers=1, or a 1-core host and no explicit request) only the
# cache-locality win remains, and its fixed per-shard overhead pushes
# the break-even point out by ~4x; engine="auto" uses this higher floor
# so a tiny machine is not sharded for inputs where fast is the better
# monolithic choice
SHARDED_AUTO_MIN_N_SINGLE = SHARDED_AUTO_MIN_N * 4


def _resolve_shards(n: int, shards: int | None, workers: int) -> int:
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return min(shards, max(n, 1))
    by_cache = -(-n // DEFAULT_SHARD_KEYS) if n else 1
    return max(1, min(max(by_cache, workers), max(n, 1)))


def sharded_multisplit(keys: np.ndarray, spec_or_fn, num_buckets: int | None = None, *,
                       values: np.ndarray | None = None, method: str = "auto",
                       workspace: Workspace | None = None,
                       shards: int | None = None, max_workers: int | None = None,
                       backend=None, strict: bool = False,
                       **kwargs) -> MultisplitResult:
    """Sharded result-only multisplit, bit-identical to ``engine="emulate"``.

    Parameters
    ----------
    shards:
        Number of contiguous input shards ``P``. Default: enough shards
        of ~``DEFAULT_SHARD_KEYS`` keys to cover the input, at least one
        per worker.
    max_workers:
        Worker threads for the two local phases; default
        ``min(4, cpu_count)``. ``1`` runs sequentially (still faster
        than the monolithic fast path at large ``n`` thanks to
        cache-resident shards). Results never depend on this knob.
    backend:
        Kernel backend for the per-shard prescan/postscan (a name or a
        :class:`~repro.engine.backends.KernelBackend`): ``"numpy"``
        (default), ``"numba"`` (compiled, falls back to numpy when
        absent), or ``"auto"``. Results never depend on this knob
        either — every backend produces the bit-identical stable
        permutation.
    strict:
        Run the :func:`~repro.multisplit.validate.validate_spec`
        battery on the spec against a bounded key sample before the
        prescan touches shared scratch.

    Like :func:`~repro.engine.fast_multisplit`, launch-shape ``kwargs``
    (``warps_per_block``, ``items_per_lane``, ``device``) are accepted
    and ignored; only the stable method family is supported.
    """
    spec = as_bucket_spec(spec_or_fn, num_buckets)
    if strict:
        from repro.multisplit.validate import validate_spec
        validate_spec(spec, np.asarray(keys))
    method = getattr(method, "value", method)
    if method == "auto":
        from repro.multisplit.api import _pick_auto
        method = _pick_auto(spec.num_buckets).value
    if method not in STABLE_METHODS:
        raise ValueError(
            f"engine='sharded' handles the stable method family "
            f"({', '.join(sorted(STABLE_METHODS))}); got {method!r} — "
            "use engine='fast' for radix_sort/randomized")
    m = spec.num_buckets
    keys, values = coerce_and_check(keys, values, method, m)
    n = keys.size
    kv = values is not None

    workers = _resolve_workers(max_workers)
    num_shards = _resolve_shards(n, shards, workers)
    workers = min(workers, num_shards)
    bk = resolve_backend(backend)

    reg = get_registry()
    reg.inc("engine.sharded.calls", 1, method=method)
    reg.inc("engine.backend.calls", 1, backend=bk.name, engine="sharded")
    if reg.enabled:
        reg.inc("engine.sharded.keys", n, method=method)
        reg.inc("engine.sharded.buckets", m, method=method)
        reg.set_gauge("engine.sharded.workers", workers, method=method)
        reg.set_gauge("engine.backend.name", 1, backend=bk.name)
        reg.set_gauge("engine.backend.workers", workers, backend=bk.name)
    compile_ms = bk.warmup(keys.dtype, values.dtype if kv else None,
                           narrow_ids_dtype(m))
    if reg.enabled and compile_ms:
        reg.set_gauge("engine.backend.compile_ms",
                      getattr(bk, "compile_ms", compile_ms), backend=bk.name)
    with reg.timer("engine.sharded.run_ms", method=method, kv=kv).time():
        # non-elementwise specs (arbitrary callables, whole-array
        # bucketings) must see the full key array exactly once to stay
        # bit-identical
        global_ids = None if spec.elementwise else spec(keys)
        return run_core(
            "sharded", _ChunkSource(keys, values, max(keys.nbytes, 1)),
            spec, method, workspace if workspace is not None else Workspace(),
            workers, bk, lambda n_chunk: num_shards,
            out_buffer(workspace, "keys", n, keys.dtype),
            out_buffer(workspace, "values", n, values.dtype) if kv else None,
            reg, global_ids=global_ids)
