"""Sharded parallel fast engine: the {local, global, local} core over one
in-memory chunk.

The fast engine (:mod:`repro.engine.fused`) runs the same two kernels
at one shard: one stable argsort and one gather over the whole input.
That leaves two kinds of performance on the table:

* **cache locality** — the global stable argsort and the big gathers
  stream the whole input through cache-unfriendly access patterns; and
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

Shard size follows the bucket count: 128K keys while ``m <= 64``,
which keeps a shard's mean bucket run at 2048 keys or more, and 32K
keys above that (see :data:`~repro.engine.stream.DEFAULT_SHARD_KEYS`).
The engine is measurably faster than the fast engine's one-shard pass
even single-threaded, and scales with worker threads on multicore
hosts (the dominant numpy kernels — sort, take, copies and fancy-index
stores — release the GIL). Where several shards share the output, each
shard's scatter copies one slice per nonempty bucket while its runs
are long and stores every key at a computed destination once they are
short (see :class:`~repro.engine.backends.NumpyBackend`), so its cost
does not grow with ``m``; the long shards at small ``m`` make fewer of
those GIL-holding slice copies. ``engine="auto"`` therefore shards
every bucket count and every worker count from one size floor,
:data:`SHARDED_AUTO_MIN_N` (single-threaded sharding already ties or
beats the fast engine there).
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import resolve_backend
from .fused import STABLE_METHODS, coerce_and_check
from .stream import (DEFAULT_SHARD_KEYS, _cache_shards, _ChunkSource,
                     _resolve_workers, run_core)
from .workspace import Workspace, out_buffer

__all__ = ["sharded_multisplit", "SHARDED_AUTO_MIN_N", "DEFAULT_SHARD_KEYS"]

# engine="auto" switches from "fast" to "sharded" at this input size,
# for every worker and bucket count: the smallest n at which sharding
# wins most cells and loses none by more than that cell's run-to-run
# spread (at 2^18 it loses by up to 1.45x). Measured basis: 2-vCPU
# host, scripts/auto_floor_sweep.py, three runs, uint32 keys, sharded /
# fast time at 2^19 keys, one / two workers, key-value; keys-only:
#   m = 16:   0.44-0.46 / 0.49-0.52;  0.71-0.73 / 0.83-0.90
#   m = 32:   0.66-0.75 / 0.80-0.87;  0.71-0.85 / 0.81-0.89
#   m = 256:  0.89-1.02 / 0.82-1.07;  0.85-0.95 / 0.82-0.98
#   m = 4096: 0.99-1.04 / 0.80-1.08;  1.02-1.08 / 0.87-1.14
SHARDED_AUTO_MIN_N = 1 << 19


def _resolve_shards(n: int, m: int, shards: int | None) -> int:
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return min(shards, max(n, 1))
    return max(1, _cache_shards(n, m))


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
        to cover the input, of 128K keys while ``m <= 64`` and 32K keys
        above that; the worker count is capped at ``P``, so an input of
        one shard runs on the calling thread.
    max_workers:
        Worker threads for the two local phases; default
        ``min(4, usable cores)``, where the usable cores follow the
        process's CPU affinity. ``1`` runs sequentially (still faster
        than the fast engine's one-shard pass at large ``n`` thanks to
        cache-resident shards). Results never depend on this knob.
    backend:
        Kernel backend for the per-shard prescan/postscan: ``None`` or
        ``"numpy"`` (the default :class:`~repro.engine.backends.NumpyBackend`),
        or a :class:`~repro.engine.backends.KernelBackend` instance.
        Results never depend on this knob either — every backend
        produces the bit-identical stable permutation.
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
    num_shards = _resolve_shards(n, m, shards)
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
