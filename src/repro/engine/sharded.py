"""Sharded parallel fast engine: the {local, global, local} core over one
in-memory chunk.

The fast engine (:mod:`repro.engine.fused`) runs the same core at one
shard: the two kernels run once, one stable argsort and one gather over
the whole input. That leaves two kinds of performance on the table:

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
family, regardless of the shard count or ``max_workers`` (every
destination is precomputed, so thread scheduling cannot perturb the
result).

What the one-chunk case adds over ``engine="stream"``: the bucket ids
of the whole input are always kept from the prescan (the spec is never
evaluated twice), non-elementwise specs are evaluated once over the
whole array, and the outputs come from the caller's
:class:`~repro.engine.Workspace` like the fast engine's. Below one
default shard a sharded call is the fast engine's call: the same core
at P = 1.

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

from repro.multisplit.result import MultisplitResult
from .backends import resolve_backend
from .stream import (DEFAULT_SHARD_KEYS, _cache_shards, _resolve_workers,
                     prologue, record_call, run_in_memory)
from .workspace import Workspace

__all__ = ["sharded_multisplit", "SHARDED_AUTO_MIN_N", "DEFAULT_SHARD_KEYS"]

# engine="auto" switches from "fast" to "sharded" at this input size,
# for every worker and bucket count: the smallest n at which sharding
# wins most cells and loses none by more than that cell's spread (below
# one default shard the two run the same core at P = 1). Measured basis:
# 2-vCPU host, scripts/auto_floor_sweep.py's cells (uint32, key-value
# and keys-only, one and two workers) as sharded / fast time, median
# (min-max) of three fresh processes; key-value, one / two workers:
#   2^16, m = 4096: 1.17 (1.16-1.17) / 1.55 (1.44-1.65)  (m = 256 alike)
#   2^17, m = 4096: 1.00 (0.98-1.04) / 0.95 (0.85-1.04)  (m <= 64: equal)
#   2^18, every m in {16, 32, 256, 4096}: 0.52-0.94
SHARDED_AUTO_MIN_N = 1 << 18


def sharded_multisplit(keys: np.ndarray, spec_or_fn, num_buckets: int | None = None, *,
                       values: np.ndarray | None = None, method: str = "auto",
                       workspace: Workspace | None = None,
                       max_workers: int | None = None, backend=None,
                       strict: bool = False, **kwargs) -> MultisplitResult:
    """Sharded result-only multisplit, bit-identical to ``engine="emulate"``.

    The input is cut into shards of 128K keys while ``m <= 64`` and 32K
    keys above that (:data:`DEFAULT_SHARD_KEYS`); the worker count is
    capped at the shard count, so an input of one shard runs on the
    calling thread.

    Parameters
    ----------
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

    Like :func:`~repro.engine.fast_multisplit`, ``kwargs`` takes the
    emulated methods' knobs (:data:`~repro.engine.stream.METHOD_KWARGS`),
    which are accepted and ignored, and any other name raises
    :class:`TypeError`; only the stable method family is supported.
    """
    spec, method, keys, values = prologue(
        "sharded_multisplit", keys, values, spec_or_fn, num_buckets, method,
        kwargs, strict=strict)
    num_shards = max(1, _cache_shards(keys.size, spec.num_buckets))
    workers = min(_resolve_workers(max_workers), num_shards)
    bk = resolve_backend(backend)
    return record_call("sharded", method, values is not None, workers,
                       lambda: run_in_memory("sharded", keys, values, spec,
                                             method, workspace, workers, bk,
                                             num_shards))
