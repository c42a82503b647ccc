"""Batched multisplit dispatch over a shared workspace / thread pool.

Serving-style workloads (ROADMAP's north star) rarely issue one giant
multisplit; they issue *many independent ones* — per shard, per query,
per SSSP window. ``multisplit_batch`` runs a whole batch through the
fast engine with per-thread scratch reuse, fanning out across a thread
pool when the batch is large enough to amortize it (numpy releases the
GIL in the sort/gather kernels that dominate the fast engine's
one-shard pass, so threads genuinely overlap).

Results in a batch must all outlive the call, so output buffers are
never pooled here; a caller-provided :class:`Workspace` must therefore
be created with ``reuse_outputs=False`` (scratch-only pooling).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.multisplit.bucketing import BucketSpec, as_bucket_spec
from repro.multisplit.ids import narrow_ids_dtype
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import resolve_backend
from .stream import (_ChunkSource, _resolve_workers, _scratch, prologue,
                     run_core)
from .workspace import Workspace

__all__ = ["multisplit_batch", "coalesced_multisplit_batch"]

# fan out only when there is enough total work for thread startup to pay off
_MIN_PARALLEL_KEYS = 1 << 18
_MIN_PARALLEL_ITEMS = 4


def _resolve_specs(spec_or_fn, num_buckets, count: int) -> list[BucketSpec]:
    """One spec per batch item: a single spec/callable is shared by all."""
    if isinstance(spec_or_fn, (list, tuple)):
        if len(spec_or_fn) != count:
            raise ValueError(
                f"got {len(spec_or_fn)} specs for a batch of {count} inputs")
        return [as_bucket_spec(s, num_buckets) for s in spec_or_fn]
    spec = as_bucket_spec(spec_or_fn, num_buckets)
    return [spec] * count


def _resolve_values(values_batch, count: int) -> list:
    """One values array (or ``None``) per batch item."""
    if values_batch is None:
        return [None] * count
    values_batch = list(values_batch)
    if len(values_batch) != count:
        raise ValueError(
            f"got {len(values_batch)} value arrays for a batch of {count} inputs")
    return values_batch


def coalesced_multisplit_batch(keys_batch, spec_or_fn,
                               num_buckets: int | None = None, *,
                               values_batch=None, method="auto",
                               workspace: Workspace | None = None,
                               ) -> list[MultisplitResult]:
    """Fuse a batch of small multisplits into ONE composite dispatch.

    This is the paper's batching argument applied to the kernels
    themselves: instead of launching one {local, global, local} pass per
    item (each paying the fixed per-call cost that dominates at small
    ``n``), relabel item ``i``'s bucket ids into the disjoint composite
    range ``[offset_i, offset_i + m_i)`` and run a *single* stable pass
    over the concatenation: the fast engine's one-shard
    :func:`~repro.engine.stream.run_core` over the composite ids.
    Because composite ids are grouped by item first, the stable
    permutation restricted to item ``i``'s segment is exactly that
    item's own stable multisplit permutation — results are bit-identical
    to per-item :func:`fast_multisplit` calls, while the
    histogram/scan/scatter cost is paid once for the whole batch.

    Constraints (``ValueError`` when unmet — callers fall back to
    :func:`multisplit_batch`):

    * every item's resolved method must be in the stable family (the
      bit-identical guarantee is a stable-family property);
    * all key arrays must share one dtype (they are concatenated).

    When every item shares one elementwise spec object (a single spec
    passed as ``spec_or_fn``, or a list holding the same object), the
    spec is evaluated once, by ``eval_into`` over the concatenated keys;
    mixed or non-elementwise specs are evaluated item by item.

    Per-item ``bucket_starts``/``values`` are freshly allocated;
    ``keys`` are zero-copy views into one shared output array, which
    stays alive while any result does. ``workspace`` (scratch-only,
    ``reuse_outputs=False``) pools the concatenation buffers.
    """
    keys_batch = list(keys_batch)
    count = len(keys_batch)
    values_batch = _resolve_values(values_batch, count)
    specs = _resolve_specs(spec_or_fn, num_buckets, count)
    if workspace is not None and workspace.reuse_outputs:
        raise ValueError(
            "coalesced_multisplit_batch needs a Workspace("
            "reuse_outputs=False): batched results must all outlive the call")
    if count == 0:
        return []

    methods = []
    for i in range(count):
        _, resolved, keys_batch[i], values_batch[i] = prologue(
            "coalesced_multisplit_batch", keys_batch[i], values_batch[i],
            specs[i], None, method, {})
        methods.append(resolved)
    key_dtype = keys_batch[0].dtype
    if any(k.dtype != key_dtype for k in keys_batch):
        raise ValueError(
            "coalesced dispatch concatenates keys and therefore needs one "
            "uniform keys dtype across the batch")

    sizes = [k.size for k in keys_batch]
    total = sum(sizes)
    total_m = sum(s.num_buckets for s in specs)
    id_dtype = narrow_ids_dtype(total_m)

    reg = get_registry()
    reg.inc("batch.coalesced.calls")
    if reg.enabled:
        reg.inc("batch.coalesced.items", count)
        reg.inc("batch.coalesced.keys", total)

    ids = _scratch(workspace, "coalesce.ids", total, id_dtype)
    all_keys = _scratch(workspace, "coalesce.keys", total, key_dtype)

    # {local}: per-item labels, shifted into disjoint composite ranges
    spec = specs[0]
    if spec.elementwise and all(s is spec for s in specs):
        # one elementwise spec for the whole window: one evaluation over
        # the concatenation gives every item's ids, then one repeat adds
        # the composite offsets
        np.concatenate(keys_batch, out=all_keys)
        spec.eval_into(all_keys, ids, arena=workspace)
        if count > 1:
            bases = np.arange(count, dtype=id_dtype) * id_dtype(spec.num_buckets)
            ids += np.repeat(bases, sizes)
    else:
        off = 0
        base = 0
        for k, spec in zip(keys_batch, specs):
            n = k.size
            seg = ids[off:off + n]
            np.copyto(seg, spec(k), casting="unsafe")
            if base:
                seg += id_dtype(base)
            all_keys[off:off + n] = k
            off += n
            base += spec.num_buckets

    # {global}: the core at one shard over the composite ids; values (of
    # any dtypes, or absent) ride along as positions in the concatenation
    kv = any(v is not None for v in values_batch)
    window = run_core(
        "fast", _ChunkSource(all_keys, np.arange(total) if kv else None,
                             max(all_keys.nbytes, 1)), total_m, methods[0],
        workspace, 1, resolve_backend(), lambda n: 1, None, None,
        global_ids=ids)
    out_keys, order, bounds = window.keys, window.values, window.bucket_starts

    # {local}: slice each item's segment back out (stable order within a
    # segment == that item's own stable multisplit permutation)
    results = []
    off = 0
    base = 0
    for i in range(count):
        n = sizes[i]
        m_i = specs[i].num_buckets
        starts = bounds[base:base + m_i + 1] - off
        out_values = None
        if values_batch[i] is not None:
            local = order[off:off + n] - off
            out_values = values_batch[i][local]
        results.append(MultisplitResult(
            keys=out_keys[off:off + n], values=out_values,
            bucket_starts=starts, method=methods[i], num_buckets=m_i,
            timeline=None, stable=True,
            extra={"engine": "fast", "backend": window.extra["backend"],
                   "coalesced": count}))
        off += n
        base += m_i
    return results


def multisplit_batch(keys_batch, spec_or_fn, num_buckets: int | None = None, *,
                     values_batch=None, method="auto", engine: str = "fast",
                     workspace: Workspace | None = None, device=None,
                     max_workers: int | None = None,
                     **kwargs) -> list[MultisplitResult]:
    """Run many independent multisplits; returns results in batch order.

    Parameters
    ----------
    keys_batch:
        Sequence of 1-D key arrays (sizes may differ).
    spec_or_fn:
        One :class:`BucketSpec`/callable shared by every item, or a
        sequence of them (one per item).
    values_batch:
        Optional sequence aligned with ``keys_batch``; entries may be
        ``None`` for key-only items.
    engine:
        ``"fast"`` (default: fused result-only kernels, thread-pool
        fan-out across *items* for large batches), ``"sharded"``
        (items sequential, each call shard-parallel *inside* — the
        right shape for a few huge items), ``"stream"`` (items
        sequential through the out-of-core streamed engine; items may
        be memmaps or chunked sources and per-item ``chunk_bytes=`` is
        forwarded), ``"auto"`` (per-item choice among the result-only
        engines by item kind/size), or ``"emulate"`` (sequential, full
        timelines).
    workspace:
        Optional scratch arena for the result-only engines; must have
        ``reuse_outputs=False`` because every result in the batch must
        survive the call. On the fast engine's parallel path it seeds
        one pool thread's arena (the remaining threads build their
        own); sequential paths use it for every item. Ignored with
        ``engine="emulate"``.
    max_workers:
        With ``engine="fast"``, the thread-pool width (default: the
        usable cores, at most 4, as for the other engines); ``0`` or
        ``1`` forces sequential execution. With the other engines it is the
        per-call knob of :func:`~repro.multisplit.multisplit` (items
        already run sequentially).
    **kwargs:
        Per-call knobs, held to the same contract as
        :func:`~repro.multisplit.multisplit`'s: a knob the engine does
        not take raises ``ValueError``, and a name that no engine takes
        raises ``TypeError``.
    """
    keys_batch = list(keys_batch)
    count = len(keys_batch)
    values_batch = _resolve_values(values_batch, count)
    specs = _resolve_specs(spec_or_fn, num_buckets, count)

    reg = get_registry()
    reg.inc("batch.calls", 1, engine=engine)
    reg.inc("batch.items", count, engine=engine)

    from repro.multisplit.api import _resolve_engine, multisplit
    if (engine != "emulate" and workspace is not None
            and workspace.reuse_outputs):
        raise ValueError(
            "multisplit_batch needs a Workspace(reuse_outputs=False): batched "
            "results must all outlive the call, so outputs cannot be pooled")
    if engine != "fast":
        # items run sequentially through multisplit, which checks the
        # knobs and routes auto per item; sharded/stream calls parallelize
        # internally over their shards, so the two pools never nest
        # (stream results are never pooled, so the shared scratch arena
        # is always safe; the emulator takes no workspace here)
        ws = None if engine == "emulate" else (
            workspace if workspace is not None else Workspace(reuse_outputs=False))
        return [multisplit(k, s, values=v, method=method, engine=engine,
                           workspace=ws, device=device,
                           max_workers=max_workers, **kwargs)
                for k, s, v in zip(keys_batch, specs, values_batch)]
    # max_workers is this path's pool width, not a per-call knob
    for k in keys_batch:
        _resolve_engine(engine, k, method, **kwargs)

    from .fused import fast_multisplit

    # enabled-mode accounting shared by the pool threads: per-item
    # latency plus the executing-item high-water mark (queue depth)
    if reg.enabled:
        item_timer = reg.timer("batch.item_ms")
        depth_gauge = reg.gauge("batch.max_concurrency")
        depth_lock = threading.Lock()
        in_flight = [0]

        def run_one(item, ws: Workspace):
            k, s, v = item
            with depth_lock:
                in_flight[0] += 1
                depth_gauge.record_max(in_flight[0])
            try:
                with item_timer.time():
                    return fast_multisplit(k, s, values=v, method=method,
                                           workspace=ws, **kwargs)
            finally:
                with depth_lock:
                    in_flight[0] -= 1
    else:
        def run_one(item, ws: Workspace):
            k, s, v = item
            return fast_multisplit(k, s, values=v, method=method, workspace=ws,
                                   **kwargs)

    items = list(zip(keys_batch, specs, values_batch))
    total_keys = sum(np.asarray(k).size for k in keys_batch)
    workers = (_resolve_workers(max_workers)
               if count >= _MIN_PARALLEL_ITEMS
               and total_keys >= _MIN_PARALLEL_KEYS else 1)
    parallel = workers > 1
    if reg.enabled:
        reg.inc("batch.keys", total_keys, engine=engine)
        reg.set_gauge("batch.fan_out", count)
        reg.set_gauge("batch.parallel", int(parallel))
    if not parallel:
        ws = workspace if workspace is not None else Workspace(reuse_outputs=False)
        return [run_one(item, ws) for item in items]

    # per-thread scratch arenas; numpy's sort/take release the GIL, so the
    # pool overlaps the dominant kernels of independent items. A
    # caller-provided workspace seeds the first thread that asks (its
    # warmed slots keep paying off); the rest build their own.
    local = threading.local()
    seed_lock = threading.Lock()
    seed = [workspace]

    def run_threaded(item):
        ws = getattr(local, "ws", None)
        if ws is None:
            with seed_lock:
                ws = seed[0]
                seed[0] = None
            if ws is None:
                ws = Workspace(reuse_outputs=False)
            local.ws = ws
        return run_one(item, ws)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_threaded, items))
