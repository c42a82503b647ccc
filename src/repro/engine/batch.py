"""Batched multisplit dispatch over a shared workspace / thread pool.

Serving-style workloads (ROADMAP's north star) rarely issue one giant
multisplit; they issue *many independent ones* — per shard, per query,
per SSSP window. ``multisplit_batch`` runs a whole batch through the
fast engine with per-thread scratch reuse, fanning out across a thread
pool when the batch is large enough to amortize it (numpy releases the
GIL in the sort/gather kernels that dominate the fused fast path, so
threads genuinely overlap).

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
    over the concatenation. Because composite ids are grouped by item
    first, the stable permutation restricted to item ``i``'s segment is
    exactly that item's own stable multisplit permutation — results are
    bit-identical to per-item :func:`fast_multisplit` calls, while the
    histogram/scan/scatter cost is paid once for the whole batch.

    Constraints (``ValueError`` when unmet — callers fall back to
    :func:`multisplit_batch`):

    * every item's resolved method must be in the stable family (the
      bit-identical guarantee is a stable-family property);
    * all key arrays must share one dtype (they are concatenated).

    Per-item ``bucket_starts``/``values`` are freshly allocated;
    ``keys`` are zero-copy views into one shared output array, which
    stays alive while any result does. ``workspace`` (scratch-only,
    ``reuse_outputs=False``) pools the concatenation buffers.
    """
    from repro.multisplit.api import _pick_auto
    from .fused import STABLE_METHODS, coerce_and_check

    keys_batch = list(keys_batch)
    count = len(keys_batch)
    if values_batch is None:
        values_batch = [None] * count
    else:
        values_batch = list(values_batch)
        if len(values_batch) != count:
            raise ValueError(
                f"got {len(values_batch)} value arrays for a batch of "
                f"{count} inputs")
    specs = _resolve_specs(spec_or_fn, num_buckets, count)
    if workspace is not None and workspace.reuse_outputs:
        raise ValueError(
            "coalesced_multisplit_batch needs a Workspace("
            "reuse_outputs=False): batched results must all outlive the call")
    if count == 0:
        return []

    method = getattr(method, "value", method)
    methods = []
    for i in range(count):
        m_i = specs[i].num_buckets
        resolved = _pick_auto(m_i).value if method == "auto" else method
        if resolved not in STABLE_METHODS:
            raise ValueError(
                f"coalesced dispatch covers the stable method family "
                f"({', '.join(sorted(STABLE_METHODS))}); got {resolved!r}")
        methods.append(resolved)
        keys_batch[i], values_batch[i] = coerce_and_check(
            keys_batch[i], values_batch[i], resolved, m_i)
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

    if workspace is not None:
        ids = workspace.take("coalesce.ids", total, id_dtype)
        all_keys = workspace.take("coalesce.keys", total, key_dtype)
    else:
        ids = np.empty(total, id_dtype)
        all_keys = np.empty(total, key_dtype)

    # {local}: per-item labels, shifted into disjoint composite ranges
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

    # {global}: one histogram + scan + stable permutation for everyone
    counts = np.bincount(ids, minlength=total_m)
    bounds = np.empty(total_m + 1, np.int64)
    bounds[0] = 0
    np.cumsum(counts, out=bounds[1:])
    order = np.argsort(ids, kind="stable")
    out_keys = all_keys[order]

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
            extra={"engine": "fast", "backend": "numpy",
                   "coalesced": count}))
        off += n
        base += m_i
    return results


def multisplit_batch(keys_batch, spec_or_fn, num_buckets: int | None = None, *,
                     values_batch=None, method="auto", engine: str = "fast",
                     workspace: Workspace | None = None, device=None,
                     max_workers: int | None = None, shards: int | None = None,
                     backend=None, **kwargs) -> list[MultisplitResult]:
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
        Thread-pool width; ``0`` or ``1`` forces sequential execution.
        With ``engine="sharded"``/``"auto"`` this caps the *per-call*
        worker threads instead (items already run sequentially).
    shards:
        Shard count forwarded to ``engine="sharded"``/``"auto"`` calls.
    backend:
        Kernel backend forwarded to every result-only call (name,
        ``"auto"``, or instance — see :mod:`repro.engine.backends`).
        Resolved once here so per-item calls share the singleton (and
        any fallback warning fires once, not per item). Rejected with
        ``engine="emulate"``.
    """
    keys_batch = list(keys_batch)
    count = len(keys_batch)
    if values_batch is None:
        values_batch = [None] * count
    else:
        values_batch = list(values_batch)
        if len(values_batch) != count:
            raise ValueError(
                f"got {len(values_batch)} value arrays for a batch of {count} inputs")
    specs = _resolve_specs(spec_or_fn, num_buckets, count)

    reg = get_registry()
    reg.inc("batch.calls", 1, engine=engine)
    reg.inc("batch.items", count, engine=engine)

    if engine == "emulate":
        if backend is not None:
            raise ValueError(
                "backend selects the result-only engines' kernels; pass it "
                "with engine='fast', 'sharded', or 'auto'")
        from repro.multisplit.api import multisplit
        return [multisplit(k, s, values=v, method=method, device=device, **kwargs)
                for k, s, v in zip(keys_batch, specs, values_batch)]
    if engine not in ("fast", "sharded", "stream", "auto"):
        raise ValueError(
            f"engine must be 'fast', 'sharded', 'stream', 'auto', or "
            f"'emulate', got {engine!r}")
    if backend is not None:
        from .backends import resolve_backend
        backend = resolve_backend(backend)
    if workspace is not None and workspace.reuse_outputs:
        raise ValueError(
            "multisplit_batch needs a Workspace(reuse_outputs=False): batched "
            "results must all outlive the call, so outputs cannot be pooled")
    if engine in ("sharded", "stream", "auto"):
        # items run sequentially; each call parallelizes internally over
        # its shards, so the two pools never nest (stream results are
        # never pooled, so the shared scratch arena is always safe)
        from repro.multisplit.api import multisplit
        ws = workspace if workspace is not None else Workspace(reuse_outputs=False)
        if engine == "stream":
            return [multisplit(k, s, values=v, method=method, engine="stream",
                               workspace=ws, max_workers=max_workers,
                               backend=backend, **kwargs)
                    for k, s, v in zip(keys_batch, specs, values_batch)]
        return [multisplit(k, s, values=v, method=method, engine=engine,
                           workspace=ws, shards=shards, max_workers=max_workers,
                           backend=backend, **kwargs)
                for k, s, v in zip(keys_batch, specs, values_batch)]
    if shards is not None:
        raise ValueError(
            "shards is a sharded-engine knob; pass engine='sharded' or "
            "engine='auto'")

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
                                           workspace=ws, backend=backend,
                                           **kwargs)
            finally:
                with depth_lock:
                    in_flight[0] -= 1
    else:
        def run_one(item, ws: Workspace):
            k, s, v = item
            return fast_multisplit(k, s, values=v, method=method, workspace=ws,
                                   backend=backend, **kwargs)

    items = list(zip(keys_batch, specs, values_batch))
    total_keys = sum(np.asarray(k).size for k in keys_batch)
    parallel = (count >= _MIN_PARALLEL_ITEMS
                and total_keys >= _MIN_PARALLEL_KEYS
                and (max_workers is None or max_workers > 1))
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

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_threaded, items))
