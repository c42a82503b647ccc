"""Fused result-only multisplit kernels (the fast engine).

The emulated implementations in :mod:`repro.multisplit` pay for full
SIMT fidelity on every call: warp-tile padding, ``ceil(log2 m)`` ballot
bitmap rounds, shared-memory bank audits, and cost-model pricing. When
the caller only wants the permuted output — SSSP bucketing, the
examples, batched serving traffic — all of that is overhead.

This module provides one fused pass per method family that produces
**bit-identical** keys/values/``bucket_starts`` to the corresponding
emulated method, with ``timeline=None``:

* stable family (``direct``/``warp``/``block``/``sparse_block``/
  ``scan_split``/``recursive_split``/``reduced_bit``) — every one of
  these is a *stable* multisplit, and a stable multisplit's permutation
  is unique. One pass computes bucket ids, builds the ``m x 1``
  histogram with a single ``bincount``, scans it, and scatters via the
  stable permutation (numpy's stable integer argsort is an LSD radix
  sort — the same algorithm the reduced-bit method emulates).
* ``radix_sort`` — a stable sort on the participating key bits.
* ``randomized`` — replays the identical seeded dart-throwing insertion
  (same RNG consumption sequence), minus all device accounting, so the
  non-stable permutation matches the emulation bit for bit.

Method-specific *algorithmic* constraints (warp-level's ``m <= 32``,
scan-split's ``m == 2``, reduced-bit's 32-bit key-value packing,
sort-based's bucket monotonicity) are enforced identically so switching
engines never changes the API contract. Emulation-only guards (the
block-level histogram footprint cap) do not apply.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.bucketing import BucketSpec, as_bucket_spec
from repro.multisplit.ids import narrow_ids_dtype
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from repro.simt.config import WARP_WIDTH
from .workspace import Workspace, out_buffer

__all__ = ["fast_multisplit", "FAST_METHODS", "STABLE_METHODS"]

STABLE_METHODS = frozenset({
    "direct", "warp", "block", "sparse_block",
    "scan_split", "recursive_split", "reduced_bit",
})
FAST_METHODS = STABLE_METHODS | {"radix_sort", "randomized"}

# Methods whose emulation tiles the input to full warps and therefore
# requires 32/64-bit keys; mirrored so the contract is engine-invariant.
_PADDED_METHODS = frozenset({"direct", "warp", "block", "sparse_block"})


def coerce_and_check(keys, values, method: str, m: int):
    """Shared input coercion + method-constraint checks for the result-only
    engines (fast and sharded), so the API contract stays engine-invariant.
    """
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if method in _PADDED_METHODS and keys.dtype.itemsize not in (4, 8):
        raise ValueError(f"keys must be 32- or 64-bit, got dtype {keys.dtype}")
    if values is not None:
        values = np.ascontiguousarray(values)
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}")
    if method == "warp" and m > WARP_WIDTH:
        raise ValueError(
            f"warp-level MS supports m <= {WARP_WIDTH} buckets (got {m}); "
            "use method='block' or 'reduced_bit'")
    if method == "scan_split" and m != 2:
        raise ValueError(
            f"scan-based split handles exactly 2 buckets, got {m}; "
            "use method='recursive_split' for more")
    if method == "reduced_bit" and values is not None and keys.dtype.itemsize != 4:
        raise ValueError(
            "reduced-bit key-value multisplit packs (key, value) into 64 bits "
            "and therefore requires 32-bit keys; use direct/warp/block/"
            "sparse_block for 64-bit key-value pairs")
    return keys, values


def fast_multisplit(keys: np.ndarray, spec_or_fn, num_buckets: int | None = None, *,
                    values: np.ndarray | None = None, method: str = "auto",
                    workspace: Workspace | None = None, backend=None,
                    **kwargs) -> MultisplitResult:
    """Result-only multisplit, bit-identical to ``engine="emulate"``.

    ``backend`` selects the stable family's histogram/scatter kernels
    (``"numpy"`` default, ``"numba"`` compiled with graceful fallback,
    or a :class:`~repro.engine.backends.KernelBackend` instance); it
    never changes results. ``kwargs`` accepts the emulated methods'
    tuning knobs; launch-shape parameters (``warps_per_block``,
    ``items_per_lane``, ``device``) are ignored because they do not
    affect results, while result-affecting ones (``bits``,
    ``relaxation``, ``seed``) are honored.
    """
    from .backends import resolve_backend
    spec = as_bucket_spec(spec_or_fn, num_buckets)
    method = getattr(method, "value", method)
    if method == "auto":
        from repro.multisplit.api import _pick_auto
        method = _pick_auto(spec.num_buckets).value
    if method not in FAST_METHODS:
        raise ValueError(f"unknown fast-engine method {method!r}")

    m = spec.num_buckets
    keys, values = coerce_and_check(keys, values, method, m)
    bk = resolve_backend(backend)
    if method not in STABLE_METHODS and bk.name != "numpy":
        raise ValueError(
            f"backend={bk.name!r} supports the stable method family "
            f"({', '.join(sorted(STABLE_METHODS))}); {method!r} runs on the "
            "numpy backend only")

    reg = get_registry()
    reg.inc("engine.fast.calls", 1, method=method)
    reg.inc("engine.backend.calls", 1, backend=bk.name, engine="fast")
    if reg.enabled:
        reg.inc("engine.fast.keys", keys.size, method=method)
        reg.inc("engine.fast.buckets", m, method=method)
        reg.set_gauge("engine.backend.name", 1, backend=bk.name)
    with reg.timer("engine.fast.run_ms", method=method,
                   kv=values is not None).time():
        if method in STABLE_METHODS:
            return _fused_stable(keys, spec, values, method, workspace, bk)
        if method == "radix_sort":
            return _fused_sort_based(keys, spec, values, workspace,
                                     bits=int(kwargs.get("bits", 32)))
        return _fused_randomized(
            keys, spec, values, workspace,
            relaxation=float(kwargs.get("relaxation", 2.0)),
            warps_per_block=int(kwargs.get("warps_per_block", 8)),
            seed=kwargs.get("seed", 0))


# ---------------------------------------------------------------------------
# stable family: one fused label + bincount + scan + scatter pass
# ---------------------------------------------------------------------------

def _starts(counts: np.ndarray, m: int, workspace: Workspace | None) -> np.ndarray:
    starts = out_buffer(workspace, "starts", m + 1, np.int64)
    starts[0] = 0
    np.cumsum(counts, out=starts[1:])
    return starts


def _stable_order(ids: np.ndarray, m: int,
                  workspace: Workspace | None) -> np.ndarray:
    # numpy's stable integer argsort is an LSD radix sort whose pass
    # count scales with the key width; bucket ids fit in 1-2 bytes for
    # any realistic m, so narrowing them first cuts the sort cost ~5x
    # without changing the permutation.
    sort_dtype = narrow_ids_dtype(m)
    if ids.dtype != sort_dtype:
        if workspace is not None:
            narrow = workspace.take("sort_ids", ids.size, sort_dtype)
            np.copyto(narrow, ids, casting="unsafe")
        else:
            narrow = ids.astype(sort_dtype)
        ids = narrow
    return np.argsort(ids, kind="stable")


def _fused_stable(keys, spec: BucketSpec, values, method: str,
                  workspace: Workspace | None, bk) -> MultisplitResult:
    m = spec.num_buckets
    n = keys.size
    if bk.name != "numpy":
        return _fused_stable_backend(keys, spec, values, method, workspace, bk)
    ids = spec(keys)
    counts = np.bincount(ids, minlength=m)
    starts = _starts(counts, m, workspace)

    # already partitioned (single bucket, presorted ids, n <= 1): the
    # stable permutation is the identity — skip the sort entirely
    if n <= 1 or m == 1 or int(counts.max()) == n or (ids[1:] >= ids[:-1]).all():
        out_keys = out_buffer(workspace, "keys", n, keys.dtype)
        out_keys[:] = keys
        out_values = None
        if values is not None:
            out_values = out_buffer(workspace, "values", n, values.dtype)
            out_values[:] = values
    else:
        order = _stable_order(ids, m, workspace)
        out_keys = np.take(keys, order,
                           out=out_buffer(workspace, "keys", n, keys.dtype))
        out_values = None
        if values is not None:
            out_values = np.take(values, order,
                                 out=out_buffer(workspace, "values", n, values.dtype))
    return MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": "fast", "backend": "numpy"},
    )


def _fused_stable_backend(keys, spec: BucketSpec, values, method: str,
                          workspace: Workspace | None, bk) -> MultisplitResult:
    """The monolithic stable pass through a non-default kernel backend.

    The whole input is one "shard": one fused prescan (histogram +
    monotonicity) and, when not already partitioned, one stable
    counting scatter whose per-bucket cursor starts at the exclusive
    scan of the counts. A stable multisplit's permutation is unique, so
    this is bit-identical to the numpy path's argsort pipeline.
    """
    m = spec.num_buckets
    n = keys.size
    kv = values is not None
    ids_dtype = narrow_ids_dtype(m)
    ids = spec(keys)
    if workspace is not None:
        ids_n = workspace.take("sort_ids", n, ids_dtype)
        np.copyto(ids_n, ids, casting="unsafe")
    else:
        ids_n = ids.astype(ids_dtype, copy=False)

    reg = get_registry()
    compile_ms = bk.warmup(keys.dtype, values.dtype if kv else None, ids_dtype)
    if reg.enabled and compile_ms:
        reg.set_gauge("engine.backend.compile_ms",
                      getattr(bk, "compile_ms", compile_ms), backend=bk.name)

    counts, monotone = bk.prescan(ids_n, m)
    starts = _starts(counts, m, workspace)
    out_keys = out_buffer(workspace, "keys", n, keys.dtype)
    out_values = out_buffer(workspace, "values", n, values.dtype) if kv else None
    if monotone:  # covers n <= 1, m == 1, and single-bucket inputs
        out_keys[:] = keys
        if kv:
            out_values[:] = values
    else:
        bk.scatter(keys, values, ids_n, counts, starts[:-1],
                   out_keys, out_values, monotone=False, arena=None)
    return MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": "fast", "backend": bk.name},
    )


# ---------------------------------------------------------------------------
# sort-based baseline: stable sort on the participating key bits
# ---------------------------------------------------------------------------

def _fused_sort_based(keys, spec: BucketSpec, values,
                      workspace: Workspace | None, *, bits: int) -> MultisplitResult:
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    m = spec.num_buckets
    n = keys.size
    labels = spec(keys)
    counts = np.bincount(labels, minlength=m)
    # buckets are monotone in the key iff the per-bucket key ranges are
    # disjoint and bucket-ordered: an O(n + m) check (indexed min/max
    # scatter), versus the O(n log n) full key argsort it replaces
    if n:
        info = (np.iinfo(keys.dtype) if np.issubdtype(keys.dtype, np.integer)
                else np.finfo(keys.dtype))
        lo = np.full(m, info.max, dtype=keys.dtype)
        hi = np.full(m, info.min, dtype=keys.dtype)
        np.minimum.at(lo, labels, keys)
        np.maximum.at(hi, labels, keys)
        nonempty = np.flatnonzero(counts)
        if (hi[nonempty][:-1] > lo[nonempty][1:]).any():
            raise ValueError(
                "sort-based multisplit requires buckets monotone in the key")
    starts = _starts(counts, m, workspace)

    # the emulated LSB radix sort orders stably by the low `bits` bits;
    # the masked keys fit in ceil(bits/8) bytes, so sort at that width
    work_dtype = next(dt for width, dt in ((8, np.uint8), (16, np.uint16),
                                           (32, np.uint32), (64, np.uint64))
                      if bits <= width)
    work = keys.astype(np.uint64)
    if bits < 64:
        work &= np.uint64((1 << bits) - 1)
    order = np.argsort(work.astype(work_dtype, copy=False), kind="stable")
    out_keys = np.take(keys, order, out=out_buffer(workspace, "keys", n, keys.dtype))
    out_values = None
    if values is not None:
        out_values = np.take(values, order,
                             out=out_buffer(workspace, "values", n, values.dtype))
    return MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method="radix_sort", num_buckets=m, timeline=None, stable=False,
        extra={"engine": "fast"},
    )


# ---------------------------------------------------------------------------
# randomized baseline: replay the seeded dart-throwing permutation
# ---------------------------------------------------------------------------

def _fused_randomized(keys, spec: BucketSpec, values, workspace: Workspace | None, *,
                      relaxation: float, warps_per_block: int, seed) -> MultisplitResult:
    # Mirrors randomized_multisplit's insertion math step for step (same
    # RNG draw sequence) with every device/kernel charge removed; see
    # repro/multisplit/randomized.py for the algorithm commentary.
    if relaxation < 1.0:
        raise ValueError(f"relaxation must be >= 1.0, got {relaxation}")
    m = spec.num_buckets
    n = keys.size
    kv = values is not None
    ids = spec(keys).astype(np.int64)
    rng = np.random.default_rng(seed)
    counts = np.bincount(ids, minlength=m)

    if n == 0:
        starts = _starts(counts, m, workspace)
        return MultisplitResult(
            keys=keys.copy(), values=(values.copy() if kv else None),
            bucket_starts=starts, method="randomized", num_buckets=m,
            timeline=None, stable=False, extra={"engine": "fast"},
        )

    tile = warps_per_block * WARP_WIDTH
    num_blocks = -(-n // tile)
    block = np.arange(n, dtype=np.int64) // tile
    bb = block * m + ids
    bb_counts = np.bincount(bb, minlength=num_blocks * m)
    expected = np.ceil(relaxation * tile * counts / n).astype(np.int64)
    caps = np.maximum(np.broadcast_to(expected, (num_blocks, m)).ravel(), 1)
    caps = np.maximum(caps, bb_counts)
    caps_bucket_major = caps.reshape(num_blocks, m).T.ravel()
    buf_base = np.zeros(m * num_blocks + 1, dtype=np.int64)
    np.cumsum(caps_bucket_major, out=buf_base[1:])
    total_slots = int(buf_base[-1])
    buffer_of = ids * num_blocks + block

    occupied = np.zeros(total_slots, dtype=bool)
    slot_of = np.empty(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    rounds = 0
    from repro.multisplit.randomized import _MAX_ROUNDS
    while pending.size and rounds < _MAX_ROUNDS:
        rounds += 1
        cap_p = caps_bucket_major[buffer_of[pending]]
        darts = buf_base[buffer_of[pending]] + (
            rng.integers(0, 1 << 62, size=pending.size) % cap_p
        )
        uniq, first = np.unique(darts, return_index=True)
        win_mask = np.zeros(pending.size, dtype=bool)
        win_mask[first] = True
        win_mask &= ~occupied[darts]
        winners = pending[win_mask]
        occupied[darts[win_mask]] = True
        slot_of[winners] = darts[win_mask]
        pending = pending[~win_mask]
    if pending.size:
        # pathological tail: group the stragglers by buffer and fill each
        # buffer's free slots in one pass, in ascending slot order — the
        # same assignment the emulation's per-item linear probe produces
        # (items are in index order, so per buffer they claim free slots
        # first-come-first-served)
        bufs = buffer_of[pending]
        by_buf = np.argsort(bufs, kind="stable")
        sorted_pending = pending[by_buf]
        uniq, first, per_buf = np.unique(bufs[by_buf],
                                         return_index=True, return_counts=True)
        for b, start, count in zip(uniq, first, per_buf):
            base = int(buf_base[b])
            free = np.flatnonzero(~occupied[base:int(buf_base[b + 1])])[:count]
            slots = base + free
            occupied[slots] = True
            slot_of[sorted_pending[start:start + count]] = slots

    # compaction: exclusive scan of the occupancy flags
    positions = np.cumsum(occupied, dtype=np.int64)
    positions -= occupied
    out_pos = positions[slot_of]
    out_keys = out_buffer(workspace, "keys", n, keys.dtype)
    out_keys[out_pos] = keys
    out_values = None
    if kv:
        out_values = out_buffer(workspace, "values", n, values.dtype)
        out_values[out_pos] = values

    starts = _starts(counts, m, workspace)
    res = MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method="randomized", num_buckets=m, timeline=None, stable=False,
        extra={"engine": "fast"},
    )
    res.extra["relaxation"] = relaxation
    res.extra["buffer_slots"] = total_slots
    return res
