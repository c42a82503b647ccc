"""Result-only multisplit passes (the fast engine).

The emulated implementations in :mod:`repro.multisplit` pay for full
SIMT fidelity on every call: warp-tile padding, ``ceil(log2 m)`` ballot
bitmap rounds, shared-memory bank audits, and cost-model pricing. When
the caller only wants the permuted output — SSSP bucketing, the
examples, batched serving traffic — all of that is overhead.

This module provides one result-only pass per method family that
produces **bit-identical** keys/values/``bucket_starts`` to the
corresponding emulated method, with ``timeline=None``:

* stable family (``direct``/``warp``/``block``/``sparse_block``/
  ``scan_split``/``recursive_split``/``reduced_bit``) — every one of
  these is a *stable* multisplit, and a stable multisplit's permutation
  is unique. It is the sharded and stream engines' core
  (:func:`~repro.engine.stream.run_core`) at P = 1, one shard on one
  worker: the backend's two kernels (:mod:`repro.engine.backends`) run
  once over the whole input — ``prescan`` builds the ``m``-bin
  histogram, one scan turns it into bucket starts, and ``scatter``
  applies the stable permutation, gathering straight into the output
  because a single shard's bucket runs tile it. A caller's
  :class:`~repro.engine.backends.KernelBackend` instance (``backend=``)
  takes this same path.
* ``radix_sort`` — a stable sort on the participating key bits, under
  the emulation's key and monotonicity rules
  (:func:`~repro.multisplit.reduced_bit.sort_based_counts`).
* ``randomized`` — the emulation's own seeded dart-throwing insertion
  (:func:`~repro.multisplit.randomized.throw_darts`), unpriced.

Method-specific *algorithmic* constraints (warp-level's ``m <= 32``,
scan-split's ``m == 2``, reduced-bit's 32-bit key-value packing,
sort-based's bucket monotonicity) are enforced identically so switching
engines never changes the API contract. Emulation-only guards (the
block-level histogram footprint cap) do not apply.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.bucketing import BucketSpec
from repro.multisplit.randomized import throw_darts
from repro.multisplit.result import MultisplitResult
from .backends import NumpyBackend, resolve_backend
from .stream import STABLE_METHODS, prologue, record_call, run_in_memory
from .workspace import Workspace, out_buffer

__all__ = ["fast_multisplit", "FAST_METHODS", "STABLE_METHODS"]

FAST_METHODS = STABLE_METHODS | {"radix_sort", "randomized"}


def fast_multisplit(keys: np.ndarray, spec_or_fn, num_buckets: int | None = None, *,
                    values: np.ndarray | None = None, method: str = "auto",
                    workspace: Workspace | None = None, backend=None,
                    **kwargs) -> MultisplitResult:
    """Result-only multisplit, bit-identical to ``engine="emulate"``.

    ``backend`` is ``None``/``"numpy"`` (the default numpy kernels) or
    a :class:`~repro.engine.backends.KernelBackend` instance; the stable
    family calls its ``prescan`` and ``scatter`` once each over the
    whole input, and it never changes results. The non-stable methods
    have no such kernels and reject an instance of any class but
    :class:`~repro.engine.backends.NumpyBackend` itself.
    ``kwargs`` takes the emulated methods' knobs
    (:data:`~repro.engine.stream.METHOD_KWARGS`): launch-shape
    parameters (``warps_per_block``, ``items_per_lane``, ``device``)
    are ignored because they do not affect results, while
    result-affecting ones (``bits``, ``relaxation``, ``seed``) are
    honored. Any other name raises :class:`TypeError`.
    """
    spec, method, keys, values = prologue(
        "fast_multisplit", keys, values, spec_or_fn, num_buckets, method,
        kwargs, methods=FAST_METHODS)
    bk = resolve_backend(backend)
    if type(bk) is not NumpyBackend and method not in STABLE_METHODS:
        raise ValueError(
            f"backend={bk!r} supports the stable method family "
            f"({', '.join(sorted(STABLE_METHODS))}); {method!r} runs on the "
            "default numpy backend only")

    if method in STABLE_METHODS:
        def run():
            return run_in_memory("fast", keys, values, spec, method,
                                 workspace, 1, bk, 1)
    elif method == "radix_sort":
        def run():
            return _fused_sort_based(keys, spec, values, workspace,
                                     bits=int(kwargs.get("bits", 32)))
    else:
        def run():
            return _fused_randomized(
                keys, spec, values, workspace,
                relaxation=float(kwargs.get("relaxation", 2.0)),
                warps_per_block=int(kwargs.get("warps_per_block", 8)),
                seed=kwargs.get("seed", 0))
    return record_call("fast", method, values is not None, 1, run)


def _starts(counts: np.ndarray, m: int, workspace: Workspace | None) -> np.ndarray:
    starts = out_buffer(workspace, "starts", m + 1, np.int64)
    starts[0] = 0
    np.cumsum(counts, out=starts[1:])
    return starts


# ---------------------------------------------------------------------------
# sort-based baseline: stable sort on the participating key bits
# ---------------------------------------------------------------------------

def _fused_sort_based(keys, spec: BucketSpec, values,
                      workspace: Workspace | None, *, bits: int) -> MultisplitResult:
    # a module-level import would be circular: repro.sort imports the engine
    from repro.multisplit.reduced_bit import sort_based_counts

    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    m = spec.num_buckets
    n = keys.size
    starts = _starts(sort_based_counts(keys, spec(keys), m), m, workspace)

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
# randomized baseline: the emulation's seeded dart throwing, unpriced
# ---------------------------------------------------------------------------

def _fused_randomized(keys, spec: BucketSpec, values, workspace: Workspace | None, *,
                      relaxation: float, warps_per_block: int, seed) -> MultisplitResult:
    m = spec.num_buckets
    n = keys.size
    kv = values is not None
    ids = spec(keys).astype(np.int64)
    counts = np.bincount(ids, minlength=m)
    slot_of, occupied, _, _ = throw_darts(ids, counts, warps_per_block,
                                          relaxation, np.random.default_rng(seed))
    starts = _starts(counts, m, workspace)
    if n == 0:
        return MultisplitResult(
            keys=keys.copy(), values=(values.copy() if kv else None),
            bucket_starts=starts, method="randomized", num_buckets=m,
            timeline=None, stable=False, extra={"engine": "fast"},
        )

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

    res = MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method="randomized", num_buckets=m, timeline=None, stable=False,
        extra={"engine": "fast"},
    )
    res.extra["relaxation"] = relaxation
    res.extra["buffer_slots"] = occupied.size
    return res
