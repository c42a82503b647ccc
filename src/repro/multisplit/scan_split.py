"""Scan-based split and its recursive extension (paper Sections 3.2, 6.1).

For two buckets, the classic split [13] is: build a binary flag vector
(*labeling*), one device-wide exclusive scan over the flags (*scan*),
then scatter both sides with one kernel (*split*) — falses compact
left-to-right while trues compact right-to-left, sharing the single
scan.

For ``m > 2`` the *recursive* variant performs ``ceil(log2 m)`` rounds
of binary split on successive bits of the bucket id (LSB first, so the
result is stable). The paper reports only the ideal lower bound
``log2(m) x t_split``; we implement the real algorithm *and* provide
:func:`recursive_split_lower_bound_ms` to reproduce Table 4's bound rows.
"""

from __future__ import annotations

import numpy as np

from repro.primitives.scan import device_exclusive_scan
from repro.simt.bits import ilog2_ceil
from repro.simt.config import WARP_WIDTH
from .bucketing import BucketSpec
from ._common import as_inputs, resolve_device, VALUE_BYTES
from .result import MultisplitResult

__all__ = [
    "scan_split_multisplit",
    "recursive_scan_split_multisplit",
    "recursive_split_lower_bound_ms",
]


def _split_round(dev, keys, values, ids, bit: int, spec_cost: int, kv: bool):
    """One stable binary-split round on bit ``bit`` of the bucket ids."""
    n = keys.size
    kb = keys.dtype.itemsize
    warps = -(-n // WARP_WIDTH)
    flags = ((ids >> np.uint32(bit)) & np.uint32(1)).astype(np.int64)

    with dev.kernel("labeling:flags") as k:
        k.gmem.read_streaming(n, kb)
        k.counters.warp_instructions += warps * (spec_cost + 2)
        k.gmem.write_streaming(n, 4)

    scan = device_exclusive_scan(dev, flags, stage="scan")
    total_ones = int(scan[-1] + flags[-1]) if n else 0
    boundary = n - total_ones
    dest = np.where(flags != 0, boundary + scan,
                    np.arange(n, dtype=np.int64) - scan)

    with dev.kernel("split:scatter") as k:
        k.gmem.read_streaming(n, kb)
        if kv:
            k.gmem.read_streaming(n, VALUE_BYTES)
        k.gmem.read_streaming(n, 4)  # scan results
        k.counters.warp_instructions += warps * 3
        pad = (-n) % WARP_WIDTH
        idx = np.concatenate([dest, np.zeros(pad, dtype=np.int64)]).reshape(-1, WARP_WIDTH)
        active = None
        if pad:
            active = np.concatenate(
                [np.ones(n, dtype=bool), np.zeros(pad, dtype=bool)]
            ).reshape(-1, WARP_WIDTH)
        k.gmem.write_warp(idx, kb, active)
        if kv:
            k.gmem.write_warp(idx, VALUE_BYTES, active)

    order = np.argsort(dest, kind="stable")
    return keys[order], (values[order] if kv else None), ids[order]


def scan_split_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                          values: np.ndarray | None = None,
                          device=None) -> MultisplitResult:
    """Two-bucket stable multisplit via one scan-based split."""
    if spec.num_buckets != 2:
        raise ValueError(
            f"scan-based split handles exactly 2 buckets, got {spec.num_buckets}; "
            "use recursive_scan_split_multisplit for more"
        )
    return recursive_scan_split_multisplit(keys, spec, values=values, device=device,
                                           _method="scan_split")


def recursive_scan_split_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                                    values: np.ndarray | None = None,
                                    device=None, _method: str = "recursive_split",
                                    ) -> MultisplitResult:
    """Stable multisplit via ``ceil(log2 m)`` LSB binary-split rounds."""
    dev = resolve_device(device)
    keys, values = as_inputs(keys, values)
    kv = values is not None
    m = spec.num_buckets
    ids = spec(keys)
    cur_k, cur_v, cur_ids = keys.copy(), (values.copy() if kv else None), ids.copy()
    for bit in range(max(1, ilog2_ceil(m)) if m > 1 else 1):
        cur_k, cur_v, cur_ids = _split_round(dev, cur_k, cur_v, cur_ids, bit,
                                             spec.instruction_cost, kv)
    counts = np.bincount(ids, minlength=m)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return MultisplitResult(
        keys=cur_k, values=cur_v, bucket_starts=starts, method=_method,
        num_buckets=m, timeline=dev.timeline, stable=True,
    )


def recursive_split_lower_bound_ms(single_split_ms: float, m: int) -> float:
    """Table 4's ideal bound: ``log2(m)`` times one balanced split's time."""
    if m < 2:
        return single_split_ms
    return ilog2_ceil(m) * single_split_ms
