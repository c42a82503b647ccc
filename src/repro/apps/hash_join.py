"""Partitioned hash join (paper Section 1; He et al. [14], Diamos [11]).

The multisplit citations include "hash-join for relational databases to
group low-bit keys": a radix/hash join first partitions *both*
relations by the low bits of the join key — a multisplit with
``2^radix_bits`` buckets — so that matching tuples land in the same
partition pair, each small enough to join in shared memory.

:func:`hash_join` implements the full pipeline: multisplit both sides,
then join each partition pair (sort-merge within the partition, the
shared-memory-friendly choice), returning the joined row-id pairs.
Equal join keys across partitions are impossible by construction, which
is the point of the grouping step.

``engine="emulate"`` (default) runs on the emulated device and prices a
timeline. Any result-only engine (``"fast"``/``"sharded"``/``"auto"``)
runs the identical pipeline for real: the partition step goes through
the selected multisplit engine and the in-partition sort through
:func:`repro.sort.fast_radix_sort`, with ``max_workers=`` forwarded to
both. Outputs are bit-identical across engines.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit import multisplit, CustomBuckets
from repro.simt.config import K40C, WARP_WIDTH
from repro.simt.device import Device

__all__ = ["hash_join"]


def _low_bits_spec(radix_bits: int) -> CustomBuckets:
    m = 1 << radix_bits
    mask = np.uint32(m - 1)
    return CustomBuckets(lambda k: (k & mask).astype(np.uint32), m,
                         instruction_cost=1, elementwise=True)


def hash_join(left_keys: np.ndarray, right_keys: np.ndarray, *,
              radix_bits: int = 4, device: Device | None = None,
              engine: str = "emulate", max_workers: int | None = None):
    """Inner join of two key columns; returns ``(left_rows, right_rows)``.

    The result lists every pair ``(i, j)`` with
    ``left_keys[i] == right_keys[j]``, sorted by key then row ids —
    deterministic and directly comparable to a nested-loop oracle.
    """
    if not 1 <= radix_bits <= 16:
        raise ValueError(f"radix_bits must be in [1, 16], got {radix_bits}")
    left_keys = np.ascontiguousarray(left_keys, dtype=np.uint32)
    right_keys = np.ascontiguousarray(right_keys, dtype=np.uint32)
    if left_keys.ndim != 1 or right_keys.ndim != 1:
        raise ValueError("join inputs must be 1-D key columns")
    emulate = engine == "emulate"
    if not emulate and device is not None:
        raise ValueError(
            "device= is the emulated pipeline's knob; with a result-only "
            f"engine ({engine!r}) there is no device to account against")
    spec = _low_bits_spec(radix_bits)
    m = spec.num_buckets
    method = "warp" if m <= 32 else "block"

    # partition both relations (row ids ride along as values)
    if emulate:
        dev = device or Device(K40C)
        split_kw: dict = {"device": dev}
    else:
        dev = None
        split_kw = {"engine": engine, "max_workers": max_workers}
    lres = multisplit(left_keys, spec, values=np.arange(left_keys.size, dtype=np.uint32),
                      method=method, **split_kw)
    rres = multisplit(right_keys, spec, values=np.arange(right_keys.size, dtype=np.uint32),
                      method=method, **split_kw)

    out_l, out_r = [], []
    pairs_done = 0
    kernel = (dev.kernel("join:per_partition", warps_per_block=8) if emulate
              else _NullKernel())
    with kernel as k:
        for b in range(m):
            lk = lres.bucket(b)
            rk = rres.bucket(b)
            if lk.size == 0 or rk.size == 0:
                continue
            lrow = lres.bucket_values(b)
            rrow = rres.bucket_values(b)
            # sort-merge inside the partition
            if emulate:
                lo = np.argsort(lk, kind="stable")
                ro = np.argsort(rk, kind="stable")
                lk_s, lrow_s = lk[lo], lrow[lo]
                rk_s, rrow_s = rk[ro], rrow[ro]
            else:
                from repro.sort.fast_radix import fast_radix_sort
                lk_s, lrow_s = fast_radix_sort(lk, lrow, engine=engine,
                                               max_workers=max_workers)
                rk_s, rrow_s = fast_radix_sort(rk, rrow, engine=engine,
                                               max_workers=max_workers)
            starts = np.searchsorted(rk_s, lk_s, side="left")
            ends = np.searchsorted(rk_s, lk_s, side="right")
            counts = ends - starts
            total = int(counts.sum())
            if total:
                li = np.repeat(np.arange(lk_s.size), counts)
                offs = np.repeat(ends - np.cumsum(counts), counts) + np.arange(total)
                out_l.append(lrow_s[li])
                out_r.append(rrow_s[offs])
                pairs_done += total
            if emulate:
                # cost: both partitions stream through shared once, plus the
                # in-partition sort's ranking work
                work = lk.size + rk.size
                k.gmem.read_streaming(work, 8)
                k.counters.warp_instructions += (-(-work // WARP_WIDTH)) * 24
                k.smem.access_coalesced(-(-work // WARP_WIDTH) * 3)
        if emulate:
            k.gmem.write_streaming(max(pairs_done, 1), 8)
            k.smem.alloc(8 * 1024)

    if out_l:
        lcat = np.concatenate(out_l)
        rcat = np.concatenate(out_r)
    else:
        lcat = np.zeros(0, dtype=np.uint32)
        rcat = np.zeros(0, dtype=np.uint32)
    order = np.lexsort((rcat, lcat, left_keys[lcat] if lcat.size else lcat))
    return lcat[order], rcat[order]


class _NullKernel:
    """Context-manager stand-in for the device kernel on fast paths."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
