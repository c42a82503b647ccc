"""Reduced-bit sort multisplit (paper Section 3.4).

Sort only what multisplit needs: generate a *label* (bucket id) per key
and radix-sort on the ``ceil(log2 m)`` label bits.

* key-only — sort (label, key) pairs on the label bits; the permuted
  keys are the multisplit output.
* key-value — pack each (key, value) pair into one 64-bit word, sort
  (label, packed) pairs on the label bits, unpack. The paper found this
  pack/sort/unpack pipeline faster than sorting (label, index) and
  gathering, because the gather's random accesses worsen with ``m``.

LSB radix sort is stable, so the result is a stable multisplit.
"""

from __future__ import annotations

import numpy as np

from repro.simt.bits import ilog2_ceil
from repro.sort.radix import radix_sort
from .bucketing import BucketSpec
from ._common import (as_inputs, packs_in_64_bits, resolve_device, KEY_BYTES,
                      VALUE_BYTES)
from .result import MultisplitResult

__all__ = ["reduced_bit_multisplit", "sort_based_multisplit",
           "sort_based_counts", "identity_sort_multisplit"]


def _label(dev, keys, spec: BucketSpec) -> np.ndarray:
    n = keys.size
    with dev.kernel("labeling:make_labels") as k:
        k.gmem.read_streaming(n, keys.dtype.itemsize)
        k.counters.warp_instructions += (-(-n // 32)) * spec.instruction_cost
        k.gmem.write_streaming(n, 4)
    return spec(keys)


def _starts_from_labels(labels: np.ndarray, m: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=m)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def reduced_bit_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                           values: np.ndarray | None = None,
                           device=None) -> MultisplitResult:
    """Stable multisplit by radix-sorting only the bucket-id bits."""
    dev = resolve_device(device)
    keys, values = as_inputs(keys, values)
    m = spec.num_buckets
    bits = max(1, ilog2_ceil(m))
    labels = _label(dev, keys, spec)
    n = keys.size

    if values is None:
        sorted_labels, sorted_keys = radix_sort(
            dev, labels, keys, bits=bits, key_bytes=4,
            value_bytes=keys.dtype.itemsize, stage="sort",
        )
        return MultisplitResult(
            keys=sorted_keys, values=None,
            bucket_starts=_starts_from_labels(labels, m),
            method="reduced_bit", num_buckets=m, timeline=dev.timeline, stable=True,
        )

    if not packs_in_64_bits(keys.dtype, values.dtype):
        raise ValueError(
            "reduced-bit key-value multisplit packs (key, value) into 64 bits "
            "and therefore requires 32-bit keys and values of at most 32 "
            "bits; use direct/warp/block/sparse_block for wider pairs")
    with dev.kernel("pack:pack_kv") as k:
        k.gmem.read_streaming(n, KEY_BYTES)
        k.gmem.read_streaming(n, VALUE_BYTES)
        k.gmem.write_streaming(n, 8)
    value_bits = np.dtype(f"u{values.dtype.itemsize}")
    packed = ((keys.view(np.uint32).astype(np.uint64) << np.uint64(32))
              | values.view(value_bits))
    sorted_labels, sorted_packed = radix_sort(
        dev, labels, packed, bits=bits, key_bytes=4, value_bytes=8, stage="sort",
    )
    with dev.kernel("unpack:unpack_kv") as k:
        k.gmem.read_streaming(n, 8)
        k.gmem.write_streaming(n, KEY_BYTES)
        k.gmem.write_streaming(n, VALUE_BYTES)
    out_keys = (sorted_packed >> np.uint64(32)).astype(np.uint32).view(keys.dtype)
    out_values = sorted_packed.astype(value_bits).view(values.dtype)
    return MultisplitResult(
        keys=out_keys, values=out_values,
        bucket_starts=_starts_from_labels(labels, m),
        method="reduced_bit", num_buckets=m, timeline=dev.timeline, stable=True,
    )


def sort_based_counts(keys: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """The sort-based method's rules on every engine; returns the
    ``m``-bin histogram of ``labels``, the keys' bucket ids.

    The radix sort orders non-negative integer keys by their bits, so
    other keys raise: :class:`TypeError` for bool and floating keys,
    :class:`ValueError` for negative ones. Sorting the keys is a
    multisplit only when the buckets are monotone in the key, i.e. the
    nonempty buckets' key ranges are disjoint and in bucket order: an
    O(n + m) per-bucket min/max check that raises :class:`ValueError`.
    """
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(
            f"radix_sort requires integer keys, got dtype {keys.dtype}; "
            "the uint64 digit extraction silently truncates anything else")
    counts = np.bincount(labels, minlength=m)
    if keys.size:
        info = np.iinfo(keys.dtype)
        lo = np.full(m, info.max, dtype=keys.dtype)
        hi = np.full(m, info.min, dtype=keys.dtype)
        np.minimum.at(lo, labels, keys)
        np.maximum.at(hi, labels, keys)
        lo, hi = lo[counts > 0], hi[counts > 0]
        if (hi[:-1] > lo[1:]).any():
            raise ValueError(
                "sort-based multisplit requires buckets monotone in the key")
        if lo[0] < 0:  # the smallest key, the buckets being monotone
            raise ValueError("radix_sort orders keys by their raw low bits: "
                             "negative signed keys would sort last")
    return counts


def sort_based_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                          values: np.ndarray | None = None,
                          device=None, bits: int = 32) -> MultisplitResult:
    """Multisplit by fully radix-sorting the keys (paper Section 3.3).

    Valid only when bucket ids are monotone in the key (larger buckets
    hold larger keys), e.g. :class:`RangeBuckets`, and the keys are
    non-negative integers (:func:`sort_based_counts`). The result
    orders keys within buckets too — the wasted work the paper's
    methods avoid — and is *not* a stable multisplit (Figure 1,
    example 3).
    """
    dev = resolve_device(device)
    keys, values = as_inputs(keys, values)
    m = spec.num_buckets
    counts = sort_based_counts(keys, spec(keys), m)
    sorted_keys, sorted_values = radix_sort(
        dev, keys, values, bits=bits, key_bytes=KEY_BYTES, value_bytes=VALUE_BYTES,
        stage="sort",
    )
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return MultisplitResult(
        keys=sorted_keys, values=sorted_values, bucket_starts=starts,
        method="radix_sort", num_buckets=m, timeline=dev.timeline, stable=False,
    )


def identity_sort_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                             values: np.ndarray | None = None,
                             device=None) -> MultisplitResult:
    """The trivial identity-bucket case (Table 4's footnoted rows).

    When every key *is* its bucket id, sorting just the ``ceil(log2 m)``
    key bits is a stable multisplit with no labeling overhead.
    """
    dev = resolve_device(device)
    keys, values = as_inputs(keys, values)
    m = spec.num_buckets
    if keys.size and int(keys.max()) >= m:
        raise ValueError("identity-sort multisplit requires keys < num_buckets")
    bits = max(1, ilog2_ceil(m))
    sorted_keys, sorted_values = radix_sort(
        dev, keys, values, bits=bits, key_bytes=KEY_BYTES, value_bytes=VALUE_BYTES,
        stage="sort",
    )
    return MultisplitResult(
        keys=sorted_keys, values=sorted_values,
        bucket_starts=_starts_from_labels(spec(keys), m),
        method="identity_sort", num_buckets=m, timeline=dev.timeline, stable=True,
    )
