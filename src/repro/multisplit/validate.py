"""Output validation: the multisplit contract of paper Section 3.1.

A valid (stable) multisplit output must be

1. a permutation of the input,
2. partitioned into contiguous buckets in ascending bucket-id order,
   with boundaries matching ``bucket_starts``, and
3. (if stable) input-order preserving within every bucket.

:func:`check_multisplit` raises :class:`MultisplitValidationError` with
a precise description on the first violated property; it is used by the
test suite and by the failure-injection tests.
"""

from __future__ import annotations

import numpy as np

from .bucketing import BucketSpec
from .ids import narrow_ids_dtype
from .result import MultisplitResult

__all__ = [
    "MultisplitValidationError",
    "SpecValidationError",
    "check_multisplit",
    "reference_multisplit",
    "validate_spec",
]


class MultisplitValidationError(AssertionError):
    """An output violated the multisplit contract."""


class SpecValidationError(ValueError):
    """A bucket spec failed the input-validator battery.

    Raised by :func:`validate_spec` (and ``multisplit(strict=True)``)
    when a spec produces out-of-range / wrapped / non-deterministic ids,
    or claims to be elementwise but is not.
    """


def reference_multisplit(keys: np.ndarray, spec: BucketSpec,
                         values: np.ndarray | None = None):
    """Oracle stable multisplit via ``np.argsort(kind='stable')``.

    Returns ``(keys_out, values_out, bucket_starts)``.
    """
    keys = np.asarray(keys)
    ids = spec(keys)
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=spec.num_buckets)
    starts = np.zeros(spec.num_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    values_out = values[order] if values is not None else None
    return keys[order], values_out, starts


def validate_spec(spec: BucketSpec, keys: np.ndarray, *,
                  sample_size: int = 4096, seed: int = 0x5EED) -> None:
    """Probe ``spec`` for contract violations on a bounded key sample.

    The battery runs every check on a deterministic sample of at most
    ``sample_size`` keys (always including the extreme key values, so
    domain bugs on e.g. negative keys can't hide in the tail):

    1. ``ids()`` returns an integer array of the input's shape,
    2. every id lies in ``[0, num_buckets)``,
    3. ``eval_into()`` agrees bit-for-bit with ``ids()`` on the
       narrowed id dtype the engines use, with and without a pooled
       arena — this is where silent wraps (negative keys cast to
       uint32) surface,
    4. a spec claiming ``elementwise=True`` yields the same ids when
       evaluated chunk-by-chunk, the way the sharded/stream prescans
       call it,
    5. two evaluations agree (determinism).

    Raises :class:`SpecValidationError` with a precise description on
    the first violation.  Specs whose domain rejects some of the sampled
    keys (a ``ValueError`` from the spec itself, e.g. ``RangeBuckets``)
    propagate that error unchanged — a clear domain error is already a
    fail-fast answer.
    """
    if not isinstance(spec, BucketSpec):
        raise TypeError(
            f"expected a BucketSpec, got {type(spec).__name__}; wrap "
            "callables via as_bucket_spec(fn, num_buckets)")
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise SpecValidationError(f"keys must be 1-D, got shape {keys.shape}")
    m = spec.num_buckets
    n = keys.size
    if n <= sample_size:
        sample = np.ascontiguousarray(keys)
    else:
        rng = np.random.default_rng(seed)
        pick = rng.integers(0, n, sample_size - 2)
        sample = np.empty(sample_size, dtype=keys.dtype)
        sample[:-2] = keys[pick]
        sample[-2] = keys.min()
        sample[-1] = keys.max()

    ids = np.asarray(spec.ids(sample))
    if ids.shape != sample.shape:
        raise SpecValidationError(
            f"{spec!r}.ids returned shape {ids.shape} for input shape "
            f"{sample.shape}")
    if ids.dtype.kind not in "iu":
        raise SpecValidationError(
            f"{spec!r}.ids returned non-integer dtype {ids.dtype}")
    if n:
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= m:
            raise SpecValidationError(
                f"{spec!r} produced bucket ids in [{lo}, {hi}] outside "
                f"[0, {m}): out-of-range or wrapped ids would corrupt "
                "the scatter")

    # eval_into parity on the narrowed engine dtype, arena and no-arena
    out = np.empty(sample.size, dtype=narrow_ids_dtype(m))
    spec.eval_into(sample, out)
    if not np.array_equal(out, ids):
        raise SpecValidationError(
            f"{spec!r}.eval_into(arena=None) disagrees with ids() on "
            f"dtype {out.dtype} (wrapped or truncated ids)")
    from repro.engine.workspace import Workspace  # lazy: engine imports us
    out.fill(0)
    spec.eval_into(sample, out, Workspace())
    if not np.array_equal(out, ids):
        raise SpecValidationError(
            f"{spec!r}.eval_into(arena=...) disagrees with ids() on "
            f"dtype {out.dtype} (wrapped or truncated ids)")

    if spec.elementwise and sample.size >= 2:
        # the sharded/stream engines evaluate elementwise specs one
        # shard/chunk at a time; uneven chunks catch positional cheats
        chunks = np.array_split(sample, min(3, sample.size))
        chunked = np.concatenate([np.asarray(spec.ids(c)) for c in chunks])
        if not np.array_equal(chunked, ids):
            raise SpecValidationError(
                f"{spec!r} claims elementwise=True but chunked "
                "evaluation disagrees with whole-array evaluation")

    if not np.array_equal(np.asarray(spec.ids(sample)), ids):
        raise SpecValidationError(
            f"{spec!r} is non-deterministic: two ids() evaluations of "
            "the same sample disagree")


def check_multisplit(result: MultisplitResult, keys_in: np.ndarray, spec: BucketSpec,
                     values_in: np.ndarray | None = None, *,
                     require_stable: bool | None = None) -> None:
    """Validate ``result`` against the input; raises on violation."""
    keys_in = np.asarray(keys_in)
    m = spec.num_buckets
    if result.num_buckets != m:
        raise MultisplitValidationError(
            f"result reports {result.num_buckets} buckets, spec has {m}"
        )
    if result.keys.shape != keys_in.shape:
        raise MultisplitValidationError(
            f"output shape {result.keys.shape} != input shape {keys_in.shape}"
        )
    starts = np.asarray(result.bucket_starts)
    if starts.shape != (m + 1,):
        raise MultisplitValidationError(
            f"bucket_starts must have shape ({m + 1},), got {starts.shape}"
        )
    if starts[0] != 0 or starts[-1] != keys_in.size:
        raise MultisplitValidationError(
            f"bucket_starts must span [0, n]: got [{starts[0]}, {starts[-1]}] for n={keys_in.size}"
        )
    if (np.diff(starts) < 0).any():
        raise MultisplitValidationError("bucket_starts must be non-decreasing")

    # boundary correctness: counts must match the input histogram
    counts_in = np.bincount(spec(keys_in), minlength=m)
    if not (np.diff(starts) == counts_in).all():
        raise MultisplitValidationError(
            "bucket sizes disagree with input histogram: "
            f"{np.diff(starts).tolist()} vs {counts_in.tolist()}"
        )

    # contiguity: every output element lies in the bucket owning its slot
    ids_out = spec(result.keys)
    slot_bucket = np.searchsorted(starts[1:], np.arange(keys_in.size), side="right")
    if not (ids_out == slot_bucket).all():
        bad = int(np.argmax(ids_out != slot_bucket))
        raise MultisplitValidationError(
            f"element at output position {bad} has bucket {int(ids_out[bad])} "
            f"but sits in bucket {int(slot_bucket[bad])}'s range"
        )

    # permutation: multiset of keys preserved
    if not np.array_equal(np.sort(keys_in, kind="stable"), np.sort(result.keys, kind="stable")):
        raise MultisplitValidationError("output keys are not a permutation of the input")

    if values_in is not None or result.values is not None:
        if result.values is None or values_in is None:
            raise MultisplitValidationError("key-value run missing values on one side")
        # each (key, value) pair must be preserved; lexsort on the
        # original dtypes — casting through int64 would corrupt uint64
        # values >= 2^63 and truncate floats, letting the oracle
        # false-pass (or false-fail) on exactly the pairs it guards
        values_in_arr = np.asarray(values_in)
        values_out_arr = np.asarray(result.values)
        order_in = np.lexsort((values_in_arr, keys_in))
        order_out = np.lexsort((values_out_arr, result.keys))

        def _eq(a, b):
            nan_ok = a.dtype.kind == "f" and b.dtype.kind == "f"
            return np.array_equal(a, b, equal_nan=nan_ok)

        if not (_eq(keys_in[order_in], result.keys[order_out])
                and _eq(values_in_arr[order_in], values_out_arr[order_out])):
            raise MultisplitValidationError("key-value pairing was not preserved")

    stable = result.stable if require_stable is None else require_stable
    if stable:
        ref_keys, ref_vals, ref_starts = reference_multisplit(keys_in, spec, values_in)
        if not np.array_equal(ref_keys, result.keys):
            raise MultisplitValidationError("output is not the stable permutation")
        if ref_vals is not None and not np.array_equal(ref_vals, result.values):
            raise MultisplitValidationError("values are not in stable order")
        if not np.array_equal(ref_starts, starts.astype(np.int64)):
            raise MultisplitValidationError("bucket_starts differ from oracle")
