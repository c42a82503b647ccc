"""Range and digit ids are exact on every evaluation path.

``RangeBuckets`` computes its ids with a right shift in the key's own
dtype at ``lo == 0`` when the bucket width is a power of two, and in
uint64 otherwise; ``DigitBuckets`` shifts, masks and flips the sign digit
straight into the id buffer. Each form must agree with a Python-int
oracle, and with itself across ``ids()``, ``eval_into`` without an arena
and ``eval_into`` with one. The last tests pin that the evaluation the
engines' hot loops run allocates nothing key-sized.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Workspace
from repro.multisplit import RangeBuckets
from repro.multisplit.ids import narrow_ids_dtype
from repro.sort.fast_radix import DigitBuckets

INT_DTYPES = ["int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64"]

RANGE_SPECS = {
    "default_u32": RangeBuckets(32),          # shift, no domain check
    "pow2_narrow": RangeBuckets(4, 0, 64),    # shift by 4
    "low_half_u64": RangeBuckets(2, 0, 2**63),  # shift by 62
    # every other domain takes the uint64 form
    "pow2_width_offset": RangeBuckets(8, 96, 96 + 8 * 16),
    "pow2_width_unaligned": RangeBuckets(4, 3, 3 + 4 * 64),
    "divisible_3": RangeBuckets(3, 0, 300),
    "divisible_wide": RangeBuckets(5, 0, 5000),
    "ends_at_u8_max": RangeBuckets(5, 0, 255),   # uint8 keys need the max
    "indivisible_7": RangeBuckets(7, 1000, 250_000),
    "indivisible_pow2_floor": RangeBuckets(3, 0, 50),  # 50 // 3 == 16
    "top_half_u64": RangeBuckets(2, 2**63, 2**64),
}


def paths(spec):
    """``ids()``, ``eval_into`` without an arena and ``eval_into`` with
    one, each as ``keys -> ids``; the last two write the engines'
    narrowed id dtype."""
    def into(arena):
        def run(keys):
            out = np.full(keys.size, 255,
                          dtype=narrow_ids_dtype(spec.num_buckets))
            spec.eval_into(keys, out, arena)
            return out
        return run

    return [lambda keys: np.asarray(spec.ids(keys)), into(None),
            into(Workspace())]


def three_paths(spec, keys):
    return [path(keys) for path in paths(spec)]


def range_oracle(spec, key) -> int:
    """``(key - lo) * m // (hi - lo)`` in Python ints; a float key is
    truncated first, as its uint64 cast does."""
    return (int(key) - spec.lo) * spec.num_buckets // (spec.hi - spec.lo)


def in_domain(spec, dtype):
    """``(lo, hi)`` of the keys ``dtype`` holds inside the spec's
    domain, or ``None`` when it holds none."""
    dt = np.dtype(dtype)
    if dt.kind == "f":
        return spec.lo, spec.hi
    info = np.iinfo(dt)
    lo, hi = max(spec.lo, int(info.min)), min(spec.hi, int(info.max) + 1)
    return (lo, hi) if lo < hi else None


def edge_keys(spec, lo, hi) -> list[int]:
    """Domain ends and both sides of every bucket boundary in ``[lo, hi)``."""
    m, span = spec.num_buckets, spec.hi - spec.lo
    starts = [spec.lo - (-b * span // m) for b in range(1, m)]
    vals = [lo, hi - 1] + [s + d for s in starts for d in (-1, 0)]
    return [v for v in vals if lo <= v < hi]


def key_values(dtype, lo, hi):
    """A strategy of key lists drawn from ``[lo, hi)`` in ``dtype``
    (floats of the dtype's width, so each is exact in it)."""
    dt = np.dtype(dtype)
    if dt.kind == "f":
        keys = st.floats(min_value=lo, max_value=hi, exclude_max=True,
                         width=dt.itemsize * 8)
    else:
        keys = st.integers(lo, hi - 1)
    return st.lists(keys, max_size=64)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no undefined casts
@pytest.mark.parametrize("dtype", INT_DTYPES + ["float32", "float64"])
@pytest.mark.parametrize("name", list(RANGE_SPECS))
def test_range_ids_match_python_ints(name, dtype):
    spec = RANGE_SPECS[name]
    bounds = in_domain(spec, dtype)
    if bounds is None:  # no key of the dtype is in the domain
        top = np.array([np.iinfo(dtype).max], dtype=dtype)
        for path in paths(spec):
            with pytest.raises(ValueError, match="outside bucket domain"):
                path(top)
        return
    lo, hi = bounds

    def check(vals):
        keys = np.array(vals, dtype=dtype)
        expected = [range_oracle(spec, k) for k in keys.tolist()]
        for got in three_paths(spec, keys):
            assert got.tolist() == expected, (spec, dtype, keys.tolist())

    if np.dtype(dtype).kind in "iu":
        check(edge_keys(spec, lo, hi))
        # the nearest keys outside the domain, where the dtype holds them
        info = np.iinfo(dtype)
        for v in (spec.lo - 1, spec.hi):
            if info.min <= v <= info.max:
                for path in paths(spec):
                    with pytest.raises(ValueError, match="outside bucket"):
                        path(np.array([v], dtype=dtype))

    @given(key_values(dtype, lo, hi))
    @settings(max_examples=25, deadline=None)
    def random_keys(vals):
        check(vals)

    random_keys()


def digit_oracle(key: int, bits: int, signed: bool, shift: int,
                 width: int) -> int:
    """The digit of the key's order-preserving unsigned image."""
    image = key + (1 << (bits - 1)) if signed else key
    return (image >> shift) & ((1 << width) - 1)


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_digit_ids_every_shift_and_width(dtype):
    info = np.iinfo(dtype)
    bits, signed = info.bits, info.min < 0
    rng = np.random.default_rng(bits + signed)
    keys = np.concatenate([
        np.array([info.min, info.min + 1, -1 if signed else 1, 0,
                  info.max - 1, info.max], dtype=dtype),
        rng.integers(info.min, info.max, 58, endpoint=True, dtype=dtype)])
    for width in range(1, 17):
        for shift in range(bits):  # every digit, the sign digit included
            spec = DigitBuckets(shift, width)
            ids, plain, pooled = three_paths(spec, keys)
            expected = [digit_oracle(k, bits, signed, shift, width)
                        for k in keys.tolist()]
            assert ids.tolist() == expected, (dtype, shift, width)
            assert np.array_equal(plain, ids), (dtype, shift, width)
            assert np.array_equal(pooled, ids), (dtype, shift, width)


@pytest.mark.parametrize("spec", [RangeBuckets(32), DigitBuckets(8, 8)],
                         ids=repr)
def test_eval_into_allocates_nothing_key_sized(spec):
    # 2^20 keys: a uint64 scratch is 8 MiB, a uint32 id array 4 MiB;
    # numpy's casting buffer (8192 elements) stays well below the bound
    keys = np.random.default_rng(7).integers(0, 2**32, 1 << 20,
                                              dtype=np.uint32)
    out = np.empty(keys.size, dtype=np.uint8)
    ws = Workspace()
    tracemalloc.start()
    try:
        spec.eval_into(keys, out, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak
    assert ws.misses == 0  # no arena slot either
    np.testing.assert_array_equal(out, spec.ids(keys))
