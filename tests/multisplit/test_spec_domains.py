"""The wire specs guard their own key domain.

The service hands the four spec classes its wire protocol can build
(range, identity, delta, splitter) straight to the engines, with no
per-request validator battery in front. So each of them, on any key
dtype and on every evaluation path the engines use (``ids``,
``eval_into`` into a narrowed id buffer, ``eval_into`` through a
``Workspace`` arena), must either raise ``ValueError`` or return ids in
``[0, m)`` that agree with ``ids()`` bit for bit. A silent wrap here
would corrupt a shared coalescing window; any other exception type would
reach a client as a 500 instead of a 400.
"""

import numpy as np
import pytest

from repro.engine import Workspace
from repro.multisplit import (DeltaBuckets, IdentityBuckets, RangeBuckets,
                              SplitterBuckets, multisplit)
from repro.multisplit.ids import narrow_ids_dtype

RAISES = "raises"

WIRE_SPECS = {
    "range_u32": RangeBuckets(16),
    "range_1000": RangeBuckets(8, 0, 1000),
    "range_offset": RangeBuckets(4, 100, 200),
    "range_top_half": RangeBuckets(2, 2**63, 2**64),
    "range_full_u64": RangeBuckets(1, 0, 2**64),
    "identity_16": IdentityBuckets(16),
    "identity_256": IdentityBuckets(256),
    "delta_1": DeltaBuckets(1.0, 4),
    "delta_frac": DeltaBuckets(997.25, 64),
    "splitter_u32": SplitterBuckets(np.array([10, 1000, 2**31], np.uint32)),
    "splitter_i64": SplitterBuckets(np.array([-5, 0, 7], np.int64)),
    "splitter_f64": SplitterBuckets(np.array([-1.5, 0.0, 2.5])),
    "splitter_m1": SplitterBuckets(np.empty(0, np.uint32)),
}

DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
          "uint64", "float16", "float32", "float64"]


def hostile_keys(dtype) -> list:
    """The dtype's extremes, negatives, domain edges and (for floats)
    NaN and both infinities, each one representable in ``dtype``."""
    dt = np.dtype(dtype)
    if dt.kind == "f":
        info = np.finfo(dt)
        vals = [info.min, info.max, -1.0, -0.5, 0.0, 0.5, 3.0, 255.0,
                2.0**32, 2.0**63, 2.0**64, 1e300, np.nan, np.inf, -np.inf]
        with np.errstate(over="ignore"):
            return [x for x in np.array(vals).astype(dt)
                    if not np.isfinite(x) or abs(float(x)) <= info.max]
    info = np.iinfo(dt)
    vals = [int(info.min), int(info.max), -1, 0, 1, 3, 15, 16, 255, 256,
            999, 1000, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    return [np.array(v, dt) for v in vals if info.min <= v <= info.max]


def evaluate(spec, keys):
    """``(ids, eval_into, eval_into with arena)``; ``RAISES`` where the
    path raised ``ValueError`` (any other exception propagates)."""
    out_dtype = narrow_ids_dtype(spec.num_buckets)

    def run(fn):
        try:
            return fn()
        except ValueError:
            return RAISES

    def into(arena):
        out = np.full(keys.size, 255, dtype=out_dtype)
        spec.eval_into(keys, out, arena)
        return out

    return (run(lambda: np.asarray(spec.ids(keys))),
            run(lambda: into(None)),
            run(lambda: into(Workspace())))


def assert_guarded(spec, keys):
    ids, plain, pooled = evaluate(spec, keys)
    what = f"{spec!r} on {keys.dtype} keys {keys.tolist()}"
    if isinstance(ids, str):
        assert isinstance(plain, str) and isinstance(pooled, str), (
            f"{what}: ids() raised but eval_into returned ids")
        return
    assert ids.shape == keys.shape, what
    if keys.size:
        assert 0 <= int(ids.min()) and int(ids.max()) < spec.num_buckets, (
            f"{what}: ids {ids.tolist()} outside [0, {spec.num_buckets})")
    for name, got in (("eval_into", plain), ("eval_into(arena)", pooled)):
        assert not isinstance(got, str), f"{what}: only {name} raised"
        assert np.array_equal(got, ids), (
            f"{what}: {name} gave {got.tolist()}, ids() {ids.tolist()}")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no undefined casts
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(WIRE_SPECS))
def test_wire_spec_raises_or_returns_in_range_ids(name, dtype):
    spec = WIRE_SPECS[name]
    vals = hostile_keys(dtype)
    for v in vals:
        assert_guarded(spec, np.array([v], dtype=dtype))
    assert_guarded(spec, np.array(vals, dtype=dtype))
    assert_guarded(spec, np.empty(0, dtype=dtype))


# rows the generic sweep cannot see: a wrong id that is still in range
@pytest.mark.parametrize(
    "spec,keys,expected",
    [
        # negative identity keys wrapped into the top buckets
        (IdentityBuckets(256), np.array([-1, 3, 5], np.int32), RAISES),
        (IdentityBuckets(16), np.array([-1, 3, 5], np.int32), RAISES),
        (IdentityBuckets(16), np.array([-0.5, 3.0]), RAISES),
        (IdentityBuckets(16), np.array([np.nan, 3.0]), RAISES),
        # the float64 -> int64 cast overflowed before the clamp
        (DeltaBuckets(1.0, 4), np.array([1e300, np.inf, 5.0]), [3, 3, 3]),
        (DeltaBuckets(1.0, 4), np.array([-np.inf, -1e300, 0.5]), [0, 0, 0]),
        (DeltaBuckets(1.0, 4),
         np.array([2**64 - 1, 2**63, 2], np.uint64), [3, 3, 2]),
        (DeltaBuckets(2.0, 8), np.array([7.9, 8.0], np.float32), [3, 4]),
        (DeltaBuckets(1.0, 4), np.array([np.nan, 1.0]), RAISES),
        # a negative key wrapped mod 2**64 into a domain ending at 2**64
        (RangeBuckets(2, 2**63, 2**64), np.array([-1], np.int64), RAISES),
        (RangeBuckets(2, 2**63, 2**64),
         np.array([2**63, 2**64 - 1], np.uint64), [0, 1]),
        (RangeBuckets(1, 0, 2**64), np.array([0, 2**64 - 1], np.uint64),
         [0, 0]),
        # fractional keys below lo truncated into bucket 0
        (RangeBuckets(16), np.array([-0.5]), RAISES),
        (RangeBuckets(16), np.array([np.nan]), RAISES),
        (RangeBuckets(16, 0, 2**60), np.array([2**59], np.uint64), [8]),
        # the widest domain x bucket count uint64 holds: (hi - lo) * m == 2**64
        (RangeBuckets(2**32, 0, 2**32),
         np.array([0, 5, 2**32 - 1], np.uint32), [0, 5, 2**32 - 1]),
    ],
    ids=lambda x: x.dtype.name if isinstance(x, np.ndarray) else str(x),
)
def test_domain_rows(spec, keys, expected):
    for got in evaluate(spec, keys):
        if expected is RAISES:
            assert got is RAISES
        else:
            assert not isinstance(got, str)
            assert got.tolist() == expected


@pytest.mark.parametrize("engine", ["emulate", "fast", "sharded", "stream"])
@pytest.mark.parametrize("m", [16, 256])
def test_negative_identity_key_raises_on_every_engine(engine, m):
    # before: bucket 255 at m=256 on fast/sharded, a numpy shape error at
    # m=16, and a 32 GiB allocation on emulate
    keys = np.array([-1, 3, 5], np.int32)
    with pytest.raises(ValueError, match="outside bucket domain"):
        multisplit(keys, IdentityBuckets(m), engine=engine)


@pytest.mark.parametrize(
    "cls,args",
    [
        (RangeBuckets, (16, -5, 10)),
        (RangeBuckets, (16, 0, 2**64)),
        # (hi - lo) * m wraps uint64: 2**62 would land in bucket 0, not 8
        (RangeBuckets, (16, 0, 2**63)),
        (RangeBuckets, (1, 0, 2**64 + 1)),
        (RangeBuckets, (4, 5, 5)),
        (DeltaBuckets, (float("nan"), 4)),
        (DeltaBuckets, (float("inf"), 4)),
        (DeltaBuckets, (0.0, 4)),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_domains_too_wide_for_uint64_rejected_at_construction(cls, args):
    with pytest.raises(ValueError):
        cls(*args)
