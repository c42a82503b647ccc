"""Sampled-splitter bucketing: SplitterBuckets + BucketSpec.from_sample.

Covers the sample-sort front end of the skew-robust bucketing tentpole:
searchsorted semantics, bit-parity of the allocation-free cell-table
eval_into against ids(), deterministic seeded sampling, the one-level
recursion on oversized buckets, and engine parity for the composed spec.
"""

import numpy as np
import pytest

from repro.engine import Workspace
from repro.engine.stream import _shard_keys
from repro.multisplit import (
    BucketSpec,
    SplitterBuckets,
    multisplit,
)
from repro.multisplit.validate import check_multisplit, reference_multisplit
from repro.obs import collecting


class TestSplitterBuckets:
    def test_searchsorted_semantics(self):
        spec = SplitterBuckets(np.array([10, 20, 30], dtype=np.uint32))
        keys = np.array([0, 9, 10, 19, 20, 29, 30, 99], dtype=np.uint32)
        # a key equal to a splitter lands in the bucket to its right
        assert spec(keys).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert spec.num_buckets == 4
        assert spec.elementwise

    def test_empty_splitters_single_bucket(self):
        spec = SplitterBuckets(np.empty(0, dtype=np.uint32))
        assert spec.num_buckets == 1
        keys = np.arange(100, dtype=np.uint32)
        assert (spec(keys) == 0).all()
        out = np.full(100, 7, dtype=np.uint8)
        spec.eval_into(keys, out, Workspace())
        assert (out == 0).all()

    def test_equal_splitters_make_empty_buckets(self):
        spec = SplitterBuckets(np.array([5, 5, 5], dtype=np.uint32))
        keys = np.array([4, 5, 6], dtype=np.uint32)
        assert spec(keys).tolist() == [0, 3, 3]

    def test_unsorted_splitters_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SplitterBuckets(np.array([5, 3], dtype=np.uint32))

    def test_nan_splitters_rejected(self):
        # NaN compares false both ways, so it passes the sortedness check
        with pytest.raises(ValueError, match="NaN"):
            SplitterBuckets(np.array([3.0, np.nan, 1.0, 2.0]))

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            SplitterBuckets(np.zeros((2, 2), dtype=np.uint32))

    def test_num_buckets_cross_check(self):
        SplitterBuckets(np.array([1, 2], dtype=np.uint32), 3)
        with pytest.raises(ValueError, match="num_buckets"):
            SplitterBuckets(np.array([1, 2], dtype=np.uint32), 4)

    @staticmethod
    def _layouts(dtype, num_splitters, rng):
        """Splitter layouts that stress the cell-table window: random;
        all equal (every splitter in one cell, full search depth); all
        but the first inside one cell of the top octave; and, for 64-bit
        dtypes, splitters above 2**53 where neighbouring keys share a
        float64 value and so a cell."""
        info = np.iinfo(dtype)
        L = num_splitters
        yield "random", rng.integers(info.min, info.max, L, dtype=dtype,
                                     endpoint=True)
        yield "equal", np.full(L, rng.integers(info.min, info.max,
                                               dtype=dtype, endpoint=True))
        # cell(k) keeps the exponent and top L.bit_length() mantissa
        # bits of k - splitters[0]: the top octave's cells are this wide
        width = max(1, 2 ** (info.bits - 1 - L.bit_length()))
        lo = info.min + 2 ** (info.bits - 1)
        rest = lo + rng.integers(0, width, L - 1, dtype=np.uint64)
        yield "one_cell", np.concatenate(
            [np.array([info.min], dtype=dtype), rest.astype(dtype)])
        if info.bits == 64:
            base = 2**60 + int(rng.integers(0, 2**20))
            yield "above_2_53", (base + rng.integers(0, 4 * L, L,
                                                     dtype=np.uint64)
                                 ).astype(dtype)
            yield "spread_above_2_53", rng.integers(2**53, info.max, L,
                                                    dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16,
                                       np.uint16, np.uint32, np.int32,
                                       np.uint64, np.int64])
    @pytest.mark.parametrize("num_splitters",
                             [1, 2, 3, 5, 8, 31, 100, 255, 256])
    def test_eval_into_bit_parity(self, dtype, num_splitters):
        """The cell-table arena search must match searchsorted exactly on
        every splitter layout, including extreme keys that walk into the
        padding and keys at and beside every splitter."""
        rng = np.random.default_rng(num_splitters)
        info = np.iinfo(dtype)
        for layout, sp in self._layouts(dtype, num_splitters, rng):
            sp = np.sort(sp)
            spec = SplitterBuckets(sp)
            keys = rng.integers(info.min, info.max, 5000, dtype=dtype,
                                endpoint=True)
            # force the edge cases: dtype extremes, exact splitter hits,
            # and the keys one and two either side of every splitter
            keys[:3] = info.max
            keys[3:6] = info.min
            keys[6:6 + num_splitters] = sp
            near = np.add.outer(sp.astype(object), [-2, -1, 1, 2]).ravel()
            near = near[(near >= info.min) & (near <= info.max)]
            keys = np.concatenate([keys, near.astype(dtype)])
            expected = np.searchsorted(sp, keys, side="right")
            out = np.full(keys.size, 255,
                          dtype=np.uint8 if spec.num_buckets <= 256
                          else np.uint32)
            spec.eval_into(keys, out, Workspace())
            np.testing.assert_array_equal(out, expected, err_msg=layout)

    def test_eval_into_dtype_mismatch_falls_back(self):
        spec = SplitterBuckets(np.array([100], dtype=np.uint32))
        keys = np.array([50, 150], dtype=np.uint64)  # != splitter dtype
        out = np.empty(2, dtype=np.uint8)
        spec.eval_into(keys, out, Workspace())
        assert out.tolist() == [0, 1]

    def test_float_splitters_work_without_arena_path(self):
        spec = SplitterBuckets(np.array([0.5, 1.5], dtype=np.float64))
        keys = np.array([0.0, 1.0, 2.0], dtype=np.float64)
        assert spec(keys).tolist() == [0, 1, 2]
        out = np.empty(3, dtype=np.uint8)
        spec.eval_into(keys, out, Workspace())
        assert out.tolist() == [0, 1, 2]


class TestFromSample:
    def _skewed(self, n, seed=0):
        rng = np.random.default_rng(seed)
        u = np.maximum(rng.random(n), 1e-9)
        return np.minimum(u**-5 * 1024.0, 2.0**40).astype(np.uint64)

    def test_balances_skewed_keys(self):
        n, m = 1 << 16, 32
        keys = self._skewed(n)
        spec = BucketSpec.from_sample(keys, m)
        counts = np.bincount(spec(keys), minlength=m)
        assert counts.max() / (n / m) <= 2.0

    def test_deterministic(self):
        keys = self._skewed(1 << 14)
        a = BucketSpec.from_sample(keys, 16)
        b = BucketSpec.from_sample(keys, 16)
        np.testing.assert_array_equal(a.splitters, b.splitters)
        c = BucketSpec.from_sample(keys, 16, seed=7)
        assert not np.array_equal(a.splitters, c.splitters)

    def test_m1_and_errors(self):
        keys = np.arange(10, dtype=np.uint32)
        assert BucketSpec.from_sample(keys, 1).num_buckets == 1
        with pytest.raises(ValueError, match="empty"):
            BucketSpec.from_sample(np.empty(0, dtype=np.uint32), 4)
        with pytest.raises(ValueError, match="num_buckets"):
            BucketSpec.from_sample(keys, 0)
        with pytest.raises(ValueError, match="oversample"):
            BucketSpec.from_sample(keys, 2, oversample=0)
        with pytest.raises(ValueError, match="recurse_factor"):
            BucketSpec.from_sample(keys, 2, recurse_factor=0.0)
        with pytest.raises(ValueError, match="1-D"):
            BucketSpec.from_sample(keys.reshape(2, 5), 2)

    def test_recursion_fires_and_improves(self):
        """oversample=1 starves the first pass, forcing the recursion to
        re-split oversized buckets; the resplit counter must record it
        and the final skew must not be worse than the initial one."""
        keys = self._skewed(1 << 14, seed=3)
        m = 16
        with collecting() as reg:
            spec = BucketSpec.from_sample(keys, m, oversample=1)
        recs = {(r["name"], r["labels"].get("stage")): r["value"]
                for r in reg.snapshot() if r["name"].startswith("bucketing.")}
        assert recs[("bucketing.resplits", None)] >= 1
        initial = recs[("bucketing.skew_ratio", "initial")]
        final = recs[("bucketing.skew_ratio", "final")]
        assert final <= initial
        counts = np.bincount(spec(keys), minlength=m)
        assert counts.sum() == keys.size

    def test_chunked_histogram_matches_ids(self):
        """from_sample counts the full input shard by shard; a partial
        last shard included, both skew gauges must equal the histogram
        of ids() over the whole input."""
        m = 16
        n = 3 * _shard_keys(m) + 7
        keys = self._skewed(n, seed=3)
        mean = n / m

        def ratio(spec):
            return np.bincount(spec.ids(keys), minlength=m).max() / mean

        # recurse_factor=inf stops at the first-pass splitters, which the
        # same seed reproduces inside the recursing call
        initial = BucketSpec.from_sample(keys, m, oversample=1,
                                         recurse_factor=float("inf"))
        with collecting() as reg:
            spec = BucketSpec.from_sample(keys, m, oversample=1)
        recs = {(r["name"], r["labels"].get("stage")): r["value"]
                for r in reg.snapshot() if r["name"].startswith("bucketing.")}
        assert recs[("bucketing.resplits", None)] >= 1
        assert recs[("bucketing.skew_ratio", "initial")] == ratio(initial)
        assert recs[("bucketing.skew_ratio", "final")] == ratio(spec)

    def test_no_resplit_when_n_tiny(self):
        # every key identical: no elementwise spec can split them, and
        # the recursion must not loop trying
        keys = np.full(100, 42, dtype=np.uint32)
        with collecting() as reg:
            spec = BucketSpec.from_sample(keys, 8)
        counts = np.bincount(spec(keys), minlength=8)
        assert counts.sum() == 100
        assert counts.max() == 100  # all in one bucket, by necessity

    def test_splitter_dtype_matches_keys(self):
        keys = self._skewed(1 << 12)
        spec = BucketSpec.from_sample(keys, 8)
        assert spec.splitters.dtype == keys.dtype

    @pytest.mark.parametrize("engine", ["emulate", "fast", "sharded"])
    def test_engine_parity_on_composed_spec(self, engine):
        keys32 = (self._skewed(1 << 14, seed=5) >> 8).astype(np.uint32)
        values = np.arange(keys32.size, dtype=np.uint32)
        spec = BucketSpec.from_sample(keys32, 16)
        res = multisplit(keys32, spec, values=values, engine=engine)
        check_multisplit(res, keys32, spec, values)
        ref_keys, ref_vals, ref_starts = reference_multisplit(
            keys32, spec, values)
        np.testing.assert_array_equal(res.keys, ref_keys)
        np.testing.assert_array_equal(res.values, ref_vals)
        np.testing.assert_array_equal(
            np.asarray(res.bucket_starts, dtype=np.int64), ref_starts)
