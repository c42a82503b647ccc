"""Tests for MultisplitResult accessors and the public API dispatcher."""

import numpy as np
import pytest

from repro.multisplit import Method, multisplit, multisplit_kv, RangeBuckets
from repro.simt import Device, K40C


@pytest.fixture
def result():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**32, 1024, dtype=np.uint32)
    values = rng.integers(0, 2**32, 1024, dtype=np.uint32)
    return multisplit(keys, RangeBuckets(4), values=values, method="warp")


class TestResult:
    def test_bucket_views(self, result):
        total = sum(result.bucket(i).size for i in range(4))
        assert total == 1024
        for i in range(4):
            assert result.bucket(i).size == result.bucket_sizes()[i]
            assert result.bucket_values(i).size == result.bucket(i).size

    def test_bucket_index_checked(self, result):
        with pytest.raises(IndexError):
            result.bucket(4)
        with pytest.raises(IndexError):
            result.bucket_values(-1)

    def test_bucket_values_requires_kv(self):
        res = multisplit(np.zeros(64, dtype=np.uint32), RangeBuckets(2), method="warp")
        with pytest.raises(ValueError):
            res.bucket_values(0)

    def test_stage_and_total(self, result):
        stages = result.stages()
        assert set(stages) == {"prescan", "scan", "postscan"}
        assert result.simulated_ms == pytest.approx(sum(stages.values()))
        assert result.stage_ms("scan") == pytest.approx(stages["scan"])

    def test_throughput_positive(self, result):
        assert 0 < result.throughput_gkeys() < 100

    def test_repr(self, result):
        r = repr(result)
        assert "warp" in r and "key-value" in r


class TestApiDispatch:
    def test_method_enum_and_string_equivalent(self):
        keys = np.arange(256, dtype=np.uint32)
        a = multisplit(keys, RangeBuckets(2), method=Method.DIRECT)
        b = multisplit(keys, RangeBuckets(2), method="direct")
        assert a.method == b.method == "direct"

    def test_auto_picks_warp_for_small_m(self):
        keys = np.arange(256, dtype=np.uint32)
        assert multisplit(keys, RangeBuckets(4)).method == "warp"

    def test_auto_picks_block_for_medium_m(self):
        keys = np.random.default_rng(0).integers(0, 2**32, 4096, dtype=np.uint32)
        assert multisplit(keys, RangeBuckets(24)).method == "block"

    def test_auto_picks_reduced_bit_for_huge_m(self):
        keys = np.random.default_rng(0).integers(0, 2**32, 4096, dtype=np.uint32)
        assert multisplit(keys, RangeBuckets(1024)).method == "reduced_bit"

    @pytest.mark.parametrize("engine",
                             ["emulate", "fast", "sharded", "stream", "batch"])
    def test_auto_picks_block_for_64bit_pairs_above_128(self, engine):
        # reduced-bit packs a pair into 64 bits, so it cannot take
        # int64 keys with values; "auto" must not pick it for them
        from repro.engine import Workspace, coalesced_multisplit_batch
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**32, 3000, dtype=np.int64)
        values = rng.integers(-2**40, 2**40, 3000, dtype=np.int64)
        spec = RangeBuckets(200, 0, 2**32)
        if engine == "batch":
            res, = coalesced_multisplit_batch(
                [keys], spec, values_batch=[values],
                workspace=Workspace(reuse_outputs=False))
        else:
            res = multisplit(keys, spec, values=values, engine=engine)
        ref = multisplit(keys, spec, values=values, method="block")
        assert res.method == "block"
        assert np.array_equal(res.keys, ref.keys)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.bucket_starts, ref.bucket_starts)
        # 32-bit pairs and key-only calls keep reduced-bit
        assert multisplit(keys.astype(np.uint32), spec,
                          values=values.astype(np.int32)).method == "reduced_bit"
        assert multisplit(keys, spec, engine="fast").method == "reduced_bit"

    def test_bare_callable_with_num_buckets(self):
        keys = np.arange(128, dtype=np.uint32)
        res = multisplit(keys, lambda k: k % 3, 3, method="warp")
        assert res.num_buckets == 3

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            multisplit(np.zeros(8, dtype=np.uint32), RangeBuckets(2), method="bogus")

    def test_multisplit_kv_wrapper(self):
        keys = np.arange(128, dtype=np.uint32)
        vals = np.arange(128, dtype=np.uint32)[::-1].copy()
        res = multisplit_kv(keys, vals, RangeBuckets(2), method="warp")
        assert res.values is not None

    def test_kwargs_forwarded(self):
        keys = np.random.default_rng(0).integers(0, 2**32, 2048, dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(4), method="block", warps_per_block=4)
        assert res.method == "block"

    def test_timeline_on_supplied_device(self):
        dev = Device(K40C)
        keys = np.arange(64, dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(2), method="direct", device=dev)
        assert res.timeline is dev.timeline
