"""Sharded-engine fuzz: engine="sharded" must match engine="emulate" bit
for bit for every stable method, across chunk-boundary shapes (n not
divisible by P, n < P, P = 1, empty, all-one-bucket, presorted), for
key-only and key-value calls and 32/64-bit keys — and its results must
be invariant to ``max_workers``.
"""

import numpy as np
import pytest

from repro.engine import (
    STABLE_METHODS,
    Workspace,
    check_engine_parity,
    sharded_multisplit,
)
from repro.engine.sharded import SHARDED_AUTO_MIN_N
from repro.multisplit import (
    CustomBuckets,
    DeltaBuckets,
    RangeBuckets,
    multisplit,
    multisplit_batch,
)
from repro.obs import collecting
from repro.simt.config import WARP_WIDTH

STABLE = sorted(STABLE_METHODS)
N = 1010  # off the tile grid so padding paths run


def applicable(method: str, m: int) -> bool:
    if method == "warp":
        return m <= WARP_WIDTH
    if method == "scan_split":
        return m == 2
    return True


def make_case(distribution: str, m: int, n: int = N, seed: int = 0):
    rng = np.random.default_rng(seed + 7 * m)
    if distribution == "uniform":
        return rng.integers(0, 2**32, n, dtype=np.uint32), RangeBuckets(m)
    if distribution == "skewed":
        keys = rng.integers(0, 2**26, n, dtype=np.uint32)
        return keys, RangeBuckets(m)
    keys = rng.integers(0, 50_000, n, dtype=np.uint32)
    return keys, DeltaBuckets(997.25, m)


class TestShardedEmulateParity:
    """Bit-parity against the paper-faithful emulation."""

    @pytest.mark.parametrize("m", [1, 2, 8, 32, 200])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_value_uniform(self, method, m):
        if not applicable(method, m):
            pytest.skip(f"{method} does not support m={m}")
        keys, spec = make_case("uniform", m)
        values = np.arange(keys.size, dtype=np.uint32)
        check_engine_parity(keys, spec, values=values, method=method,
                            engine="sharded", shards=7)

    @pytest.mark.parametrize("distribution", ["skewed", "delta"])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_only_distributions(self, method, distribution):
        m = 2 if method == "scan_split" else 32
        keys, spec = make_case(distribution, m)
        check_engine_parity(keys, spec, method=method,
                            engine="sharded", shards=3)

    @pytest.mark.parametrize("method", ["direct", "block"])
    def test_uint64_keys(self, method):
        keys = np.random.default_rng(13).integers(0, 2**32, 600).astype(np.uint64)
        check_engine_parity(keys, RangeBuckets(8), method=method,
                            engine="sharded", shards=5)

    def test_empty_and_single_element(self):
        for n in (0, 1):
            keys = np.full(n, 7, dtype=np.uint32)
            check_engine_parity(keys, RangeBuckets(8), method="block",
                                engine="sharded", shards=4)

    def test_all_one_bucket_and_presorted(self):
        keys = np.full(517, 3, dtype=np.uint32)
        values = np.arange(517, dtype=np.uint32)
        check_engine_parity(keys, RangeBuckets(8), values=values,
                            method="block", engine="sharded", shards=6)
        presorted = np.sort(
            np.random.default_rng(1).integers(0, 2**32, 2048, dtype=np.uint32))
        check_engine_parity(presorted, RangeBuckets(16), method="block",
                            engine="sharded", shards=6)

    def test_non_elementwise_spec_evaluated_globally(self):
        # a whole-array-dependent bucketing: per-shard evaluation would
        # give different ids, so the engine must fall back to one global
        # spec call to keep the bit-identity guarantee
        keys = np.random.default_rng(3).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(
            lambda ks: (ks > ks.mean()).astype(np.uint32), num_buckets=2)
        assert not spec.elementwise
        check_engine_parity(keys, spec, method="block",
                            engine="sharded", shards=8)

    def test_elementwise_custom_spec(self):
        keys = np.random.default_rng(4).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(lambda ks: (ks % 5).astype(np.uint32),
                             num_buckets=5, elementwise=True)
        assert spec.elementwise
        check_engine_parity(keys, spec, method="block",
                            engine="sharded", shards=8)


class TestChunkBoundaries:
    """Shard-count fuzz against engine="fast" (itself emulate-parity
    checked), covering every boundary shape cheaply."""

    @pytest.mark.parametrize("n", [1, 5, 100, 1010, 4099])
    @pytest.mark.parametrize("shards", [None, 1, 2, 3, 16, 5000])
    def test_shard_count_fuzz(self, n, shards):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        values = np.arange(n, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(32), values=values,
                         method="block", engine="fast")
        res = sharded_multisplit(keys, RangeBuckets(32), values=values,
                                 method="block", shards=shards)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)
        # n < P must clamp instead of erroring
        assert res.extra["shards"] <= max(n, 1)

    def test_shards_validation(self):
        keys = np.arange(16, dtype=np.uint32)
        with pytest.raises(ValueError, match="shards"):
            sharded_multisplit(keys, RangeBuckets(4), shards=0)


class TestDeterminism:
    """The thread-scaling smoke test: results must be bit-identical for
    every ``max_workers`` value (1 vs 4 especially — no drift)."""

    def test_worker_count_never_changes_results(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**32, 200_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        baseline = None
        for workers in (1, 2, 4):
            res = sharded_multisplit(keys, RangeBuckets(32), values=values,
                                     method="block", max_workers=workers)
            if baseline is None:
                baseline = res
            else:
                assert np.array_equal(baseline.keys, res.keys)
                assert np.array_equal(baseline.values, res.values)
                assert np.array_equal(baseline.bucket_starts, res.bucket_starts)

    def test_workspace_reuse_across_sizes_and_workers(self):
        ws = Workspace()
        rng = np.random.default_rng(9)
        for n, workers in ((50_000, 4), (80_000, 1), (10_000, 2), (80_000, 4)):
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            ref = multisplit(keys, RangeBuckets(16), method="block",
                             engine="fast")
            res = sharded_multisplit(keys, RangeBuckets(16), method="block",
                                     workspace=ws, max_workers=workers)
            assert np.array_equal(ref.keys, res.keys)
        assert ws.hits > 0
        assert "subarenas" in repr(ws)
        before = ws.nbytes
        assert before > 0
        ws.clear()
        assert ws.nbytes == 0


class TestEngineWiring:
    def test_non_stable_methods_rejected(self):
        keys = np.arange(64, dtype=np.uint32)
        for method in ("radix_sort", "randomized"):
            with pytest.raises(ValueError, match="stable method family"):
                sharded_multisplit(keys, RangeBuckets(4), method=method)

    def test_method_constraints_mirror_fast(self):
        keys = np.arange(64, dtype=np.uint32)
        with pytest.raises(ValueError):
            sharded_multisplit(keys, RangeBuckets(33), method="warp")
        with pytest.raises(ValueError):
            sharded_multisplit(keys, RangeBuckets(3), method="scan_split")
        with pytest.raises(ValueError):
            multisplit(keys, RangeBuckets(4), engine="fast", shards=4)
        with pytest.raises(ValueError):
            multisplit(keys, RangeBuckets(4), engine="emulate", max_workers=2)

    def test_auto_engine_heuristic(self, monkeypatch):
        from repro.multisplit import api as api_mod
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N", 4096)
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N_SINGLE", 4096)
        rng = np.random.default_rng(11)
        big = rng.integers(0, 2**32, 8192, dtype=np.uint32)
        small = big[:512]
        assert multisplit(big, RangeBuckets(8),
                          engine="auto").extra["engine"] == "sharded"
        assert multisplit(small, RangeBuckets(8),
                          engine="auto").extra["engine"] == "fast"
        # explicit shards forces sharded below the threshold
        assert multisplit(small, RangeBuckets(8), engine="auto",
                          shards=2).extra["engine"] == "sharded"
        # non-stable methods only exist in the fast engine
        assert multisplit(big, RangeBuckets(8), engine="auto",
                          method="radix_sort").extra["engine"] == "fast"
        assert api_mod._pick_engine(SHARDED_AUTO_MIN_N, "block",
                                    None, 2) == "sharded"

    def test_auto_engine_accounts_for_workers(self):
        from repro.engine.sharded import (SHARDED_AUTO_MIN_N,
                                          SHARDED_AUTO_MIN_N_SINGLE)
        from repro.multisplit import api as api_mod
        assert SHARDED_AUTO_MIN_N_SINGLE > SHARDED_AUTO_MIN_N
        # multi-worker: the calibrated floor applies
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N, "block", None, 4) == "sharded"
        # single-worker (max_workers=1): the higher solo floor applies —
        # sharding buys nothing without parallelism until the input is
        # large enough for cache-sized chunks to pay for orchestration
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N, "block", None, 1) == "fast"
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N_SINGLE, "block", None, 1) == "sharded"
        # non-stable methods always go fast
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N_SINGLE, "radix_sort", None, 4) == "fast"

    def test_result_shape_and_extra(self):
        keys = np.random.default_rng(2).integers(0, 2**32, 5000, dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(8), method="block",
                                 shards=4, max_workers=2)
        assert res.timeline is None
        assert res.stable is True
        assert res.extra["engine"] == "sharded"
        assert res.extra["shards"] == 4
        assert res.extra["workers"] == 2


class TestShardedBatch:
    def test_batch_sharded_engine_matches_fast(self):
        rng = np.random.default_rng(21)
        batch = [rng.integers(0, 2**32, n, dtype=np.uint32)
                 for n in (3000, 50_000, 12_000)]
        fast = multisplit_batch(batch, RangeBuckets(16), engine="fast")
        for engine in ("sharded", "auto"):
            res = multisplit_batch(batch, RangeBuckets(16), engine=engine,
                                   shards=4, max_workers=2)
            for a, b in zip(fast, res):
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.bucket_starts, b.bucket_starts)

    def test_batch_shards_knob_requires_sharded(self):
        batch = [np.arange(100, dtype=np.uint32)]
        with pytest.raises(ValueError, match="shards"):
            multisplit_batch(batch, RangeBuckets(4), engine="fast", shards=2)


class TestShardedObservability:
    def test_stage_timers_and_gauges(self):
        keys = np.random.default_rng(5).integers(0, 2**32, 40_000,
                                                 dtype=np.uint32)
        with collecting() as reg:
            sharded_multisplit(keys, RangeBuckets(16), method="block",
                               shards=8, max_workers=2)
        flat = reg.as_flat()
        assert flat["engine.sharded.calls{method=block}"] == 1
        assert flat["engine.sharded.keys{method=block}"] == keys.size
        assert flat["engine.sharded.shards{method=block}"] == 8
        assert flat["engine.sharded.workers{method=block}"] == 2
        for stage in ("prescan", "scan", "scatter"):
            key = f"engine.sharded.{stage}_ms.count{{method=block}}"
            assert flat[key] == 1, (key, flat)
        assert flat["engine.sharded.run_ms.count{kv=False,method=block}"] == 1
