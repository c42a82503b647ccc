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
    stream_multisplit,
)
from repro.engine import stream as stream_mod
from repro.engine.sharded import SHARDED_AUTO_MIN_N
from repro.multisplit import (
    CustomBuckets,
    DeltaBuckets,
    RangeBuckets,
    multisplit,
    multisplit_batch,
)
from repro.multisplit.validate import reference_multisplit
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


class TestDefaultShardRule:
    """Default shards hold 128K keys while m <= 64 (a mean run of 2048+
    keys, the slice-copy write path) and 32K keys above that (the
    computed-destination store)."""

    N = 3 * (1 << 17) + 5  # 4 shards of 128K keys or 13 of 32K, both partial

    @pytest.mark.parametrize("m, shards", [
        (16, 4), (32, 4), (64, 4), (65, 13), (128, 13), (256, 13),
        (4096, 13)])
    def test_default_shard_count(self, m, shards):
        keys = np.random.default_rng(m).integers(0, 2**32, self.N,
                                                 dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(m), method="block")
        assert res.extra["shards"] == shards

    # just under 2^19 keys in 160K-key chunks: 4 chunks, the last one
    # partial, so the last shard is partial on both sides of m = 64
    STREAM_N = (1 << 19) - 1000
    CHUNK_BYTES = 160 * 1024 * 4

    @pytest.mark.parametrize("kv", [True, False], ids=["kv", "keys"])
    @pytest.mark.parametrize("engine, m, shards", [
        ("sharded", 64, 4), ("sharded", 65, 16),
        ("stream", 64, 7), ("stream", 65, 16)])
    def test_default_shards_bit_identical(self, engine, m, shards, kv):
        rng = np.random.default_rng(m)
        keys = rng.integers(0, 2**32, self.STREAM_N, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32) if kv else None
        spec = RangeBuckets(m)
        if engine == "sharded":
            res = sharded_multisplit(keys, spec, values=values,
                                     method="block", max_workers=2)
        else:
            res = stream_multisplit(keys, spec, values=values,
                                    method="block", max_workers=2,
                                    chunk_bytes=self.CHUNK_BYTES)
            assert res.extra["chunks"] == 4
        assert res.extra["shards"] == shards
        fast = multisplit(keys, spec, values=values, method="block",
                          engine="fast")
        ref_keys, ref_values, ref_starts = reference_multisplit(
            keys, spec, values)
        for want_keys, want_values, want_starts in (
                (fast.keys, fast.values, fast.bucket_starts),
                (ref_keys, ref_values, ref_starts)):
            assert np.array_equal(res.keys, want_keys)
            assert np.array_equal(res.bucket_starts, want_starts)
            if kv:
                assert np.array_equal(res.values, want_values)
            else:
                assert res.values is None and want_values is None

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(stream_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(stream_mod.os, "cpu_count", lambda: 64)
        assert stream_mod._resolve_workers(None) == 1
        keys = np.random.default_rng(3).integers(0, 2**32, 5000,
                                                 dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(8), method="block",
                                 shards=4)
        assert res.extra["workers"] == 1
        # an explicit worker count is the caller's to make
        assert stream_mod._resolve_workers(3) == 3

    def test_default_workers_without_affinity(self, monkeypatch):
        monkeypatch.delattr(stream_mod.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(stream_mod.os, "cpu_count", lambda: 3)
        assert stream_mod._resolve_workers(None) == 3


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
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N", 4096)
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

    def test_auto_engine_floor_ignores_workers(self):
        # one size floor for every worker count: max_workers is not a
        # routing input
        from repro.multisplit.api import _resolve_engine
        at = np.empty(SHARDED_AUTO_MIN_N, dtype=np.uint32)
        below = at[:-1]
        for workers in (1, 2, 4):
            assert _resolve_engine("auto", at, "block",
                                   max_workers=workers) == "sharded"
            assert _resolve_engine("auto", below, "block",
                                   max_workers=workers) == "fast"
            # non-stable methods always go fast
            assert _resolve_engine("auto", at, "radix_sort",
                                   max_workers=workers) == "fast"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_auto_engine_ignores_bucket_count(self, workers):
        # the sharded scatter stores short bucket runs at computed
        # destinations, so its cost no longer grows with m and auto
        # shards every bucket count at and above the size floor, for
        # any worker count
        from repro.multisplit.api import _resolve_engine
        at = np.empty(SHARDED_AUTO_MIN_N, dtype=np.uint32)
        below = at[:-1]
        for m in (32, 256, 257, 4096):
            spec = RangeBuckets(m)
            assert _resolve_engine("auto", at, "reduced_bit", spec,
                                   max_workers=workers) == "sharded"
            assert _resolve_engine("auto", below, "reduced_bit", spec,
                                   max_workers=workers) == "fast"
            # an explicit shards= still forces sharded
            assert _resolve_engine("auto", below, "reduced_bit", spec,
                                   shards=4,
                                   max_workers=workers) == "sharded"

    @pytest.mark.parametrize("m", [257, 4096])
    def test_auto_engine_shards_wide_specs(self, monkeypatch, m):
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N", 4096)
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 2**32, 8192, dtype=np.uint32)
        values = rng.integers(0, 2**32, 8192, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(m), values=values,
                         engine="fast")
        for shards in (None, 2):
            res = multisplit(keys, RangeBuckets(m), values=values,
                             engine="auto", shards=shards)
            assert res.extra["engine"] == "sharded"
            assert np.array_equal(res.keys, ref.keys)
            assert np.array_equal(res.values, ref.values)
            assert np.array_equal(res.bucket_starts, ref.bucket_starts)

    def test_result_shape_and_extra(self):
        keys = np.random.default_rng(2).integers(0, 2**32, 5000, dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(8), method="block",
                                 shards=4, max_workers=2)
        assert res.timeline is None
        assert res.stable is True
        assert res.extra["engine"] == "sharded"
        assert res.extra["shards"] == 4
        assert res.extra["workers"] == 2

    def test_small_input_is_one_shard_on_the_calling_thread(self):
        # the default shard count follows the input size alone, so a
        # small call is one shard and runs without a thread pool
        keys = np.random.default_rng(6).integers(0, 2**32, 1000,
                                                 dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(32), method="block",
                                 max_workers=2)
        assert res.extra["shards"] == 1
        assert res.extra["workers"] == 1
        ref = multisplit(keys, RangeBuckets(32), method="block",
                         engine="fast")
        assert np.array_equal(res.keys, ref.keys)


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
