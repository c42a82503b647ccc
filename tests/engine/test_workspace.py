"""Workspace arena behavior: pooling, growth, ownership, emulated reuse."""

import numpy as np
import pytest

from repro.engine import Workspace
from repro.multisplit import RangeBuckets, multisplit
from repro.obs import collecting
from tests.shards import fixed_shards


class TestArena:
    def test_hit_and_miss_accounting(self):
        ws = Workspace()
        a = ws.take("x", 100, np.int64)
        assert ws.misses == 1 and ws.hits == 0
        b = ws.take("x", 64, np.int64)
        assert ws.hits == 1 and b.base is a.base
        assert b.size == 64

    def test_grows_when_needed(self):
        ws = Workspace()
        ws.take("x", 10, np.float64)
        big = ws.take("x", 1000, np.float64)
        assert big.size == 1000 and ws.misses == 2

    def test_slots_keyed_by_dtype(self):
        ws = Workspace()
        i = ws.take("x", 8, np.int64)
        f = ws.take("x", 8, np.float32)
        assert i.base is not f.base
        assert ws.misses == 2

    def test_out_respects_reuse_flag(self):
        pooled = Workspace(reuse_outputs=True)
        a = pooled.out("keys", 16, np.uint32)
        b = pooled.out("keys", 16, np.uint32)
        assert a.base is b.base
        fresh = Workspace(reuse_outputs=False)
        c = fresh.out("keys", 16, np.uint32)
        d = fresh.out("keys", 16, np.uint32)
        assert c is not d and c.base is None and d.base is None

    def test_clear_and_nbytes(self):
        ws = Workspace()
        ws.take("x", 1024, np.int64)
        assert ws.nbytes == 1024 * 8
        ws.clear()
        assert ws.nbytes == 0
        assert "Workspace(" in repr(ws)


class TestDtypeChangeRegression:
    """A warmed arena must serve a different-dtype call correctly.

    Slots are keyed by ``(name, dtype)``, so a uint32-warmed workspace
    that then runs a uint64 (or float) call must neither alias the old
    buffer nor corrupt results produced from it earlier.
    """

    def test_take_does_not_alias_across_dtypes(self):
        ws = Workspace()
        small = ws.take("x", 64, np.uint32)
        small[:] = 0xDEADBEEF
        wide = ws.take("x", 64, np.uint64)
        wide[:] = 0
        assert np.all(small == 0xDEADBEEF)  # distinct storage

    @pytest.mark.parametrize("engine", ["fast", "sharded"])
    def test_values_dtype_change_after_warm(self, engine):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 2**32, 6000, dtype=np.uint32)
        spec = RangeBuckets(16)
        ws = Workspace()
        with fixed_shards(3 if engine == "sharded" else None):
            # warm every slot with uint32 values
            v32 = rng.integers(0, 2**32, 6000, dtype=np.uint32)
            multisplit(keys, spec, values=v32, method="block", engine=engine,
                       workspace=ws)
            # same arena, 64-bit and float payloads — results must match
            # a workspace-free run bit for bit
            for dtype in (np.uint64, np.float64):
                vals = rng.integers(0, 2**32, 6000).astype(dtype)
                pooled = multisplit(keys, spec, values=vals, method="block",
                                    engine=engine, workspace=ws)
                plain = multisplit(keys, spec, values=vals, method="block",
                                   engine=engine)
                assert pooled.values.dtype == dtype
                assert np.array_equal(pooled.keys, plain.keys)
                assert np.array_equal(pooled.values, plain.values)
                assert np.array_equal(pooled.bucket_starts,
                                      plain.bucket_starts)

    def test_ids_width_change_after_warm(self):
        # bucket-count growth flips the narrowed id dtype
        # (uint8 -> uint16); the warmed sort/scatter slots must not leak
        # stale bytes into the wider call
        rng = np.random.default_rng(10)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        ws = Workspace()
        multisplit(keys, RangeBuckets(8), method="block", engine="fast",
                   workspace=ws)
        pooled = multisplit(keys, RangeBuckets(400), method="reduced_bit",
                            engine="fast", workspace=ws)
        plain = multisplit(keys, RangeBuckets(400), method="reduced_bit",
                           engine="fast")
        assert np.array_equal(pooled.keys, plain.keys)
        assert np.array_equal(pooled.bucket_starts, plain.bucket_starts)

class TestArenaAccountingGoldens:
    """Exact arena accounting for fixed fast-engine call sequences: four
    pooled slots on the block kv path, filled by the first call and hit
    by every later one. A change means the engine now pools different
    scratch."""

    N = 1 << 16

    def _calls(self, seed, m, calls, ws):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**32, self.N, dtype=np.uint32)
        values = np.arange(self.N, dtype=np.uint32)
        for _ in range(calls):
            multisplit(keys, RangeBuckets(m), values=values, method="block",
                       engine="fast", workspace=ws)

    def test_six_calls_m16(self):
        ws = Workspace()
        with collecting() as reg:
            self._calls(7, 16, 6, ws)
        registry_hits = sum(v for k, v in reg.as_flat().items()
                            if k.startswith("workspace.hits"))
        assert (ws.hits, ws.misses, ws.nbytes) == (20, 4, 589960)
        assert registry_hits == 20

    def test_cold_then_warm_call_m32(self):
        ws = Workspace()
        self._calls(2016, 32, 2, ws)
        assert (ws.hits, ws.nbytes) == (4, 590088)


class TestFastEngineReuse:
    def test_results_reuse_pooled_buffers(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        spec = RangeBuckets(8)
        ws = Workspace()
        r1 = multisplit(keys, spec, engine="fast", workspace=ws)
        expected = r1.keys.copy()
        r2 = multisplit(keys, spec, engine="fast", workspace=ws)
        assert ws.hits > 0
        assert r1.keys.base is r2.keys.base  # ownership contract: pooled
        assert np.array_equal(r2.keys, expected)

    def test_workspace_results_still_bit_identical(self):
        rng = np.random.default_rng(1)
        spec = RangeBuckets(32)
        ws = Workspace()
        for n in (3000, 1000, 5000):  # shrink and grow across calls
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            values = rng.integers(0, 2**32, n, dtype=np.uint32)
            fast = multisplit(keys, spec, values=values, method="block",
                              engine="fast", workspace=ws)
            emu = multisplit(keys, spec, values=values, method="block")
            assert np.array_equal(fast.keys, emu.keys)
            assert np.array_equal(fast.values, emu.values)
            assert np.array_equal(fast.bucket_starts, emu.bucket_starts)

    def test_emulated_engine_pools_padding(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 2**32, 1000, dtype=np.uint32)
        spec = RangeBuckets(8)
        ws = Workspace()
        base = multisplit(keys, spec, method="warp")
        r1 = multisplit(keys, spec, method="warp", workspace=ws)
        r2 = multisplit(keys, spec, method="warp", workspace=ws)
        assert ws.hits > 0  # padding buffers were reused
        assert np.array_equal(r1.keys, base.keys)
        assert np.array_equal(r2.keys, base.keys)
        assert r1.timeline is not None

    @pytest.mark.parametrize("method", ["direct", "block", "sparse_block"])
    def test_emulated_workspace_parity_all_padded_methods(self, method):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**32, 777, dtype=np.uint32)
        values = np.arange(777, dtype=np.uint32)
        spec = RangeBuckets(8)
        ws = Workspace()
        plain = multisplit(keys, spec, values=values, method=method)
        for _ in range(2):
            pooled = multisplit(keys, spec, values=values, method=method,
                                workspace=ws)
            assert np.array_equal(pooled.keys, plain.keys)
            assert np.array_equal(pooled.values, plain.values)
