"""fast_radix_sort: bit-identical to the stable oracle across the grid.

The contract under test is the paper's Section 3.4 claim made literal:
iterating a *stable* multisplit over ``digit_bits``-wide digits is a
stable LSD radix sort, so every engine/dtype cell must
reproduce ``stable_sort_pairs`` exactly — same keys, same value
permutation, no tolerance.
"""

import tracemalloc

import numpy as np
import pytest

from repro.engine import Workspace
from repro.obs import collecting
from repro.sort import fast_radix_sort, stable_sort_pairs
from repro.sort.fast_radix import DigitBuckets

DTYPES = [np.uint32, np.int32, np.uint64, np.int64, np.uint16, np.int8]


ENGINES = ["fast", "sharded", "stream", "auto"]


def make(dtype, n, seed, spread=None):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    lo, hi = (info.min, info.max) if spread is None else spread
    keys = rng.integers(lo, hi, n, endpoint=True, dtype=dtype)
    values = np.arange(n, dtype=np.uint32)
    return keys, values


def sort_kw(engine):
    kw = {"engine": engine}
    if engine != "fast":
        kw["max_workers"] = 2
    if engine == "stream":
        kw["chunk_bytes"] = 1 << 14  # small enough to really stream
    return kw


class TestOracleParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    # the ids keep the "-None" backend segment of the former
    # (engine, backend) grid, so they stay stable
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=[f"{e}-None" for e in ENGINES])
    def test_full_width_kv(self, dtype, engine):
        n = 40_000
        seed = DTYPES.index(dtype) * 11 + len(engine)
        keys, values = make(dtype, n, seed=seed)
        sk, sv = fast_radix_sort(keys, values, **sort_kw(engine))
        rk, rv = stable_sort_pairs(keys, values)
        assert sk.dtype == keys.dtype
        assert np.array_equal(sk, rk)
        assert np.array_equal(sv, rv)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_keys_only(self, dtype):
        keys, _ = make(dtype, 30_000, seed=7)
        sk, sv = fast_radix_sort(keys)
        assert sv is None
        assert np.array_equal(sk, np.sort(keys, kind="stable"))

    @pytest.mark.parametrize("bits", [1, 5, 8, 17, 32])
    @pytest.mark.parametrize("digit_bits", [4, 8, 12])
    def test_partial_bits_match_masked_oracle(self, bits, digit_bits):
        keys, values = make(np.uint32, 25_000, seed=bits * 31 + digit_bits)
        sk, sv = fast_radix_sort(keys, values, bits=bits, digit_bits=digit_bits)
        mask = np.uint32((1 << bits) - 1) if bits < 32 else np.uint32(2**32 - 1)
        order = np.argsort(keys & mask, kind="stable")
        assert np.array_equal(sk, keys[order])
        assert np.array_equal(sv, values[order])

    def test_uint64_full_width(self):
        keys, values = make(np.uint64, 30_000, seed=11)
        assert int(keys.max()) > 2**32  # actually exercises the high digits
        sk, sv = fast_radix_sort(keys, values, bits=64)
        rk, rv = stable_sort_pairs(keys, values)
        assert np.array_equal(sk, rk) and np.array_equal(sv, rv)

    def test_duplicate_heavy_is_stable(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 8, 50_000, dtype=np.uint32)
        values = np.arange(50_000, dtype=np.uint32)
        sk, sv = fast_radix_sort(keys, values)
        rk, rv = stable_sort_pairs(keys, values)
        assert np.array_equal(sk, rk) and np.array_equal(sv, rv)


class TestReducedBit:
    def test_small_keys_take_one_pass(self):
        # bits=None infers ceil(log2 m): 5-bit keys, default 8-bit digits
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 32, 30_000, dtype=np.uint32)
        with collecting() as reg:
            sk, _ = fast_radix_sort(keys, engine="fast")
        assert reg.value("sort.fast.passes", kind="radix") == 1
        assert np.array_equal(sk, np.sort(keys))

    def test_explicit_single_pass_bits(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2**32, 30_000, dtype=np.uint32)
        with collecting() as reg:
            fast_radix_sort(keys, bits=8, engine="fast")
        assert reg.value("sort.fast.passes", kind="radix") == 1

    def test_digit_width_invariant(self):
        keys, values = make(np.uint32, 20_000, seed=5)
        ref = fast_radix_sort(keys, values, digit_bits=8)
        for db in (1, 3, 11, 16):
            sk, sv = fast_radix_sort(keys, values, digit_bits=db)
            assert np.array_equal(sk, ref[0]) and np.array_equal(sv, ref[1])


class TestDigitBuckets:
    def test_ids_extract_the_digit(self):
        spec = DigitBuckets(shift=8, width=4)
        keys = np.array([0x0000, 0x0100, 0x0F00, 0x1F00, 0xABCD], dtype=np.uint32)
        assert spec.num_buckets == 16
        assert spec.ids(keys).tolist() == [0, 1, 15, 15, 0xB]
        assert spec.elementwise
        # signed keys: the digits of the order-preserving unsigned image
        # (the sign bit flipped), so -128 is digit 0 and 127 digit 15
        keys8 = np.array([-128, -1, 0, 1, 127], dtype=np.int8)
        assert DigitBuckets(4, 4).ids(keys8).tolist() == [0, 7, 8, 8, 15]
        assert DigitBuckets(0, 4).ids(keys8).tolist() == [0, 15, 0, 1, 15]
        keys32 = np.array([-2**31, -1, 0, 0x12345678], dtype=np.int32)
        assert DigitBuckets(24, 8).ids(keys32).tolist() == [
            0, 0x7F, 0x80, 0x92]
        assert DigitBuckets(28, 4).ids(keys32).tolist() == [0, 7, 8, 9]
        assert DigitBuckets(8, 8).ids(keys32).tolist() == [0, 0xFF, 0, 0x56]


class TestEdgesAndErrors:
    def test_empty_and_singleton(self):
        for n in (0, 1):
            keys = np.arange(n, dtype=np.uint32)
            sk, sv = fast_radix_sort(keys, np.arange(n, dtype=np.uint32))
            assert sk.size == n and sv.size == n

    def test_all_equal_keys(self):
        keys = np.full(10_000, 7, dtype=np.uint32)
        values = np.arange(10_000, dtype=np.uint32)
        sk, sv = fast_radix_sort(keys, values)
        assert np.array_equal(sk, keys) and np.array_equal(sv, values)

    def test_rejects_float_keys(self):
        with pytest.raises(TypeError, match="integer keys"):
            fast_radix_sort(np.random.default_rng(0).random(10))

    def test_rejects_2d_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="1-D"):
            fast_radix_sort(np.zeros((2, 2), dtype=np.uint32))
        with pytest.raises(ValueError, match="shape"):
            fast_radix_sort(np.zeros(4, dtype=np.uint32),
                            np.zeros(5, dtype=np.uint32))

    def test_rejects_explicit_bits_for_signed(self):
        with pytest.raises(ValueError, match="unsigned"):
            fast_radix_sort(np.zeros(4, dtype=np.int32), bits=8)

    def test_rejects_out_of_range_bits_and_digit_bits(self):
        k = np.zeros(4, dtype=np.uint32)
        with pytest.raises(ValueError, match="bits must be in"):
            fast_radix_sort(k, bits=33)
        with pytest.raises(ValueError, match="digit_bits"):
            fast_radix_sort(k, digit_bits=0)
        with pytest.raises(ValueError, match="chunk_bytes must be >= 1"):
            fast_radix_sort(k, engine="stream", chunk_bytes=0)

    def test_rejects_emulate_engine(self):
        with pytest.raises(ValueError, match="radix_sort"):
            fast_radix_sort(np.zeros(4, dtype=np.uint32), engine="emulate")

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            fast_radix_sort(np.zeros(4, dtype=np.uint32), engine="warp")

    def test_rejects_sharded_knobs_on_fast(self):
        with pytest.raises(ValueError, match="sharded"):
            fast_radix_sort(np.zeros(4, dtype=np.uint32), engine="fast",
                            max_workers=2)

    def test_rejects_stream_knob_mismatches(self):
        k = np.zeros(4, dtype=np.uint32)
        with pytest.raises(ValueError, match="stream-engine knob"):
            fast_radix_sort(k, engine="fast", chunk_bytes=1 << 12)
        with pytest.raises(ValueError, match="stream-engine knob"):
            fast_radix_sort(k, engine="sharded", chunk_bytes=1 << 12)
        with pytest.raises(TypeError, match="shards"):
            fast_radix_sort(k, engine="stream", shards=4)


class TestStreamSort:
    """engine="stream": the pass loop on the out-of-core engine."""

    def test_chunk_bytes_under_auto_selects_stream(self):
        keys, values = make(np.uint32, 10_000, seed=14)
        sk, sv = fast_radix_sort(keys, values, chunk_bytes=1 << 13)
        rk, rv = stable_sort_pairs(keys, values)
        assert np.array_equal(sk, rk) and np.array_equal(sv, rv)

    def test_memmap_keys_auto_route_to_stream(self, tmp_path):
        for dtype in (np.uint32, np.int32, np.int16):
            keys, _ = make(dtype, 50_000, seed=15)
            path = str(tmp_path / f"keys-{np.dtype(dtype)}.bin")
            keys.tofile(path)
            mm = np.memmap(path, dtype=dtype, mode="r")
            with collecting() as reg:
                sk, _ = fast_radix_sort(mm)
            assert reg.value("sort.fast.calls", kind="radix",
                             engine="stream") == 1
            rk, _ = stable_sort_pairs(keys, None)
            assert sk.dtype == keys.dtype
            assert np.array_equal(sk, rk)

    def test_signed_and_narrow_dtypes_decode_chunkwise(self):
        # signed and narrow keys stream as they are, with no encoded
        # copy: the passes read the digits of each key's order-preserving
        # image, and the output keeps the input dtype
        for dtype in (np.int32, np.int64, np.uint16, np.int8):
            keys, values = make(dtype, 12_000, seed=16)
            sk, sv = fast_radix_sort(keys, values, engine="stream",
                                     chunk_bytes=1 << 12)
            rk, rv = stable_sort_pairs(keys, values)
            assert sk.dtype == keys.dtype
            assert np.array_equal(sk, rk) and np.array_equal(sv, rv)

    def test_signed_and_narrow_keys_peak_no_higher_than_uint32(self):
        # a signed or narrow stream sort allocates what a uint32 one of
        # the same n does, or less: its ping-pong pair, of its own dtype,
        # and chunk scratch; no encoded chunk and no n-sized decode. One
        # worker: two workers' interleaving moves the peak by a few %
        n = 1 << 20
        fast_radix_sort(make(np.int16, 4096, seed=19)[0], engine="stream",
                        chunk_bytes=1 << 12)  # warm lazily built state
        peaks = {}
        for dtype in (np.uint32, np.int32, np.int16):
            keys, _ = make(dtype, n, seed=19)
            tracemalloc.start()
            try:
                fast_radix_sort(keys, engine="stream", chunk_bytes=1 << 16,
                                max_workers=1)
                peaks[dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 1 % covers interpreter bookkeeping (a few hundred bytes either
        # way, by measuring order); an encoded chunk copy plus an n-sized
        # decode buffer would add about 3 bytes per key, ~30 %
        assert peaks[np.int32] <= peaks[np.uint32] * 1.01, peaks
        assert peaks[np.int16] <= peaks[np.uint32] * 1.01, peaks

    def test_single_pass_reduced_bits(self):
        keys, values = make(np.uint32, 30_000, seed=17, spread=(0, 200))
        with collecting() as reg:
            sk, sv = fast_radix_sort(keys, values, engine="stream",
                                     chunk_bytes=1 << 13)
        assert reg.value("sort.fast.passes", kind="radix") == 1
        rk, rv = stable_sort_pairs(keys, values)
        assert np.array_equal(sk, rk) and np.array_equal(sv, rv)

    def test_workspace_reuse_across_stream_sorts(self):
        keys, values = make(np.uint32, 25_000, seed=18)
        ws = Workspace()
        a = fast_radix_sort(keys, values, engine="stream",
                            chunk_bytes=1 << 14, workspace=ws)
        b = fast_radix_sort(keys, values, engine="stream",
                            chunk_bytes=1 << 14, workspace=ws)
        # chunk scratch recycles through the sort.stream child arena
        assert ws.subarena("sort.stream").hits > 0
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestWorkspaceAndLifetime:
    def test_workspace_reuse_hits(self):
        keys, values = make(np.uint32, 30_000, seed=9)
        ws = Workspace()
        fast_radix_sort(keys, values, engine="fast", workspace=ws)
        misses_after_warmup = ws.misses
        sk, sv = fast_radix_sort(keys, values, engine="fast", workspace=ws)
        assert ws.misses == misses_after_warmup  # steady state: pure reuse
        rk, rv = stable_sort_pairs(keys, values)
        assert np.array_equal(sk, rk) and np.array_equal(sv, rv)


class TestObservability:
    def test_series_and_pass_counts(self):
        keys, values = make(np.uint32, 30_000, seed=12)
        with collecting() as reg:
            fast_radix_sort(keys, values, engine="fast")
        assert reg.value("sort.fast.calls", kind="radix", engine="fast") == 1
        assert reg.value("sort.fast.keys", kind="radix") == keys.size
        assert reg.value("sort.fast.passes", kind="radix") == 4
        assert reg.timer("sort.fast.run_ms", kind="radix", engine="fast",
                         kv=True).count == 1
        assert reg.timer("sort.fast.pass_ms", kind="radix").count == 4
