"""Stream-engine fuzz: engine="stream" must match engine="emulate" /
engine="fast" bit for bit for every stable method, for any chunk
budget, worker count, backend, or source kind (in-memory array, memmap,
chunk generator, chunk-factory callable) — and its peak anonymous
memory must stay bounded by O(chunk + m * shards) instead of O(n).
"""

import array
import gc
import os
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_CHUNK_BYTES,
    STABLE_METHODS,
    Workspace,
    check_engine_parity,
    stream_buffer,
    stream_multisplit,
)
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
TINY_CHUNK = 1 << 10  # 256 uint32 keys per chunk -> many chunks at N


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


def ro_memmap(arr: np.ndarray, tmp_path, name: str = "keys.bin") -> np.memmap:
    """Write ``arr`` to disk and reopen it as a read-only memmap."""
    path = str(tmp_path / name)
    arr.tofile(path)
    return np.memmap(path, dtype=arr.dtype, mode="r")


class TestStreamEmulateParity:
    """Bit-parity against the paper-faithful emulation, with chunk
    budgets small enough that every call really streams."""

    @pytest.mark.parametrize("m", [1, 2, 8, 32, 200])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_value_uniform(self, method, m):
        if not applicable(method, m):
            pytest.skip(f"{method} does not support m={m}")
        keys, spec = make_case("uniform", m)
        values = np.arange(keys.size, dtype=np.uint32)
        check_engine_parity(keys, spec, values=values, method=method,
                            engine="stream", chunk_bytes=TINY_CHUNK,
                            max_workers=2)

    @pytest.mark.parametrize("distribution", ["skewed", "delta"])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_only_distributions(self, method, distribution):
        m = 2 if method == "scan_split" else 32
        keys, spec = make_case(distribution, m)
        check_engine_parity(keys, spec, method=method, engine="stream",
                            chunk_bytes=TINY_CHUNK)

    @pytest.mark.parametrize("method", ["direct", "block"])
    def test_uint64_keys(self, method):
        keys = np.random.default_rng(13).integers(0, 2**32, 600).astype(np.uint64)
        check_engine_parity(keys, RangeBuckets(8), method=method,
                            engine="stream", chunk_bytes=TINY_CHUNK)

    def test_empty_and_single_element(self):
        for n in (0, 1):
            keys = np.full(n, 7, dtype=np.uint32)
            check_engine_parity(keys, RangeBuckets(8), method="block",
                                engine="stream", chunk_bytes=TINY_CHUNK)

    def test_all_one_bucket_and_presorted(self):
        # one bucket takes the identity copy (every key in one bucket),
        # presorted ids the ordinary per-shard scatter across chunk
        # boundaries — both must be bit-identical
        keys = np.full(517, 3, dtype=np.uint32)
        values = np.arange(517, dtype=np.uint32)
        check_engine_parity(keys, RangeBuckets(8), values=values,
                            method="block", engine="stream",
                            chunk_bytes=TINY_CHUNK)
        presorted = np.sort(
            np.random.default_rng(1).integers(0, 2**32, 2048, dtype=np.uint32))
        check_engine_parity(presorted, RangeBuckets(16), method="block",
                            engine="stream", chunk_bytes=TINY_CHUNK)

    def test_elementwise_custom_spec(self):
        keys = np.random.default_rng(4).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(lambda ks: (ks % 5).astype(np.uint32),
                             num_buckets=5, elementwise=True)
        check_engine_parity(keys, spec, method="block", engine="stream",
                            chunk_bytes=TINY_CHUNK)

    def test_non_elementwise_spec_rejected(self):
        # chunk-wise evaluation of a whole-array-dependent spec would
        # silently change ids, so the engine must refuse instead
        keys = np.random.default_rng(3).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(
            lambda ks: (ks > ks.mean()).astype(np.uint32), num_buckets=2)
        assert not spec.elementwise
        with pytest.raises(ValueError, match="elementwise"):
            stream_multisplit(keys, spec, method="block")

    def test_non_stable_methods_rejected(self):
        keys = np.arange(64, dtype=np.uint32)
        for method in ("radix_sort", "randomized"):
            with pytest.raises(ValueError, match="stable method family"):
                stream_multisplit(keys, RangeBuckets(4), method=method)


class TestChunkInvariance:
    """chunk_bytes / max_workers are decomposition knobs: any value must
    produce the identical permutation."""

    @pytest.mark.parametrize("n", [1, 5, 100, 1010, 4099, 100_000])
    @pytest.mark.parametrize("chunk_bytes", [256, 4096, 1 << 16, None])
    def test_chunk_budget_fuzz(self, n, chunk_bytes):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        values = np.arange(n, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(32), values=values,
                         method="block", engine="fast")
        res = stream_multisplit(keys, RangeBuckets(32), values=values,
                                method="block", chunk_bytes=chunk_bytes)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_worker_count_never_changes_results(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**32, 200_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        baseline = None
        for workers in (1, 2, 4):
            res = stream_multisplit(keys, RangeBuckets(32), values=values,
                                    method="block", chunk_bytes=1 << 16,
                                    max_workers=workers)
            if baseline is None:
                baseline = res
            else:
                assert np.array_equal(baseline.keys, res.keys)
                assert np.array_equal(baseline.values, res.values)
                assert np.array_equal(baseline.bucket_starts,
                                      res.bucket_starts)

    def test_more_workers_than_cores_under_fast_thread_switches(self):
        # the workers of one map share the per-shard histogram list and
        # the outputs; frequent switches expose a lost or misplaced write
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**32, 300_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(128), values=values,
                         method="block", engine="fast")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = stream_multisplit(keys, RangeBuckets(128), values=values,
                                    method="block", chunk_bytes=1 << 18,
                                    max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert res.extra["shards"] > res.extra["chunks"] > 1
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_chunk_bytes_validation(self):
        keys = np.arange(16, dtype=np.uint32)
        with pytest.raises(ValueError, match="chunk_bytes"):
            stream_multisplit(keys, RangeBuckets(4), chunk_bytes=0)

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_backend_parity(self, backend):
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 2**32, 150_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(32), values=values,
                         method="block", engine="fast")
        res = stream_multisplit(keys, RangeBuckets(32), values=values,
                                method="block", backend=backend,
                                chunk_bytes=1 << 17, max_workers=2)
        assert res.extra["backend"] == backend
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)


class TestChunkedSources:
    """Generator / callable / memmap sources end-to-end through the
    public multisplit API (the satellite-3 coverage matrix)."""

    def _expect(self, keys, m=16, values=None):
        return multisplit(keys, RangeBuckets(m), values=values,
                          method="block", engine="fast")

    def test_generator_source_end_to_end(self):
        rng = np.random.default_rng(31)
        chunks = [rng.integers(0, 2**32, n, dtype=np.uint32)
                  for n in (1000, 0, 517, 1, 0, 999)]  # empty + ragged
        flat = np.concatenate(chunks)
        ref = self._expect(flat)
        res = multisplit((c for c in chunks), RangeBuckets(16),
                         method="block", engine="stream")
        assert res.extra["engine"] == "stream"
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_generator_kv_source(self):
        rng = np.random.default_rng(37)
        kchunks = [rng.integers(0, 2**32, n, dtype=np.uint32)
                   for n in (800, 0, 333)]
        vchunks = [np.arange(c.size, dtype=np.uint64) + 10 * i
                   for i, c in enumerate(kchunks)]
        ref = self._expect(np.concatenate(kchunks),
                           values=np.concatenate(vchunks))
        res = multisplit((c for c in kchunks), RangeBuckets(16),
                         values=(v for v in vchunks),
                         method="block", engine="stream")
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)

    def test_callable_source_invoked_once_per_pass(self):
        rng = np.random.default_rng(41)
        chunks = [rng.integers(0, 2**32, 700, dtype=np.uint32)
                  for _ in range(4)]
        calls = []

        def factory():
            calls.append(1)
            return iter(chunks)

        ref = self._expect(np.concatenate(chunks))
        res = multisplit(factory, RangeBuckets(16), method="block",
                         engine="stream")
        assert len(calls) == 2  # prescan pass + scatter pass
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_memmap_source_end_to_end(self, tmp_path):
        rng = np.random.default_rng(43)
        keys = rng.integers(0, 2**32, 50_000, dtype=np.uint32)
        mm = ro_memmap(keys, tmp_path)
        ref = self._expect(keys)
        res = multisplit(mm, RangeBuckets(16), method="block",
                         engine="stream", chunk_bytes=1 << 14)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_single_chunk_degenerate(self):
        rng = np.random.default_rng(47)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        res = stream_multisplit([keys], RangeBuckets(16), method="block")
        ref = self._expect(keys)
        assert res.extra["chunks"] == 1
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_dtype_mismatch_across_chunks(self):
        chunks = [np.arange(10, dtype=np.uint32),
                  np.arange(10, dtype=np.uint64)]
        with pytest.raises(ValueError, match="dtype"):
            multisplit((c for c in chunks), RangeBuckets(4),
                       method="block", engine="stream")

    def test_empty_chunked_source_rejected(self):
        with pytest.raises(ValueError, match="cannot infer a key dtype"):
            stream_multisplit(iter([]), RangeBuckets(4), method="block")

    @pytest.mark.parametrize("with_values", [False, True],
                             ids=["keys", "keys+values"])
    def test_empty_iterator_leaves_no_spool(self, tmp_path, monkeypatch,
                                            with_values):
        # the spools opened for pass 1 are aborted on the no-chunks
        # error too: no file left behind, no file object left open
        monkeypatch.setenv("REPRO_STREAM_TMPDIR", str(tmp_path))
        values = iter([]) if with_values else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError) as err:
                stream_multisplit(iter([]), RangeBuckets(4, 0, 100),
                                  values=values, method="block")
            gc.collect()
        assert str(err.value) == (
            "chunked key source yielded no chunks — cannot infer a key "
            "dtype; pass an (empty) ndarray instead")
        assert os.listdir(tmp_path) == []
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_value_chunk_length_mismatch(self):
        kchunks = [np.arange(10, dtype=np.uint32)]
        vchunks = [np.arange(9, dtype=np.uint32)]
        with pytest.raises(ValueError, match="match keys chunk shape"):
            stream_multisplit((c for c in kchunks), RangeBuckets(4),
                              values=(v for v in vchunks), method="block")

    def test_values_source_runs_out(self):
        kchunks = [np.arange(10, dtype=np.uint32)] * 2
        vchunks = [np.arange(10, dtype=np.uint32)]
        with pytest.raises(ValueError, match="ran out of chunks"):
            stream_multisplit((c for c in kchunks), RangeBuckets(4),
                              values=(v for v in vchunks), method="block")

    def test_callable_replay_mutation_detected(self):
        state = {"pass": 0}

        def factory():
            state["pass"] += 1
            n = 100 if state["pass"] == 1 else 99  # shrinks on replay
            return iter([np.arange(n, dtype=np.uint32)])

        with pytest.raises(ValueError, match="changed between passes"):
            stream_multisplit(factory, RangeBuckets(4), method="block")

    def test_callable_kv_needs_callable_values(self):
        def factory():
            return iter([np.arange(10, dtype=np.uint32)])

        with pytest.raises(TypeError, match="callable values source"):
            stream_multisplit(factory, RangeBuckets(4),
                              values=np.arange(10, dtype=np.uint32),
                              method="block")

    def test_chunked_source_needs_stream_engine(self):
        chunks = [np.arange(10, dtype=np.uint32)]
        for engine in ("fast", "sharded", "emulate"):
            with pytest.raises(TypeError, match="stream engine"):
                multisplit((c for c in chunks), RangeBuckets(4),
                           method="block", engine=engine)

    def test_scalar_list_still_an_array_input(self):
        # plain lists of numbers keep their historical array semantics,
        # and so does every other sized, indexable source of scalars
        res = multisplit([3, 1, 2, 0], RangeBuckets(4, 0, 4), method="block",
                         engine="stream")
        assert np.array_equal(res.keys, [0, 1, 2, 3])
        ref = multisplit(list(range(99, -1, -1)), RangeBuckets(4, 0, 100),
                         method="block", engine="fast")
        for keys in (range(99, -1, -1), array.array("I", range(99, -1, -1))):
            for engine in ("fast", "sharded", "stream", "auto", "emulate"):
                res = multisplit(keys, RangeBuckets(4, 0, 100),
                                 method="block", engine=engine)
                assert np.array_equal(res.keys, ref.keys)
                assert np.array_equal(res.bucket_starts, ref.bucket_starts)


class TestOutputs:
    def test_caller_out_buffers_are_used(self):
        rng = np.random.default_rng(53)
        keys = rng.integers(0, 2**32, 4000, dtype=np.uint32)
        values = np.arange(4000, dtype=np.uint64)
        out = np.empty(4000, dtype=np.uint32)
        out_values = np.empty(4000, dtype=np.uint64)
        res = stream_multisplit(keys, RangeBuckets(8), values=values,
                                method="block", chunk_bytes=TINY_CHUNK,
                                out=out, out_values=out_values)
        assert res.keys is out
        assert res.values is out_values
        ref = multisplit(keys, RangeBuckets(8), values=values,
                         method="block", engine="fast")
        assert np.array_equal(ref.keys, out)
        assert np.array_equal(ref.values, out_values)

    def test_memmap_out(self, tmp_path):
        rng = np.random.default_rng(59)
        keys = rng.integers(0, 2**32, 4000, dtype=np.uint32)
        out = np.memmap(str(tmp_path / "out.bin"), dtype=np.uint32,
                        mode="w+", shape=(4000,))
        res = stream_multisplit(keys, RangeBuckets(8), method="block",
                                out=out)
        assert res.extra["out_memmap"] is True
        ref = multisplit(keys, RangeBuckets(8), method="block", engine="fast")
        assert np.array_equal(ref.keys, np.asarray(out))

    def test_out_validation(self):
        keys = np.arange(100, dtype=np.uint32)
        with pytest.raises(ValueError, match="100 elements"):
            stream_multisplit(keys, RangeBuckets(4), method="block",
                              out=np.empty(99, dtype=np.uint32))
        with pytest.raises(ValueError, match="dtype"):
            stream_multisplit(keys, RangeBuckets(4), method="block",
                              out=np.empty(100, dtype=np.uint64))
        frozen = np.empty(100, dtype=np.uint32)
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            stream_multisplit(keys, RangeBuckets(4), method="block",
                              out=frozen)
        with pytest.raises(ValueError, match="out_values"):
            stream_multisplit(keys, RangeBuckets(4), method="block",
                              out_values=np.empty(100, dtype=np.uint32))

    # which output buffer aliases which array: the scatter would
    # overwrite keys/values before reading them, so each one raises
    ALIASES = {
        "out_is_keys": (lambda k, v, o: dict(out=k), "out .* keys"),
        "out_values_is_values": (lambda k, v, o: dict(out_values=v),
                                 "out_values .* values"),
        "out_is_out_values": (lambda k, v, o: dict(out=o, out_values=o),
                              "out .* out_values"),
    }

    @pytest.mark.parametrize("case", sorted(ALIASES))
    def test_aliased_out_buffers_raise(self, case):
        rng = np.random.default_rng(61)
        keys = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        values = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        other = np.empty(4096, dtype=np.uint32)
        make, match = self.ALIASES[case]
        with pytest.raises(ValueError, match=match):
            multisplit(keys, RangeBuckets(16), values=values,
                       engine="stream", **make(keys, values, other))

    def test_disjoint_views_of_one_buffer_are_accepted(self):
        rng = np.random.default_rng(67)
        keys = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        values = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        both = np.empty(2 * 4096, dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(16), values=values,
                         engine="stream", out=both[:4096],
                         out_values=both[4096:])
        ref = multisplit(keys, RangeBuckets(16), values=values,
                         engine="fast")
        assert np.array_equal(res.keys, ref.keys)
        assert np.array_equal(res.values, ref.values)

    def test_stream_buffer_tiers(self):
        small = stream_buffer(16, np.uint32, threshold=1 << 20)
        assert isinstance(small, np.ndarray)
        assert not isinstance(small, np.memmap)
        big = stream_buffer(1024, np.uint32, threshold=128)
        assert isinstance(big, np.memmap)
        assert big.size == 1024 and big.dtype == np.uint32
        big[:] = 7  # writable, backing file already unlinked
        assert int(big.sum()) == 7 * 1024
        empty = stream_buffer(0, np.uint32, threshold=0)
        assert empty.size == 0


class TestAutoDispatch:
    def test_memmap_goes_stream(self, tmp_path):
        keys = np.arange(4096, dtype=np.uint32)
        mm = ro_memmap(keys, tmp_path)
        res = multisplit(mm, RangeBuckets(8), method="block", engine="auto")
        assert res.extra["engine"] == "stream"

    def test_big_in_memory_array_goes_stream(self, monkeypatch):
        monkeypatch.setattr("repro.engine.stream.STREAM_AUTO_MIN_BYTES",
                            1 << 12)
        keys = np.random.default_rng(61).integers(0, 2**32, 4096,
                                                  dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(8), method="block", engine="auto")
        assert res.extra["engine"] == "stream"
        # below the budget the in-core tiers keep the input
        small = multisplit(keys[:128], RangeBuckets(8), method="block",
                           engine="auto")
        assert small.extra["engine"] == "fast"

    def test_generator_goes_stream(self):
        chunks = [np.arange(100, dtype=np.uint32)]
        res = multisplit((c for c in chunks), RangeBuckets(8),
                         method="block", engine="auto")
        assert res.extra["engine"] == "stream"

    def test_stream_knobs_force_stream_under_auto(self):
        keys = np.arange(512, dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(8), method="block",
                         engine="auto", chunk_bytes=1 << 12)
        assert res.extra["engine"] == "stream"
        out = np.empty(512, dtype=np.uint32)
        res = multisplit(keys, RangeBuckets(8), method="block",
                         engine="auto", out=out)
        assert res.extra["engine"] == "stream" and res.keys is out

    def test_non_elementwise_spec_never_auto_streams(self, monkeypatch):
        monkeypatch.setattr("repro.engine.stream.STREAM_AUTO_MIN_BYTES",
                            1 << 12)
        keys = np.random.default_rng(67).integers(0, 2**32, 4096,
                                                  dtype=np.uint32)
        spec = CustomBuckets(
            lambda ks: (ks > ks.mean()).astype(np.uint32), num_buckets=2)
        res = multisplit(keys, spec, method="block", engine="auto")
        assert res.extra["engine"] != "stream"

    def test_knob_rejections(self):
        keys = np.arange(64, dtype=np.uint32)
        with pytest.raises(ValueError, match="stream-engine knob"):
            multisplit(keys, RangeBuckets(4), engine="fast",
                       chunk_bytes=1 << 12)
        with pytest.raises(ValueError, match="stream-engine knob"):
            multisplit(keys, RangeBuckets(4), engine="sharded",
                       out=np.empty(64, dtype=np.uint32))
        with pytest.raises(TypeError, match="shards"):
            multisplit(keys, RangeBuckets(4), engine="stream", shards=4)
        # auto + chunked source + shards: no engine takes shards=
        with pytest.raises(TypeError, match="shards"):
            multisplit(iter([keys]), RangeBuckets(4), engine="auto",
                       shards=4)


class TestWorkspaceAndObservability:
    def test_peak_memory_bounded_by_chunk_not_n(self):
        n = 1 << 20  # 4 MiB of uint32 keys
        chunk = 1 << 16  # 64 KiB chunks
        rng = np.random.default_rng(71)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        ws = Workspace()
        stream_multisplit(keys, RangeBuckets(32), method="block",
                          workspace=ws, chunk_bytes=chunk)
        assert ws.peak_nbytes > 0
        # the arena high-water must track the chunk budget, not the
        # dataset: allow chunk scratch + ids cache + count matrices
        assert ws.peak_nbytes < keys.nbytes // 2, ws.peak_nbytes

    def test_obs_series(self):
        rng = np.random.default_rng(73)
        keys = rng.integers(0, 2**32, 100_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        with collecting() as reg:
            stream_multisplit(keys, RangeBuckets(16), values=values,
                              method="block", chunk_bytes=1 << 16,
                              max_workers=2)
        flat = reg.as_flat()
        assert flat["engine.stream.calls{method=block}"] == 1
        assert flat["engine.stream.keys{method=block}"] == keys.size
        assert flat["engine.stream.chunks{method=block}"] == 7
        assert flat["engine.stream.workers{method=block}"] == 2
        assert flat["engine.stream.chunk_bytes{method=block}"] == 1 << 16
        assert flat["engine.stream.shards{method=block}"] >= 7
        assert flat["engine.stream.ids_cached_bytes{method=block}"] > 0
        assert not [k for k in flat if k.startswith("engine.backend.")]
        for stage in ("prescan", "scan", "scatter"):
            key = f"engine.stream.{stage}_ms.count{{method=block}}"
            assert flat[key] == 1, (key, flat)
        assert flat["engine.stream.run_ms.count{kv=True,method=block}"] == 1
        assert flat["workspace.peak_nbytes"] > 0

    def test_spool_bytes_counted_for_one_shot_sources(self):
        chunks = [np.arange(1000, dtype=np.uint32) for _ in range(3)]
        with collecting() as reg:
            stream_multisplit((c for c in chunks), RangeBuckets(8),
                              method="block")
        flat = reg.as_flat()
        assert flat["engine.stream.spool_bytes"] == 3000 * 4

    def test_workspace_reuse_across_calls(self):
        ws = Workspace()
        rng = np.random.default_rng(79)
        for n in (50_000, 80_000, 10_000):
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            ref = multisplit(keys, RangeBuckets(16), method="block",
                             engine="fast")
            res = stream_multisplit(keys, RangeBuckets(16), method="block",
                                    workspace=ws, chunk_bytes=1 << 16)
            assert np.array_equal(ref.keys, res.keys)
        assert ws.hits > 0

    def test_results_outlive_the_next_call_on_their_workspace(self):
        ws = Workspace()
        spec = RangeBuckets(4, 0, 100)
        first = stream_multisplit(np.arange(100), spec, workspace=ws)
        second = stream_multisplit(np.zeros(100, np.int64), spec, workspace=ws)
        assert first.bucket_starts.tolist() == [0, 25, 50, 75, 100]
        assert second.bucket_starts.tolist() == [0, 100, 100, 100, 100]
        assert not np.shares_memory(first.keys, second.keys)

    def test_result_shape_and_extra(self):
        keys = np.random.default_rng(83).integers(0, 2**32, 5000,
                                                  dtype=np.uint32)
        res = stream_multisplit(keys, RangeBuckets(8), method="block",
                                chunk_bytes=4096, max_workers=2)
        assert res.timeline is None
        assert res.stable is True
        assert res.extra["engine"] == "stream"
        assert res.extra["chunks"] == 5
        assert res.extra["workers"] == 2
        assert res.extra["chunk_bytes"] == 4096

    def test_tmpdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_TMPDIR", str(tmp_path))
        before = set(os.listdir(tmp_path))
        buf = stream_buffer(1024, np.uint32, threshold=128)
        buf[:] = 1
        # unlinked eagerly: no residue, but the env dir was honored
        assert set(os.listdir(tmp_path)) == before
        assert tempfile.gettempdir() != str(tmp_path)  # sanity


class TestWorkerMaps:
    """Each pass stripes one window of shards over the workers with one
    map: the whole pass when the chunks are views of a C-contiguous
    array, one chunk when they are copies."""

    M = 128  # 32K-key shards
    CHUNK_KEYS = 40_000  # two shards per chunk
    N = 4 * CHUNK_KEYS

    @pytest.fixture
    def maps(self, monkeypatch):
        calls = []
        real_map = ThreadPoolExecutor.map

        def counting_map(pool, *args, **kwargs):
            calls.append(1)
            return real_map(pool, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "map", counting_map)
        return calls

    def _run(self, keys, values, flat_keys, flat_values):
        res = stream_multisplit(keys, RangeBuckets(self.M), values=values,
                                method="block", max_workers=2,
                                chunk_bytes=4 * self.CHUNK_KEYS)
        ref = multisplit(flat_keys, RangeBuckets(self.M), values=flat_values,
                         method="block", engine="fast")
        assert (res.extra["chunks"], res.extra["shards"]) == (4, 8)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def _case(self):
        rng = np.random.default_rng(97)
        keys = rng.integers(0, 2**32, self.N, dtype=np.uint32)
        return keys, np.arange(self.N, dtype=np.uint32)

    def test_array_source_maps_once_per_pass(self, maps):
        keys, values = self._case()
        self._run(keys, values, keys, values)
        assert len(maps) == 2

    def test_callable_source_maps_once_per_chunk_per_pass(self, maps):
        keys, values = self._case()
        bounds = range(0, self.N, self.CHUNK_KEYS)
        self._run(lambda: (keys[lo:lo + self.CHUNK_KEYS] for lo in bounds),
                  lambda: (values[lo:lo + self.CHUNK_KEYS] for lo in bounds),
                  keys, values)
        assert len(maps) == 2 * 4

    def test_strided_array_maps_once_per_chunk_per_pass(self, maps):
        keys, values = self._case()
        wide = np.repeat(keys, 2)
        self._run(wide[::2], values, keys, values)
        assert len(maps) == 2 * 4


class TestStreamBatch:
    def test_batch_stream_matches_fast(self):
        rng = np.random.default_rng(89)
        batch = [rng.integers(0, 2**32, n, dtype=np.uint32)
                 for n in (3000, 50_000, 12_000)]
        fast = multisplit_batch(batch, RangeBuckets(16), engine="fast")
        res = multisplit_batch(batch, RangeBuckets(16), engine="stream",
                               max_workers=2)
        for a, b in zip(fast, res):
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.bucket_starts, b.bucket_starts)

    def test_batch_results_all_survive(self):
        # stream results are never pooled: every result must hold its
        # own data even on a shared workspace
        ws = Workspace(reuse_outputs=False)
        batch = [np.random.default_rng(i).integers(0, 2**32, 2000,
                                                   dtype=np.uint32)
                 for i in range(4)]
        res = multisplit_batch(batch, RangeBuckets(8), engine="stream",
                               workspace=ws)
        refs = multisplit_batch(batch, RangeBuckets(8), engine="fast")
        for a, b in zip(refs, res):
            assert np.array_equal(a.keys, b.keys)


@pytest.mark.slow
class TestAcceptanceScale:
    """The PR acceptance bar: bit-identity at n = 2^24 from a memmap
    source, with the default chunk budget actually streaming (64 MiB of
    keys through 16 MiB chunks)."""

    def test_bit_identity_at_2_24(self, tmp_path):
        n = 1 << 24
        rng = np.random.default_rng(2016)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        values = np.arange(n, dtype=np.uint32)
        mm = ro_memmap(keys, tmp_path)
        ref = multisplit(keys, RangeBuckets(32), values=values,
                         method="block", engine="fast")
        ws = Workspace()
        res = stream_multisplit(mm, RangeBuckets(32), values=values,
                                method="block", workspace=ws)
        assert res.extra["chunks"] == keys.nbytes // DEFAULT_CHUNK_BYTES
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        # O(chunk + m*P) peak: far below the 64 MiB key array
        assert ws.peak_nbytes < keys.nbytes // 2
