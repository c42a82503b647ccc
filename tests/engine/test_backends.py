"""Kernel backends: resolution, degradation, parity.

The whole backend contract is "different execution substrate, same
bytes": every backend x engine combination must return the bit-identical
``(keys, values, bucket_starts)`` of the emulated reference, and an
unavailable backend must degrade to numpy with one warning instead of
failing. These tests pin both halves.
"""

import warnings

import numpy as np
import pytest

from repro.engine import STABLE_METHODS, check_engine_parity
from repro.engine import backends as backends_mod
from repro.engine.backends import (BACKEND_NAMES, BackendFallbackWarning,
                                   KernelBackend, NumpyBackend,
                                   available_backends, get_backend,
                                   narrow_ids_dtype, numba_available,
                                   resolve_backend)
from repro.multisplit import RangeBuckets, multisplit

HAS_NUMBA = numba_available()

# every backend that can actually run here; "numba" is included only
# when importable so these tests never depend on the fallback path
RUNNABLE = ["numpy"] + (["numba"] if HAS_NUMBA else [])


class Tagged(NumpyBackend):
    """Bring-your-own backend: numpy kernels under another name."""

    name = "tagged"


def make_keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**32, n, dtype=np.uint32)


class TestResolution:
    def test_none_is_numpy_singleton(self):
        bk = resolve_backend(None)
        assert bk.name == "numpy"
        assert resolve_backend("numpy") is bk  # process-wide singleton

    def test_instance_passthrough(self):
        bk = get_backend("numpy")
        assert resolve_backend(bk) is bk

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_available_backends_covers_names(self):
        avail = available_backends()
        assert set(avail) == set(BACKEND_NAMES)
        assert avail["numpy"] is True
        assert avail["numba"] == HAS_NUMBA

    def test_auto_prefers_numba_when_available(self):
        bk = resolve_backend("auto")
        assert bk.name == ("numba" if HAS_NUMBA else "numpy")

    @pytest.mark.skipif(HAS_NUMBA, reason="degradation path needs no numba")
    def test_missing_numba_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "_warned_numba_missing", False)
        with pytest.warns(BackendFallbackWarning, match="falling back"):
            bk = resolve_backend("numba")
        assert bk.name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_backend("numba").name == "numpy"

    @pytest.mark.skipif(HAS_NUMBA, reason="degradation path needs no numba")
    def test_missing_numba_still_produces_results(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "_warned_numba_missing", False)
        keys = make_keys(2048)
        with pytest.warns(BackendFallbackWarning):
            res = multisplit(keys, RangeBuckets(8), engine="fast",
                             method="block", backend="numba")
        ref = multisplit(keys, RangeBuckets(8), engine="fast", method="block")
        assert res.extra["backend"] == "numpy"
        assert np.array_equal(res.keys, ref.keys)

    def test_narrow_ids_dtype_boundaries(self):
        assert narrow_ids_dtype(2) == np.uint8
        assert narrow_ids_dtype(256) == np.uint8
        assert narrow_ids_dtype(257) == np.uint16
        assert narrow_ids_dtype(1 << 16) == np.uint16
        assert narrow_ids_dtype((1 << 16) + 1) == np.uint32
        assert narrow_ids_dtype(1 << 32) == np.uint32
        assert narrow_ids_dtype((1 << 32) + 1) == np.uint64


class TestKernelContract:
    """Direct prescan/scatter checks against the numpy reference."""

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("m", [1, 8, 200])
    def test_prescan_matches_bincount(self, backend, m):
        bk = get_backend(backend)
        rng = np.random.default_rng(m)
        ids = rng.integers(0, m, 5000).astype(narrow_ids_dtype(m))
        bk.warmup(np.dtype(np.uint32), None, ids.dtype)
        hist, mono = bk.prescan(ids, m)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, np.bincount(ids, minlength=m))
        assert bool(mono) == bool(np.all(ids[1:] >= ids[:-1]))
        s_hist, s_mono = bk.prescan(np.sort(ids), m)
        assert s_mono and np.array_equal(s_hist, hist)

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("m", [1, 8, 200])
    def test_hist_matches_prescan(self, backend, m):
        # the histogram-only kernel the stream engine downgrades to once
        # the already-partitioned shortcut is dead
        bk = get_backend(backend)
        rng = np.random.default_rng(m)
        ids = rng.integers(0, m, 5000).astype(narrow_ids_dtype(m))
        bk.warmup(np.dtype(np.uint32), None, ids.dtype)
        hist = bk.hist(ids, m)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, bk.prescan(ids, m)[0])
        assert np.array_equal(bk.hist(ids[:0], m), np.zeros(m, np.int64))

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("kv", [False, True])
    def test_scatter_is_stable(self, backend, kv):
        bk = get_backend(backend)
        m, n = 16, 4000
        rng = np.random.default_rng(7)
        keys = make_keys(n, seed=7)
        values = np.arange(n, dtype=np.uint32) if kv else None
        ids = rng.integers(0, m, n).astype(np.uint8)
        bk.warmup(keys.dtype, values.dtype if kv else None, ids.dtype)
        counts = np.bincount(ids, minlength=m).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        out_k = np.empty(n, dtype=keys.dtype)
        out_v = np.empty(n, dtype=np.uint32) if kv else None
        bk.scatter(keys, values, ids, counts, offsets, out_k, out_v)
        order = np.argsort(ids, kind="stable")  # the unique stable answer
        assert np.array_equal(out_k, keys[order])
        if kv:
            assert np.array_equal(out_v, values[order])


class TestBackendEngineParity:
    """Every backend x engine pair returns the emulated bytes exactly."""

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("engine", ["fast", "sharded"])
    @pytest.mark.parametrize("n,m", [
        (0, 8),       # empty input
        (500, 1),     # single bucket
        (17, 64),     # m > n
        (4096, 32),   # bulk path
    ])
    def test_parity_vs_emulate(self, backend, engine, n, m):
        keys = make_keys(n, seed=n + m)
        values = np.arange(n, dtype=np.uint32)
        kwargs = {"backend": backend}
        if engine == "sharded":
            kwargs.update(shards=4, max_workers=2)
        check_engine_parity(keys, RangeBuckets(m), values=values,
                            method="block", engine=engine, **kwargs)

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("method", sorted(STABLE_METHODS))
    def test_parity_every_stable_method(self, backend, method):
        keys = make_keys(3000, seed=5)
        m = 2 if method == "scan_split" else 8
        for engine in ("fast", "sharded"):
            check_engine_parity(keys, RangeBuckets(m), method=method,
                                engine=engine, backend=backend)

    @pytest.mark.parametrize("backend", RUNNABLE)
    def test_parity_fuzz(self, backend):
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(1, 9000))
            m = int(rng.integers(1, 300))
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            values = rng.integers(0, 2**32, n, dtype=np.uint32)
            engine = ("fast", "sharded")[trial % 2]
            kwargs = {}
            if engine == "sharded":
                kwargs["shards"] = int(rng.integers(1, 6))
            check_engine_parity(keys, RangeBuckets(m), values=values,
                                method="block", engine=engine,
                                backend=backend, **kwargs)

    def test_non_stable_methods_reject_non_numpy_backends(self):
        keys = make_keys(256)
        bk = "numba" if HAS_NUMBA else Tagged()
        with pytest.raises(ValueError):
            multisplit(keys, RangeBuckets(8), engine="fast",
                       method="radix_sort", backend=bk)

    def test_emulate_rejects_backend(self):
        with pytest.raises(ValueError, match="result-only"):
            multisplit(make_keys(64), RangeBuckets(4), engine="emulate",
                       backend="numpy")

    def test_result_extra_names_backend(self):
        keys = make_keys(1024)
        for backend in RUNNABLE:
            res = multisplit(keys, RangeBuckets(8), engine="fast",
                             method="block", backend=backend)
            assert res.extra["backend"] == backend


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestNumbaBackend:
    def test_warmup_compiles_and_tracks_time(self):
        bk = get_backend("numba")
        ms = bk.warmup(np.dtype(np.uint32), np.dtype(np.uint32),
                       np.dtype(np.uint8))
        assert ms >= 0.0
        assert bk.compile_ms >= ms
        # second warmup of the same signature is a cache hit
        assert bk.warmup(np.dtype(np.uint32), np.dtype(np.uint32),
                         np.dtype(np.uint8)) == 0.0

    def test_wide_value_dtypes(self):
        keys = make_keys(5000, seed=8)
        values = np.random.default_rng(8).standard_normal(5000)
        check_engine_parity(keys, RangeBuckets(32), values=values,
                            method="block", engine="fast", backend="numba")


class TestObsSeries:
    def test_backend_series_emitted(self):
        from repro.obs import collecting
        keys = make_keys(4096)
        with collecting() as reg:
            multisplit(keys, RangeBuckets(8), engine="fast", method="block",
                       backend="numpy")
            multisplit(keys, RangeBuckets(8), engine="sharded", method="block",
                       backend="numpy", max_workers=2)
        assert reg.value("engine.backend.calls",
                         backend="numpy", engine="fast") == 1
        assert reg.value("engine.backend.calls",
                         backend="numpy", engine="sharded") == 1
        assert reg.value("engine.backend.workers", backend="numpy") == 2

    def test_custom_backend_instance(self):
        # bring-your-own: a trivial subclass that delegates to numpy but
        # proves the instance is used verbatim (no registry lookup)
        keys = make_keys(2048)
        res = multisplit(keys, RangeBuckets(8), engine="fast",
                         method="block", backend=Tagged())
        ref = multisplit(keys, RangeBuckets(8), engine="fast", method="block")
        assert res.extra["backend"] == "tagged"
        assert np.array_equal(res.keys, ref.keys)
