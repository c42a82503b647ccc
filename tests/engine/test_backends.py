"""Kernel backends: resolution, the kernel contract, parity.

The whole backend contract is "different kernels, same bytes": every
backend x engine combination must return the bit-identical
``(keys, values, bucket_starts)`` of the emulated reference. The one
shipped backend is numpy; a caller's :class:`KernelBackend` instance
must be used verbatim by every engine that accepts one.
"""

import numpy as np
import pytest

from repro.engine import STABLE_METHODS, check_engine_parity
from repro.engine.backends import (_LOOP_MIN_RUN, NumpyBackend,
                                   narrow_ids_dtype, resolve_backend)
from repro.multisplit import CustomBuckets, RangeBuckets, multisplit
from tests.shards import fixed_shards

# the backend names resolve_backend accepts
RUNNABLE = ["numpy"]


class Tagged(NumpyBackend):
    """Bring-your-own backend: numpy kernels under another name."""

    name = "tagged"


class Counting(NumpyBackend):
    """Counts kernel calls, to prove an engine ran the instance."""

    def __init__(self):
        self.calls = 0

    def prescan(self, ids, m):
        self.calls += 1
        return super().prescan(ids, m)

    def scatter(self, *args, **kwargs):
        self.calls += 1
        return super().scatter(*args, **kwargs)


def make_keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**32, n, dtype=np.uint32)


class TestResolution:
    def test_none_is_numpy_singleton(self):
        bk = resolve_backend(None)
        assert bk.name == "numpy"
        assert resolve_backend("numpy") is bk  # process-wide singleton

    def test_instance_passthrough(self):
        bk = Tagged()
        assert resolve_backend(bk) is bk

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    @pytest.mark.parametrize("name", ["auto", "NumPy", "", 0])
    def test_only_numpy_names_accepted(self, name):
        with pytest.raises(ValueError, match="'numpy', or a KernelBackend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="unknown backend"):
            multisplit(make_keys(64), RangeBuckets(4), engine="fast",
                       backend=name)

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
        bk = resolve_backend(backend)
        rng = np.random.default_rng(m)
        ids = rng.integers(0, m, 5000).astype(narrow_ids_dtype(m))
        hist = bk.prescan(ids, m)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, np.bincount(ids, minlength=m))
        assert np.array_equal(bk.prescan(np.sort(ids), m), hist)

    # (m, (lo, hi, size) id range and key count of every shard, index
    # of the shard under test, the write it takes): the scatter gathers
    # straight into the output when the shard's bucket runs are
    # adjacent there ("adjacent"); otherwise it copies one slice per
    # bucket while the mean run is at least _LOOP_MIN_RUN keys ("loop")
    # and stores at computed destinations below that ("computed")
    LAYOUTS = {
        "one_shard": (16, [(0, 16, 1500)], 0, "adjacent"),
        "middle_of_three": (16, [(0, 16, 1500)] * 3, 1, "computed"),
        "empty_end_buckets": (16, [(0, 1, 40), (1, 15, 1500), (15, 16, 40)],
                              1, "adjacent"),
        "one_interior_bucket": (16, [(0, 16, 1500), (7, 8, 1500),
                                     (0, 16, 1500)], 1, "loop"),
        # a gap after the first run only; offsets[-1] - offsets[0] < n
        "gap_after_first_bucket": (16, [(0, 16, 1500), (0, 1, 20)], 0,
                                   "computed"),
        "long_runs": (16, [(0, 16, 1500), (2, 6, 4 * _LOOP_MIN_RUN + 900),
                           (0, 16, 1500)], 1, "loop"),
        # four buckets of exactly _LOOP_MIN_RUN keys on average
        "mean_run_at_min": (16, [(0, 16, 1500), (4, 8, 4 * _LOOP_MIN_RUN),
                                 (0, 16, 1500)], 1, "loop"),
        "mean_run_below_min": (16, [(0, 16, 1500),
                                    (4, 8, 4 * _LOOP_MIN_RUN - 1),
                                    (0, 16, 1500)], 1, "computed"),
        # uint16 ids, a couple of keys per nonempty bucket
        "wide_m": (4096, [(0, 4096, 9000), (0, 4096, 9000)], 1, "computed"),
    }

    @pytest.mark.parametrize("backend", RUNNABLE)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("kv", [False, True])
    def test_scatter_is_stable(self, backend, layout, kv):
        from repro.engine import Workspace
        bk = resolve_backend(backend)
        m, shards, p, path = self.LAYOUTS[layout]
        rng = np.random.default_rng(7)
        shard_ids = [rng.integers(lo, hi, size).astype(narrow_ids_dtype(m))
                     for lo, hi, size in shards]
        # Eq. 1: bucket starts plus earlier shards' bucket counts
        hist = np.array([np.bincount(i, minlength=m) for i in shard_ids])
        starts = np.concatenate(([0], np.cumsum(hist.sum(axis=0))[:-1]))
        offsets = starts + hist[:p].sum(axis=0)
        counts = hist[p]
        if layout == "mean_run_at_min":
            assert counts.sum() == _LOOP_MIN_RUN * np.count_nonzero(counts)
        ids = shard_ids[p]
        n = ids.size
        keys = make_keys(n, seed=7)
        values = np.arange(n, dtype=np.uint32) if kv else None
        total = int(hist.sum())
        out_k = np.zeros(total, dtype=keys.dtype)
        out_v = np.zeros(total, dtype=np.uint32) if kv else None
        arena = Workspace()
        bk.scatter(keys, values, ids, counts, offsets, out_k, out_v,
                   arena=arena)
        # which write ran: adjacent runs stage nothing, and only the
        # computed store takes a destination buffer
        slots = {slot for slot, _ in arena._slots}
        assert bool(slots) == (path != "adjacent")
        assert ("shard_dest" in slots) == (path == "computed")
        runs = np.concatenate([np.arange(o, o + c)
                               for o, c in zip(offsets, counts)])
        order = np.argsort(ids, kind="stable")  # the unique stable answer
        assert np.array_equal(out_k[runs], keys[order])
        untouched = np.setdiff1d(np.arange(total), runs)
        assert not out_k[untouched].any()
        if kv:
            assert np.array_equal(out_v[runs], values[order])
            assert not out_v[untouched].any()


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
            kwargs.update(max_workers=2)
        with fixed_shards(4 if engine == "sharded" else None):
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
            shards = None
            if engine == "sharded":
                shards = int(rng.integers(1, 6))
            with fixed_shards(shards):
                check_engine_parity(keys, RangeBuckets(m), values=values,
                                    method="block", engine=engine,
                                    backend=backend)

    def test_non_stable_methods_reject_non_numpy_backends(self):
        keys = make_keys(256)
        bk = Tagged()
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


class TestObsSeries:
    def test_call_record_replaces_backend_series(self):
        # one backend: each engine's own call record says what the
        # engine.backend.* series used to repeat, and the result names
        # the backend
        from repro.obs import collecting
        keys = make_keys(4096)
        with collecting() as reg, fixed_shards(2):
            fast = multisplit(keys, RangeBuckets(8), engine="fast",
                              method="block", backend="numpy")
            sharded = multisplit(keys, RangeBuckets(8), engine="sharded",
                                 method="block", backend="numpy",
                                 max_workers=2)
        assert reg.value("engine.fast.calls", method="block") == 1
        assert reg.value("engine.sharded.calls", method="block") == 1
        assert reg.value("engine.fast.workers", method="block") == 1
        assert reg.value("engine.sharded.workers", method="block") == 2
        assert fast.extra["backend"] == sharded.extra["backend"] == "numpy"
        assert not [name for name in reg.as_flat()
                    if name.startswith("engine.backend.")]

    def test_custom_backend_instance(self):
        # bring-your-own: a trivial subclass that delegates to numpy but
        # proves the instance is used verbatim (no registry lookup)
        keys = make_keys(2048)
        res = multisplit(keys, RangeBuckets(8), engine="fast",
                         method="block", backend=Tagged())
        ref = multisplit(keys, RangeBuckets(8), engine="fast", method="block")
        assert res.extra["backend"] == "tagged"
        assert np.array_equal(res.keys, ref.keys)

    @pytest.mark.parametrize("engine", ["fast", "sharded", "stream"])
    @pytest.mark.parametrize("n,m", [(0, 8), (1, 4000), (700, 1), (5000, 300)])
    def test_instance_kernels_run_on_every_engine(self, engine, n, m):
        # every engine calls the instance's kernels; fast calls prescan
        # and scatter once each over the whole input
        keys = make_keys(n, seed=n + m)
        values = np.arange(n, dtype=np.uint32)
        bk = Counting()
        res = multisplit(keys, RangeBuckets(m), values=values, engine=engine,
                         method="reduced_bit", backend=bk)
        ref = multisplit(keys, RangeBuckets(m), values=values, engine="fast",
                         method="reduced_bit")
        assert res.extra["engine"] == engine
        assert res.extra["backend"] == "numpy"
        assert (bk.calls > 0) == (n > 0)
        if engine == "fast":
            # no kernel on empty input, no scatter when one bucket holds
            # every key
            assert bk.calls == (0 if n == 0 else 1 if m == 1 or n == 1
                                else 2)
        assert np.array_equal(res.keys, ref.keys)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.bucket_starts, ref.bucket_starts)

    def test_fast_instance_sees_whole_array_spec_once(self):
        # a non-elementwise spec is evaluated once over the whole input
        seen = []

        def rank_ids(keys):
            seen.append(keys.size)
            return (np.argsort(np.argsort(keys, kind="stable"), kind="stable")
                    * 4 // max(keys.size, 1))

        keys = make_keys(3000, seed=3)
        spec = CustomBuckets(rank_ids, num_buckets=4)
        res = multisplit(keys, spec, engine="fast", method="block",
                         backend=Counting())
        assert seen == [3000]
        ref = multisplit(keys, spec, engine="fast", method="block")
        assert np.array_equal(res.keys, ref.keys)
