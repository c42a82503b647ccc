"""Batched dispatch: ordering, shared/per-item specs, engines, fan-out."""

import importlib
import os

import numpy as np
import pytest

from repro.engine import Workspace, coalesced_multisplit_batch
from repro.multisplit import (
    BucketSpec,
    CustomBuckets,
    DeltaBuckets,
    IdentityBuckets,
    RangeBuckets,
    SplitterBuckets,
    multisplit,
    multisplit_batch,
)


def make_batch(count, seed=0, lo=100, hi=3000):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(lo, hi, count)
    return [rng.integers(0, 2**32, int(s), dtype=np.uint32) for s in sizes]


class TestBatch:
    def test_results_match_single_calls_in_order(self):
        batch = make_batch(6)
        spec = RangeBuckets(8)
        results = multisplit_batch(batch, spec, method="warp")
        assert len(results) == 6
        for keys, res in zip(batch, results):
            single = multisplit(keys, spec, method="warp", engine="fast")
            assert np.array_equal(res.keys, single.keys)
            assert np.array_equal(res.bucket_starts, single.bucket_starts)
            assert res.timeline is None

    def test_per_item_specs_and_values(self):
        batch = make_batch(3, seed=1)
        specs = [RangeBuckets(2), RangeBuckets(8), DeltaBuckets(1e7, 16)]
        values = [np.arange(k.size, dtype=np.uint32) for k in batch]
        results = multisplit_batch(batch, specs, values_batch=values)
        for keys, vals, spec, res in zip(batch, values, specs, results):
            assert res.num_buckets == spec.num_buckets
            single = multisplit(keys, spec, values=vals, engine="fast")
            assert np.array_equal(res.keys, single.keys)
            assert np.array_equal(res.values, single.values)

    def test_threaded_fanout_matches_sequential(self):
        # large enough to cross the parallel thresholds
        batch = make_batch(8, seed=2, lo=40_000, hi=70_000)
        spec = RangeBuckets(16)
        seq = multisplit_batch(batch, spec, max_workers=1)
        par = multisplit_batch(batch, spec, max_workers=4)
        for a, b in zip(seq, par):
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.bucket_starts, b.bucket_starts)

    @pytest.mark.parametrize("affinity", [{0}, {0, 1}])
    def test_default_pool_follows_cpu_affinity(self, monkeypatch, affinity):
        """The default pool width is the usable-core count, not
        Python's ``cpu_count() + 4``: one allowed core runs the batch
        on the calling thread."""
        batch_mod = importlib.import_module("repro.engine.batch")
        started = []

        class Pool(batch_mod.ThreadPoolExecutor):
            def __exit__(self, *exc):
                started.append(len(self._threads))
                return super().__exit__(*exc)

        monkeypatch.setattr(batch_mod, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        batch = make_batch(8, seed=2, lo=40_000, hi=70_000)
        assert sum(k.size for k in batch) >= 1 << 18
        results = multisplit_batch(batch, RangeBuckets(16))
        assert sum(started) <= len(affinity)
        seq = multisplit_batch(batch, RangeBuckets(16), max_workers=1)
        for a, b in zip(seq, results):
            assert np.array_equal(a.keys, b.keys)

    def test_emulate_engine_returns_timelines(self):
        batch = make_batch(3, seed=3, lo=100, hi=400)
        results = multisplit_batch(batch, RangeBuckets(4), engine="emulate",
                                   method="warp")
        for res in results:
            assert res.timeline is not None and res.simulated_ms > 0

    def test_rejects_output_pooling_workspace(self):
        batch = make_batch(2, seed=4)
        with pytest.raises(ValueError, match="reuse_outputs"):
            multisplit_batch(batch, RangeBuckets(4), workspace=Workspace())

    def test_scratch_workspace_accepted(self):
        batch = make_batch(3, seed=5)
        ws = Workspace(reuse_outputs=False)
        results = multisplit_batch(batch, RangeBuckets(4), workspace=ws)
        # every result owns distinct storage despite the shared arena
        bases = {id(r.keys.base) if r.keys.base is not None else id(r.keys)
                 for r in results}
        assert len(bases) == len(results)

    def test_parallel_path_uses_caller_workspace(self):
        # the caller's arena must seed one pool thread instead of being
        # silently dropped on the threaded fan-out path
        batch = make_batch(8, seed=7, lo=40_000, hi=70_000)
        ws = Workspace(reuse_outputs=False)
        before = ws.hits + ws.misses
        results = multisplit_batch(batch, RangeBuckets(16), workspace=ws,
                                   max_workers=2)
        assert ws.hits + ws.misses > before, "caller workspace never used"
        seq = multisplit_batch(batch, RangeBuckets(16), max_workers=1)
        for a, b in zip(seq, results):
            assert np.array_equal(a.keys, b.keys)

    def test_mismatched_lengths_rejected(self):
        batch = make_batch(3, seed=6)
        with pytest.raises(ValueError):
            multisplit_batch(batch, [RangeBuckets(4)] * 2)
        with pytest.raises(ValueError):
            multisplit_batch(batch, RangeBuckets(4),
                             values_batch=[None] * 2)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            multisplit_batch(make_batch(1), RangeBuckets(4), engine="warp9000")

    def test_empty_batch_and_empty_items(self):
        assert multisplit_batch([], RangeBuckets(4)) == []
        res = multisplit_batch([np.zeros(0, dtype=np.uint32)], RangeBuckets(4))
        assert res[0].keys.size == 0
        assert np.array_equal(res[0].bucket_starts, np.zeros(5, dtype=np.int64))


def _rank_buckets(m):
    """Non-elementwise: a key's bucket is its rank within the array, so
    evaluating a concatenation would give different ids."""
    def fn(keys):
        ranks = np.argsort(np.argsort(keys, kind="stable"), kind="stable")
        return ranks * m // max(keys.size, 1)
    return CustomBuckets(fn, m)


# spec kind -> (factory(rng) building one spec, key bound the spec takes)
SHARED_SPEC_CASES = {
    "range": (lambda rng: RangeBuckets(int(rng.integers(1, 300))), 2**32),
    "identity": (lambda rng: IdentityBuckets(64), 64),
    "delta": (lambda rng: DeltaBuckets(float(rng.uniform(1e6, 1e8)), 32),
              2**32),
    "splitter": (lambda rng: BucketSpec.from_sample(
        rng.integers(0, 2**32, 4096, dtype=np.uint32),
        int(rng.integers(2, 40))), 2**32),
    "custom-elementwise": (lambda rng: CustomBuckets(
        lambda k: np.asarray(k) % 7, 7, elementwise=True), 2**32),
    "custom-rank": (lambda rng: _rank_buckets(int(rng.integers(2, 20))),
                    2**32),
}


class TestCoalescedSharedSpec:
    @pytest.mark.parametrize("kind", sorted(SHARED_SPEC_CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_spec_matches_per_item_specs(self, kind, seed):
        """One shared spec object (one evaluation over the concatenated
        window when elementwise) and one equal spec per item (one
        evaluation per item) give bit-identical results."""
        rng = np.random.default_rng(seed)
        factory, bound = SHARED_SPEC_CASES[kind]
        count = 1 if seed == 0 else int(rng.integers(2, 8))
        sizes = rng.integers(0, 700, count)
        sizes[rng.random(count) < 0.3] = 0  # empty items
        keys = [rng.integers(0, bound, int(n), dtype=np.uint32) for n in sizes]
        values = [np.arange(k.size, dtype=np.uint32)
                  if rng.random() < 0.5 else None for k in keys]
        shared = factory(np.random.default_rng(seed + 100))
        per_item = [factory(np.random.default_rng(seed + 100))
                    for _ in range(count)]
        ws = Workspace(reuse_outputs=False) if seed % 2 else None
        got = coalesced_multisplit_batch(keys, shared, values_batch=values,
                                         workspace=ws)
        want = coalesced_multisplit_batch(keys, per_item, values_batch=values)
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            assert g.keys.dtype == w.keys.dtype
            assert np.array_equal(g.keys, w.keys)
            assert np.array_equal(g.bucket_starts, w.bucket_starts)
            assert g.method == w.method and g.num_buckets == w.num_buckets
            if w.values is None:
                assert g.values is None
            else:
                assert np.array_equal(g.values, w.values)
        # and each item is its own stable multisplit
        for k, v, g in zip(keys, values, got):
            ref = multisplit(k, shared, values=v, engine="fast")
            assert np.array_equal(g.keys, ref.keys)
            assert np.array_equal(g.bucket_starts, ref.bucket_starts)
