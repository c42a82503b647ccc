"""semisort: the grouping contract, strategy routing, and knobs.

A semisort promises less than a sort — only that equal keys are
contiguous — so the tests check exactly that contract and nothing
stronger: each distinct key occupies one contiguous run, the key/value
multiset is preserved, ties within a group keep input order, and the
result is deterministic. Strategy routing (tiny/uniform/heavy) is
asserted separately because each path has its own machinery.
"""

import numpy as np
import pytest

from repro.engine import Workspace
from repro.engine.backends import available_backends
from repro.obs import collecting
from repro.sort import semisort, SemisortResult, SEMISORT_TINY_N


def assert_grouped(res: SemisortResult, keys_in, values_in=None):
    """The full semisort contract against the original input."""
    g = res.keys
    n = g.shape[0]
    assert n == keys_in.shape[0]
    # multiset preserved
    assert np.array_equal(np.sort(g, kind="stable"),
                          np.sort(keys_in, kind="stable"))
    # group_starts are the change boundaries, and no key repeats across
    # groups (each distinct key is exactly one contiguous run)
    starts = res.group_starts
    if n:
        assert starts[0] == 0
    firsts = []
    for sl in res.group_slices():
        run = g[sl]
        assert run.size > 0
        assert (run == run[0]).all()
        firsts.append(run[0])
    assert len(firsts) == np.unique(keys_in).size
    if values_in is not None:
        # values rode the same permutation
        assert np.array_equal(keys_in[res.values], g)
        # ties keep input order within each group
        for sl in res.group_slices():
            v = res.values[sl].astype(np.int64)
            assert (np.diff(v) > 0).all()


def hot_and_tail(n, seed, dtype=np.uint64):
    rng = np.random.default_rng(seed)
    hot = rng.choice(np.array([3, 99, 2**40], dtype=dtype), int(n * 0.8))
    tail = rng.integers(0, 2**50, n - hot.size, dtype=dtype)
    keys = np.concatenate([hot, tail])
    rng.shuffle(keys)
    return keys


class TestStrategies:
    def test_tiny(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 40, SEMISORT_TINY_N, dtype=np.int32)
        values = np.arange(keys.size, dtype=np.uint32)
        res = semisort(keys, values)
        assert res.strategy == "tiny"
        assert_grouped(res, keys, values)

    def test_uniform(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-(2**60), 2**60, 60_000, dtype=np.int64)
        values = np.arange(keys.size, dtype=np.uint32)
        res = semisort(keys, values)
        assert res.strategy == "uniform"
        assert "collisions" in res.extra
        assert_grouped(res, keys, values)

    def test_heavy(self):
        keys = hot_and_tail(60_000, seed=2)
        values = np.arange(keys.size, dtype=np.uint32)
        res = semisort(keys, values)
        assert res.strategy == "heavy"
        assert res.extra["heavies"] >= 1
        assert_grouped(res, keys, values)

    def test_heavy_all_duplicates(self):
        # degenerate: every key is heavy, the light remainder is empty
        rng = np.random.default_rng(3)
        keys = rng.choice(np.array([5, 6], dtype=np.uint32), 20_000)
        res = semisort(keys)
        assert res.strategy == "heavy"
        assert res.extra["heavy_keys"] == keys.size
        assert_grouped(res, keys)

    def test_hash_collisions_are_repaired(self):
        # n just above tiny with a wide key range forces a small hash
        # space (hash_bits ~ 13) and therefore real collisions
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2**63, SEMISORT_TINY_N + 1000, dtype=np.uint64)
        res = semisort(keys)
        assert res.strategy == "uniform"
        assert_grouped(res, keys)


class TestByAndValues:
    def test_by_groups_arbitrary_records(self):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 500, 30_000, dtype=np.int32)
        records = rng.random(30_000)  # float payload, not sortable keys
        res = semisort(records, by=ids)
        # reconstruct the permutation from unique float payloads
        assert np.array_equal(np.sort(res.keys), np.sort(records))
        perm = np.argsort(records, kind="stable")[
            np.argsort(np.argsort(res.keys, kind="stable"), kind="stable")]
        assert np.array_equal(records[perm], res.keys)
        assert np.array_equal(np.sort(ids[perm]), np.sort(ids))
        # grouping holds on the ids seen through the permutation
        gids = ids[perm]
        boundaries = np.flatnonzero(np.r_[True, gids[1:] != gids[:-1]])
        assert np.array_equal(boundaries, res.group_starts)
        assert len(set(gids[res.group_starts])) == res.num_groups

    def test_values_track_keys(self):
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 300, 40_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        res = semisort(keys, values)
        assert_grouped(res, keys, values)


class TestDeterminismAndEngines:
    def test_deterministic(self):
        keys = hot_and_tail(50_000, seed=7)
        a, b = semisort(keys), semisort(keys)
        assert a.strategy == b.strategy
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.group_starts, b.group_starts)

    @pytest.mark.parametrize("engine", ["fast", "sharded", "auto"])
    def test_engines_satisfy_contract(self, engine):
        keys = hot_and_tail(40_000, seed=8)
        values = np.arange(keys.size, dtype=np.uint32)
        kw = {} if engine == "fast" else {"max_workers": 2}
        res = semisort(keys, values, engine=engine, **kw)
        assert_grouped(res, keys, values)

    @pytest.mark.skipif(not available_backends().get("numba"),
                        reason="numba not installed")
    def test_numba_backend(self):
        keys = hot_and_tail(40_000, seed=10)
        res = semisort(keys, engine="fast", backend="numba")
        assert_grouped(res, keys)

    def test_workspace_reuse(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**32, 30_000, dtype=np.uint32)
        ws = Workspace()
        a = semisort(keys, workspace=ws)
        warm_nbytes = ws.nbytes
        b = semisort(keys, workspace=ws)
        assert ws.nbytes == warm_nbytes  # steady state: no fresh allocation
        assert np.array_equal(np.array(a.keys), b.keys)


class TestEdgesAndErrors:
    def test_empty(self):
        res = semisort(np.empty(0, dtype=np.uint32),
                       np.empty(0, dtype=np.uint32))
        assert res.num_groups == 0
        assert res.keys.size == 0 and res.values.size == 0

    def test_single_group(self):
        keys = np.full(10_000, 9, dtype=np.uint32)
        res = semisort(keys)
        assert res.num_groups == 1
        assert list(res.group_slices()) == [slice(0, 10_000)]

    def test_rejects_float_keys_without_by(self):
        with pytest.raises(TypeError, match="integer"):
            semisort(np.random.default_rng(0).random(10))

    def test_rejects_shape_mismatches(self):
        k = np.zeros(4, dtype=np.uint32)
        with pytest.raises(ValueError, match="values shape"):
            semisort(k, np.zeros(5, dtype=np.uint32))
        with pytest.raises(ValueError, match="by shape"):
            semisort(k, by=np.zeros(5, dtype=np.uint32))

    def test_rejects_bad_engine_even_when_tiny(self):
        k = np.zeros(64, dtype=np.uint32)
        with pytest.raises(ValueError, match="engine"):
            semisort(k, engine="emulate")
        with pytest.raises(ValueError, match="sharded"):
            semisort(k, engine="fast", max_workers=2)


class TestObservability:
    def test_series(self):
        keys = hot_and_tail(40_000, seed=12)
        with collecting() as reg:
            res = semisort(keys)
        assert res.strategy == "heavy"
        assert reg.value("sort.fast.calls", kind="semisort",
                         strategy="heavy") == 1
        assert reg.value("sort.fast.keys", kind="semisort") == keys.size
        assert reg.timer("sort.fast.run_ms", kind="semisort",
                         kv=False).count == 1
        assert reg.timer("sort.fast.stage_ms", kind="semisort",
                         stage="heavy_split").count == 1
