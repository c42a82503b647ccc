"""ReproService: route parity, admission control, metrics, lifecycle."""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.engine import DEFAULT_SHARD_KEYS
from repro.multisplit import (CustomBuckets, IdentityBuckets, RangeBuckets,
                              SplitterBuckets, multisplit, reference_multisplit)
from repro.obs import MetricsRegistry, get_registry
from repro.service import (BadRequestError, ReproService, RequestTimeoutError,
                           ServiceClosedError, ServiceConfig)


def keys_of(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, n, dtype=np.uint32)


class TestMultisplitRoute:
    def test_hostile_spec_rejected_before_coalescing(self):
        """A spec that would emit out-of-range ids must 400 up front,
        never reach a shared batch window."""

        class Hostile(CustomBuckets):
            def __init__(self):
                super().__init__(lambda k: np.asarray(k) % 4, 4,
                                 elementwise=True)

            def ids(self, keys):  # bypass CustomBuckets' own guard
                return np.full(np.asarray(keys).size, 9, dtype=np.uint32)

        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                with pytest.raises(BadRequestError, match="validation"):
                    await svc.multisplit(keys_of(64), Hostile())
                # mismatched num_buckets is a 400 too, not a crash
                with pytest.raises(BadRequestError, match="num_buckets"):
                    await svc.multisplit(keys_of(64), RangeBuckets(8), 16)
        asyncio.run(scenario())

    def test_splitter_spec_requests_coalesce_and_match(self):
        spec = SplitterBuckets(
            np.array([1 << 28, 1 << 30, 1 << 31], dtype=np.uint32))

        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                batch = [keys_of(200 + i, seed=i) for i in range(4)]
                return await asyncio.gather(
                    *[svc.multisplit(k, spec) for k in batch]), batch
        results, batch = asyncio.run(scenario())
        for k, res in zip(batch, results):
            ref = multisplit(k, spec, engine="fast")
            assert np.array_equal(res.keys, ref.keys)
            assert np.array_equal(np.asarray(res.bucket_starts),
                                  np.asarray(ref.bucket_starts))

    def test_coalesced_responses_match_direct_calls(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=8, workers=1)
            async with ReproService(cfg) as svc:
                batch = [keys_of(300 + i, seed=i) for i in range(8)]
                return await asyncio.gather(
                    *[svc.multisplit(k, RangeBuckets(16)) for k in batch]), batch
        results, batch = asyncio.run(scenario())
        for k, res in zip(batch, results):
            ref = multisplit(k, RangeBuckets(16), engine="fast")
            assert np.array_equal(res.keys, ref.keys)
            assert np.array_equal(res.bucket_starts, ref.bucket_starts)
            assert res.stable

    def test_key_value_requests_permute_values_identically(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                ks = [keys_of(256, seed=i) for i in range(4)]
                vs = [np.arange(256, dtype=np.uint32) for _ in range(4)]
                res = await asyncio.gather(
                    *[svc.multisplit(k, RangeBuckets(8), values=v)
                      for k, v in zip(ks, vs)])
                return ks, vs, res
        ks, vs, res = asyncio.run(scenario())
        for k, v, r in zip(ks, vs, res):
            ref = multisplit(k, RangeBuckets(8), values=v, engine="fast")
            assert np.array_equal(r.keys, ref.keys)
            assert np.array_equal(r.values, ref.values)

    def test_mixed_value_and_key_only_requests_co_batch(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=2, workers=1)
            async with ReproService(cfg) as svc:
                k1, k2 = keys_of(200, 1), keys_of(200, 2)
                v1 = np.arange(200, dtype=np.uint64)
                r1, r2 = await asyncio.gather(
                    svc.multisplit(k1, RangeBuckets(8), values=v1),
                    svc.multisplit(k2, RangeBuckets(8)))
                assert svc.metrics.value("service.batches", 0) == 1
                return (k1, v1, r1), (k2, r2)
        (k1, v1, r1), (k2, r2) = asyncio.run(scenario())
        ref1 = multisplit(k1, RangeBuckets(8), values=v1, engine="fast")
        assert np.array_equal(r1.values, ref1.values)
        assert r2.values is None

    def test_fused_dispatch_used_for_co_batched_windows(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                batch = [keys_of(128, seed=i) for i in range(4)]
                res = await asyncio.gather(
                    *[svc.multisplit(k, RangeBuckets(8)) for k in batch])
                fused = svc.metrics.value("service.fused_batches", 0)
                return res, fused
        res, fused = asyncio.run(scenario())
        assert fused == 1
        assert all(r.extra.get("coalesced") == 4 for r in res)

    @pytest.mark.parametrize("make_spec", [
        lambda: RangeBuckets(8),
        lambda: SplitterBuckets(np.array([1 << 29, 1 << 31], dtype=np.uint32)),
    ], ids=["range", "splitter"])
    def test_window_evaluates_its_spec_once(self, make_spec):
        """A window of k requests, each with its own equal spec object,
        evaluates one spec once over all k requests' keys."""
        calls = []

        def counted(spec):
            for name in ("ids", "eval_into"):
                orig = getattr(spec, name)

                def wrapper(keys, *args, _orig=orig, _name=name, **kwargs):
                    calls.append((_name, np.size(keys)))
                    return _orig(keys, *args, **kwargs)
                setattr(spec, name, wrapper)
            return spec

        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                batch = [keys_of(100 + i, seed=i) for i in range(4)]
                res = await asyncio.gather(
                    *[svc.multisplit(k, counted(make_spec())) for k in batch])
                return batch, res
        batch, res = asyncio.run(scenario())
        assert calls == [("eval_into", sum(k.size for k in batch))]
        for k, r in zip(batch, res):
            assert r.extra["coalesced"] == 4
            assert np.array_equal(
                r.keys, multisplit(k, make_spec(), engine="fast").keys)

    def test_poison_request_fails_alone(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=2, workers=1)
            async with ReproService(cfg) as svc:
                good = keys_of(100)
                # key 2**33 overflows the uint32 spec range after the
                # int64 coercion -> per-item ValueError inside the batch
                bad = np.array([1, 2**33], dtype=np.uint64)
                ok, err = await asyncio.gather(
                    svc.multisplit(good, RangeBuckets(8)),
                    svc.multisplit(bad, RangeBuckets(8)),
                    return_exceptions=True)
                return ok, err
        ok, err = asyncio.run(scenario())
        assert not isinstance(ok, Exception) and ok.keys.size == 100
        assert isinstance(err, Exception)

    @pytest.mark.parametrize(
        "spec,dtype,hi,poison",
        [(RangeBuckets(8, 0, 1000), np.uint32, 1000, 5000),
         (IdentityBuckets(16), np.int32, 16, -1)],
        ids=["range", "identity"])
    def test_poisoned_item_in_shared_window_fails_alone(self, spec, dtype,
                                                        hi, poison):
        """A built-in spec's own domain error inside a coalesced window:
        the batched dispatch fails, and the per-item replay answers every
        other request bit-exactly and fails only the poisoned one."""
        rng = np.random.default_rng(5)
        batch = [rng.integers(0, hi, 100 + i, dtype=dtype) for i in range(4)]
        batch[2][17] = poison
        values = [np.arange(k.size, dtype=np.uint32) for k in batch]

        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                res = await asyncio.gather(
                    *[svc.multisplit(k, spec, values=v)
                      for k, v in zip(batch, values)],
                    return_exceptions=True)
                return res, (svc.metrics.value("service.batches", 0),
                             svc.metrics.value("service.batch_fallbacks", 0))
        res, (batches, fallbacks) = asyncio.run(scenario())
        assert isinstance(res[2], BadRequestError)
        assert "outside bucket domain" in str(res[2])
        for i in (0, 1, 3):
            ref_keys, ref_values, ref_starts = reference_multisplit(
                batch[i], spec, values[i])
            assert np.array_equal(res[i].keys, ref_keys)
            assert np.array_equal(res[i].values, ref_values)
            assert np.array_equal(res[i].bucket_starts, ref_starts)
        assert (batches, fallbacks) == (1, 1)

    def test_bad_spec_rejected_before_admission(self):
        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                with pytest.raises(Exception):
                    await svc.multisplit(keys_of(10), RangeBuckets(8),
                                         values=np.arange(3, dtype=np.uint32))
        asyncio.run(scenario())


class TestSortAndSsspRoutes:
    def test_sort_matches_stable_numpy_sort(self):
        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                k = keys_of(4096, seed=3)
                v = np.arange(4096, dtype=np.uint32)
                sk, sv = await svc.sort(k, v)
                return k, v, sk, sv
        k, v, sk, sv = asyncio.run(scenario())
        order = np.argsort(k, kind="stable")
        assert np.array_equal(sk, k[order])
        assert np.array_equal(sv, v[order])

    def test_sssp_delta_stepping_matches_dijkstra(self):
        from repro.sssp import dijkstra
        from repro.sssp.graph import Graph

        rng = np.random.default_rng(5)
        n, e = 64, 256
        src = rng.integers(0, n, e)
        dst = rng.integers(0, n, e)
        w = rng.uniform(0.1, 4.0, e)
        graph = Graph.from_edges(n, src, dst, w)

        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                return await svc.sssp(graph, 0)
        dist, stats = asyncio.run(scenario())
        assert stats["algorithm"] == "delta_stepping"
        assert np.allclose(dist, dijkstra(graph, 0), equal_nan=True)

    def test_sssp_unknown_algorithm_is_client_error(self):
        from repro.service import BadRequestError
        from repro.sssp.graph import Graph

        graph = Graph.from_edges(2, [0], [1], [1.0])

        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                with pytest.raises(BadRequestError):
                    await svc.sssp(graph, 0, algorithm="bogus")
        asyncio.run(scenario())


class TestAdmissionAndLifecycle:
    @pytest.mark.timing
    def test_request_timeout_fires_on_the_executor(self):
        # a window lives for one loop turn, so the request is held in
        # its kernel instead: more than DEFAULT_SHARD_KEYS keys run on
        # the executor, where the spec sleeps past the deadline (only on
        # the full input, not on validate_spec's 4096-key probe)
        def slow_mod4(k):
            if k.size > 4096:
                time.sleep(0.5)
            return k % 4

        async def scenario():
            cfg = ServiceConfig(request_timeout_ms=30.0, workers=1)
            async with ReproService(cfg) as svc:
                with pytest.raises(RequestTimeoutError):
                    await svc.multisplit(keys_of(DEFAULT_SHARD_KEYS + 1),
                                         CustomBuckets(slow_mod4, 4))
                assert svc.metrics.value(
                    "service.timeouts", 0, route="multisplit") == 1
                assert svc.pending == 0
        asyncio.run(scenario())

    def test_unstarted_and_closed_service_reject(self):
        async def scenario():
            svc = ReproService(ServiceConfig(workers=1))
            with pytest.raises(ServiceClosedError):
                await svc.multisplit(keys_of(8), RangeBuckets(4))
            await svc.start()
            await svc.close()
            with pytest.raises(ServiceClosedError):
                await svc.multisplit(keys_of(8), RangeBuckets(4))
        asyncio.run(scenario())

    def test_metrics_snapshot_exposes_histograms_and_state(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                await asyncio.gather(
                    *[svc.multisplit(keys_of(64, i), RangeBuckets(4))
                      for i in range(4)])
                return svc.metrics_snapshot()
        snap = asyncio.run(scenario())
        assert snap["service"]["accepting"] is True
        assert snap["service"]["max_batch"] == 4
        by_name = {}
        for rec in snap["series"]:
            label = tuple(sorted(rec.get("labels", {}).items()))
            by_name[(rec["name"], label)] = rec
        hist = by_name[("service.latency_ms", (("route", "multisplit"),))]
        assert hist["count"] == 4
        for q in ("p50_ms", "p90_ms", "p99_ms"):
            assert q in hist and hist[q] >= 0.0
        assert by_name[("service.batches", ())]["value"] == 1

    def test_engine_registry_installed_and_restored(self):
        async def scenario():
            before = get_registry()
            svc = ReproService(ServiceConfig(workers=1))
            await svc.start()
            installed = get_registry()
            await svc.close()
            after = get_registry()
            return before, installed, svc.metrics, after
        before, installed, own, after = asyncio.run(scenario())
        assert not before.enabled         # baseline: metrics off
        assert installed is own           # service routed engine.* to itself
        assert not after.enabled          # restored on close

    def test_explicit_registry_is_respected(self):
        async def scenario():
            reg = MetricsRegistry()
            cfg = ServiceConfig(workers=1, collect_engine_metrics=False)
            async with ReproService(cfg, metrics=reg) as svc:
                await svc.multisplit(keys_of(16), RangeBuckets(4))
                assert svc.metrics is reg
                assert reg.value("service.requests", 0, route="multisplit") == 1
                assert not get_registry().enabled
        asyncio.run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            async with ReproService(ServiceConfig(workers=1)) as svc:
                with pytest.raises(RuntimeError):
                    await svc.start()
        asyncio.run(scenario())

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        from repro.service.service import _default_workers
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(5)), raising=False)
        assert _default_workers() == 5
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        assert _default_workers() == 8
