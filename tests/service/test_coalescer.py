"""Coalescer policy: batch keys, size/next-turn triggers, edge cases.

The unit half drives a bare :class:`Coalescer` on an event loop with a
recording dispatch; the integration half covers the edge cases through
a real :class:`ReproService` — empty-key requests, specs that must not
co-batch, a partial window flushed on the next turn, queue-full
rejection, and shutdown drain delivering every accepted response.
"""

import asyncio

import numpy as np
import pytest

from repro.multisplit.bucketing import (CustomBuckets, DeltaBuckets,
                                        IdentityBuckets, RangeBuckets)
from repro.service import (Coalescer, PendingRequest, ReproService,
                           ServiceConfig, ServiceOverloadedError,
                           spec_batch_key)


def make_request(loop, payload=None):
    return PendingRequest(keys=payload, spec=None, values=None,
                          method="auto", future=loop.create_future())


class TestSpecBatchKey:
    def test_library_specs_key_by_parameters(self):
        assert spec_batch_key(RangeBuckets(16)) == spec_batch_key(RangeBuckets(16))
        assert spec_batch_key(IdentityBuckets(8)) == spec_batch_key(IdentityBuckets(8))
        assert spec_batch_key(DeltaBuckets(2.0, 4)) == spec_batch_key(DeltaBuckets(2.0, 4))

    def test_different_parameters_do_not_collide(self):
        assert spec_batch_key(RangeBuckets(16)) != spec_batch_key(RangeBuckets(32))
        assert spec_batch_key(RangeBuckets(16, 0, 100)) != spec_batch_key(RangeBuckets(16))
        assert spec_batch_key(RangeBuckets(16)) != spec_batch_key(IdentityBuckets(16))
        assert spec_batch_key(DeltaBuckets(2.0, 4)) != spec_batch_key(DeltaBuckets(3.0, 4))

    def test_splitter_specs_key_by_value(self):
        from repro.multisplit.bucketing import SplitterBuckets
        sp = np.array([10, 20, 30], dtype=np.uint32)
        # two independently decoded requests with the same splitters
        # must land in the same coalescing window
        assert spec_batch_key(SplitterBuckets(sp)) == \
            spec_batch_key(SplitterBuckets(sp.copy()))
        assert spec_batch_key(SplitterBuckets(sp)) != \
            spec_batch_key(SplitterBuckets(sp.astype(np.uint64)))
        assert spec_batch_key(SplitterBuckets(sp)) != \
            spec_batch_key(SplitterBuckets(sp[:2]))

    def test_custom_specs_key_by_identity(self):
        a = CustomBuckets(lambda k: k % 4, 4)
        b = CustomBuckets(lambda k: k % 4, 4)
        assert spec_batch_key(a) == spec_batch_key(a)
        assert spec_batch_key(a) != spec_batch_key(b)


class TestCoalescerUnit:
    def run_loop(self, coro):
        return asyncio.run(coro)

    def test_size_trigger_flushes_exactly_at_max_batch(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=3,
                           dispatch=lambda k, items: batches.append(items))
            reqs = [make_request(loop, i) for i in range(3)]
            co.add(("k",), reqs[0])
            co.add(("k",), reqs[1])
            assert batches == [] and co.pending == 2
            co.add(("k",), reqs[2])
            assert len(batches) == 1 and batches[0] == reqs
            assert co.pending == 0
        self.run_loop(scenario())

    def test_next_turn_flushes_partial_window(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=100,
                           dispatch=lambda k, items: batches.append(items))
            co.add(("k",), make_request(loop))
            co.add(("k",), make_request(loop))
            assert batches == []
            await asyncio.sleep(0)               # the loop's next turn
            assert [len(b) for b in batches] == [2]
            co.add(("k",), make_request(loop))   # after that turn: new window
            assert co.pending == 1
            await asyncio.sleep(0)
            assert [len(b) for b in batches] == [2, 1]
        self.run_loop(scenario())

    def test_zero_window_dispatches_each_request_alone(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=1,
                           dispatch=lambda k, items: batches.append(items))
            for i in range(4):
                co.add(("k",), make_request(loop, i))
            assert [len(b) for b in batches] == [1, 1, 1, 1]
        self.run_loop(scenario())

    def test_distinct_keys_use_distinct_windows(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=2,
                           dispatch=lambda k, items: batches.append((k, items)))
            co.add(("a",), make_request(loop))
            co.add(("b",), make_request(loop))
            assert batches == [] and co.pending == 2
            co.add(("a",), make_request(loop))
            assert len(batches) == 1 and batches[0][0] == ("a",)
            assert co.pending == 1
        self.run_loop(scenario())

    def test_stale_next_turn_flush_does_not_double_flush(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=2,
                           dispatch=lambda k, items: batches.append(items))
            co.add(("k",), make_request(loop))
            co.add(("k",), make_request(loop))   # size flush; its turn is stale
            co.add(("k",), make_request(loop))   # new window, same key
            await asyncio.sleep(0)               # old + new flushes both run
            assert [len(b) for b in batches] == [2, 1]
        self.run_loop(scenario())

    def test_flush_all_and_cancel_all(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []
            co = Coalescer(loop, max_batch=100,
                           dispatch=lambda k, items: batches.append(items))
            co.add(("a",), make_request(loop))
            co.add(("b",), make_request(loop))
            co.flush_all()
            assert len(batches) == 2 and co.pending == 0
            co.add(("c",), make_request(loop))
            abandoned = co.cancel_all()
            assert len(abandoned) == 1 and co.pending == 0
            assert len(batches) == 2  # cancel never dispatches
        self.run_loop(scenario())

    def test_max_batch_below_one_rejected(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            with pytest.raises(ValueError, match="max_batch"):
                Coalescer(loop, max_batch=0,
                          dispatch=lambda k, items: None)
        self.run_loop(scenario())


class TestServiceCoalescingEdges:
    """Coalescing edge cases through a real service."""

    def test_empty_key_requests_coalesce_and_resolve(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=4, workers=1)
            async with ReproService(cfg) as svc:
                empty = np.empty(0, np.uint32)
                keys = np.arange(64, dtype=np.uint32)
                res = await asyncio.gather(
                    svc.multisplit(empty, RangeBuckets(8)),
                    svc.multisplit(keys, RangeBuckets(8)),
                    svc.multisplit(empty, RangeBuckets(8)),
                    svc.multisplit(empty, RangeBuckets(8)))
                assert res[0].keys.size == 0
                assert res[0].bucket_starts.tolist() == [0] * 9
                assert res[1].keys.size == 64
                return svc.metrics.value("service.batches", 0)
        assert asyncio.run(scenario()) == 1  # all four co-batched

    def test_mixed_specs_do_not_co_batch(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=64, workers=1)
            async with ReproService(cfg) as svc:
                keys = np.arange(256, dtype=np.uint32)
                await asyncio.gather(
                    svc.multisplit(keys, RangeBuckets(8)),
                    svc.multisplit(keys, RangeBuckets(16)),
                    svc.multisplit(keys, RangeBuckets(8)),
                    svc.multisplit(keys, RangeBuckets(16)))
                return svc.metrics.value("service.batches", 0)
        # two spec keys -> exactly two dispatched batches
        assert asyncio.run(scenario()) == 2

    def test_next_turn_dispatches_partial_batch(self):
        async def scenario():
            # window far below max_batch occupancy: only the next-turn
            # flush can dispatch it
            cfg = ServiceConfig(max_batch=1000, workers=1)
            async with ReproService(cfg) as svc:
                keys = np.arange(128, dtype=np.uint32)
                res = await asyncio.gather(
                    svc.multisplit(keys, RangeBuckets(4)),
                    svc.multisplit(keys, RangeBuckets(4)))
                assert all(r.keys.size == 128 for r in res)
                assert svc.metrics.value("service.batches", 0) == 1
                assert svc.metrics.value("service.coalesced_requests", 0) == 2
        asyncio.run(scenario())

    def test_queue_full_rejects_with_retry_after(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=1000, max_queue=2,
                                retry_after_ms=17.0, workers=1)
            svc = ReproService(cfg)
            await svc.start()
            try:
                keys = np.arange(32, dtype=np.uint32)
                t1 = asyncio.ensure_future(svc.multisplit(keys, RangeBuckets(4)))
                t2 = asyncio.ensure_future(svc.multisplit(keys, RangeBuckets(4)))
                await asyncio.sleep(0)  # both admitted into the open window
                assert svc.pending == 2
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    await svc.multisplit(keys, RangeBuckets(4))
                assert exc_info.value.retry_after_ms == 17.0
                assert exc_info.value.code == 429
                rejected = svc.metrics.value(
                    "service.rejected", 0, route="multisplit", reason="overload")
                assert rejected == 1
                # the two accepted requests still complete on drain
                await svc.close(drain=True)
                r1, r2 = await t1, await t2
                assert r1.keys.size == 32 and r2.keys.size == 32
            finally:
                await svc.close()
        asyncio.run(scenario())

    def test_shutdown_drain_delivers_all_accepted_responses(self):
        async def scenario():
            # requests still in an open window when close() runs (before
            # the loop's next turn): close(drain=True) must flush and
            # answer them all
            cfg = ServiceConfig(max_batch=1000, workers=1)
            svc = ReproService(cfg)
            await svc.start()
            keys = [np.arange(64 + i, dtype=np.uint32) for i in range(5)]
            tasks = [asyncio.ensure_future(svc.multisplit(k, RangeBuckets(4)))
                     for k in keys]
            await asyncio.sleep(0)
            assert svc.pending == 5
            await svc.close(drain=True)
            results = await asyncio.gather(*tasks)
            for k, r in zip(keys, results):
                assert r.keys.size == k.size
                assert int(r.bucket_starts[-1]) == k.size
        asyncio.run(scenario())

    def test_shutdown_without_drain_fails_windowed_requests(self):
        async def scenario():
            cfg = ServiceConfig(max_batch=1000, workers=1)
            svc = ReproService(cfg)
            await svc.start()
            keys = np.arange(32, dtype=np.uint32)
            task = asyncio.ensure_future(svc.multisplit(keys, RangeBuckets(4)))
            await asyncio.sleep(0)
            await svc.close(drain=False)
            from repro.service import ServiceClosedError
            with pytest.raises(ServiceClosedError):
                await task
        asyncio.run(scenario())
