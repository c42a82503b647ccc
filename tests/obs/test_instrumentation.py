"""End-to-end instrumentation: running workloads fills the registry.

Each test wraps a real code path (fast engine, emulator, workspace,
batch dispatch) in ``collecting()`` and asserts the expected series —
and that the registry cross-checks against the accounting the code
already keeps (timeline counters, workspace hit/miss totals).
"""

import numpy as np
import pytest

from repro.engine import Workspace
from repro.multisplit import RangeBuckets, multisplit, multisplit_batch
from repro.obs import NullRegistry, collecting, get_registry
from tests.shards import fixed_shards

N = 4096


def make_keys(n=N, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, n, dtype=np.uint32)


def flat_sum(reg, prefix):
    return sum(v for k, v in reg.as_flat().items() if k.startswith(prefix))


class TestFastEngine:
    def test_call_key_and_bucket_counters(self):
        with collecting() as reg:
            multisplit(make_keys(), RangeBuckets(8), engine="fast", method="block")
        assert reg.value("engine.fast.calls", method="block") == 1
        assert reg.value("engine.fast.keys", method="block") == N
        assert reg.value("engine.fast.buckets", method="block") == 8
        assert reg.value("api.multisplit.calls", engine="fast", method="block") == 1
        assert reg.timer("engine.fast.run_ms", method="block", kv=False).count == 1

    def test_phase_timers(self):
        # the stable family runs the core at one shard, which times its
        # three phases under the fast engine's name
        with collecting() as reg:
            multisplit(make_keys(), RangeBuckets(8), engine="fast", method="block")
        for phase in ("prescan", "scan", "scatter"):
            assert reg.timer(f"engine.fast.{phase}_ms", method="block").count == 1
        assert reg.timer("engine.fast.run_ms", method="block", kv=False).count == 1

    def test_kv_label_separates_series(self):
        k = make_keys()
        vals = np.arange(N, dtype=np.uint32)
        with collecting() as reg:
            multisplit(k, RangeBuckets(8), engine="fast", method="block")
            multisplit(k, RangeBuckets(8), values=vals, engine="fast", method="block")
        assert reg.timer("engine.fast.run_ms", method="block", kv=False).count == 1
        assert reg.timer("engine.fast.run_ms", method="block", kv=True).count == 1


class TestWorkspace:
    # sharded and stream take scratch from per-worker sub-arenas, which
    # the arena's hits/misses and the nbytes gauge must include
    @pytest.mark.parametrize("engine,kwargs", [
        ("fast", {}),
        ("sharded", {"max_workers": 2}),
        ("stream", {"chunk_bytes": 4096}),
    ], ids=["fast", "sharded", "stream"])
    def test_hits_misses_match_arena_accounting(self, engine, kwargs):
        ws = Workspace()
        k = make_keys()
        with collecting() as reg, fixed_shards(2 if engine == "sharded" else None):
            for _ in range(3):
                multisplit(
                    k,
                    RangeBuckets(8),
                    engine=engine,
                    method="block",
                    workspace=ws,
                    **kwargs,
                )
        assert flat_sum(reg, "workspace.hits") == ws.hits
        assert flat_sum(reg, "workspace.misses") == ws.misses
        assert ws.hits > 0 and ws.misses > 0
        assert reg.value("workspace.nbytes") == ws.nbytes

    def test_publish_exports_gauges_with_labels(self):
        ws = Workspace()
        with collecting() as reg:
            multisplit(
                make_keys(),
                RangeBuckets(8),
                engine="fast",
                method="block",
                workspace=ws,
            )
            ws.publish(reg, arena="serving")
        assert reg.value("workspace.hits", arena="serving") == ws.hits
        assert reg.value("workspace.slots", arena="serving") == len(ws._slots)


class TestEmulator:
    def test_simt_counters_match_timeline(self):
        with collecting() as reg:
            res = multisplit(make_keys(), RangeBuckets(8), method="warp")
        records = res.timeline.records
        instrs = sum(r.counters.warp_instructions for r in records)
        reads = sum(r.counters.global_read_sectors for r in records)
        total_ms = sum(r.total_ms for r in records)
        assert flat_sum(reg, "simt.launches") == len(records)
        assert flat_sum(reg, "simt.warp_instructions") == instrs
        assert flat_sum(reg, "simt.global_read_sectors") == reads
        assert flat_sum(reg, "simt.simulated_ms.count") == len(records)
        assert flat_sum(reg, "simt.simulated_ms.total_ms") == pytest.approx(total_ms)

    def test_api_wall_timer_observed(self):
        with collecting() as reg:
            multisplit(make_keys(), RangeBuckets(8), method="warp")
        t = reg.timer("api.multisplit.wall_ms", engine="emulate", method="warp")
        assert t.count == 1
        assert t.total_ms > 0.0


class TestBatch:
    def test_sequential_batch_counters(self):
        batch = [make_keys(1024, seed=i) for i in range(6)]
        with collecting() as reg:
            multisplit_batch(batch, RangeBuckets(4))
        assert reg.value("batch.calls", engine="fast") == 1
        assert reg.value("batch.items", engine="fast") == 6
        assert reg.value("batch.keys", engine="fast") == 6 * 1024
        assert reg.value("batch.fan_out") == 6
        assert reg.value("batch.parallel") == 0  # below the fan-out floor
        assert reg.timer("batch.item_ms").count == 6

    def test_parallel_batch_records_depth(self):
        batch = [make_keys(1 << 16, seed=i) for i in range(4)]
        with collecting() as reg:
            multisplit_batch(batch, RangeBuckets(4))
        assert reg.value("batch.parallel") == 1
        assert reg.timer("batch.item_ms").count == 4
        assert 1 <= reg.value("batch.max_concurrency") <= 4


class TestDisabledMode:
    def test_no_series_created_when_disabled(self):
        reg = get_registry()
        assert isinstance(reg, NullRegistry)
        multisplit(make_keys(), RangeBuckets(8), engine="fast", method="block")
        multisplit(make_keys(), RangeBuckets(4), method="warp")
        multisplit_batch([make_keys(512, seed=9)] * 2, RangeBuckets(4))
        assert len(reg) == 0
        assert len(reg.snapshot()) == 0
