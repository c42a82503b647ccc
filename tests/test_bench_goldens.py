"""Exact goldens for seeded bench configurations.

Everything here is computed, not measured, so every cell must match
exactly on any machine:

* the emulator's audited counters — simulated milliseconds (compared at
  6 decimals) and the sector and instruction counts of one emulated
  key-only multisplit of n = 4096 uint32 keys from ``default_rng(2016)``
  under ``RangeBuckets(m)`` on the K40c profile;
* the result-only paths at small seeded sizes — the batch dispatcher,
  the sharded and stream engines and the coalescing service: their
  shard and chunk geometry, their drift from the fast engine, and a
  checksum of their ``bucket_starts``.

Any change means an algorithm, cost-model or geometry change; if it is
intentional, update the table (and EXPERIMENTS.md for the counters, as
for ``tests/test_goldens.py``).
"""

import asyncio

import numpy as np
import pytest

from repro.engine import Workspace, sharded_multisplit, stream_multisplit
from repro.multisplit import RangeBuckets, multisplit, multisplit_batch
from repro.service import ReproService, ServiceConfig

# (method, m) -> (simulated_ms, read_sectors, write_sectors,
#                 warp_instructions)
COUNTER_GOLDENS = {
    ("warp", 8): (0.015588, 1281, 1657, 7008),
    ("warp", 32): (0.016065, 2049, 3827, 9856),
    ("block", 8): (0.015749, 1057, 747, 23068),
    ("block", 32): (0.015851, 1153, 1170, 25664),
    ("reduced_bit", 8): (0.021135, 2053, 1745, 7683),
    ("reduced_bit", 32): (0.021206, 2065, 1861, 12550),
}


@pytest.mark.parametrize("method,m", sorted(COUNTER_GOLDENS),
                         ids=[f"{k}-m{m}" for k, m in sorted(COUNTER_GOLDENS)])
def test_counter_golden(method, m):
    keys = np.random.default_rng(2016).integers(0, 2**32, 4096,
                                                dtype=np.uint32)
    res = multisplit(keys, RangeBuckets(m), method=method)
    recs = res.timeline.records
    got = (round(res.simulated_ms, 6),
           sum(r.counters.global_read_sectors for r in recs),
           sum(r.counters.global_write_sectors for r in recs),
           sum(r.counters.warp_instructions for r in recs))
    assert got == COUNTER_GOLDENS[(method, m)], (
        f"{method} m={m}: (simulated_ms, read_sectors, write_sectors, "
        f"warp_instructions) drifted to {got}")


def _kv(n, seed=2016):
    keys = np.random.default_rng(seed).integers(0, 2**32, n, dtype=np.uint32)
    return keys, np.arange(n, dtype=np.uint32)


def _same(a, b) -> bool:
    return (np.array_equal(a.keys, b.keys)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.bucket_starts, b.bucket_starts))


def batch_cells() -> dict:
    """Eight 16K-key items through ``multisplit_batch``, m = 8."""
    rng = np.random.default_rng(11)
    batch = [rng.integers(0, 2**32, 1 << 14, dtype=np.uint32)
             for _ in range(8)]
    results = multisplit_batch(batch, RangeBuckets(8))
    return {"items": len(results),
            "starts_checksum": sum(int(r.bucket_starts.sum())
                                   for r in results)}


def sharded_cells() -> dict:
    """2^18 kv pairs, m = 32: the sharded engine at one and two workers
    against the fast engine."""
    keys, values = _kv(1 << 18)
    spec = RangeBuckets(32)
    ref = multisplit(keys, spec, values=values, method="block",
                     engine="fast")
    runs = [sharded_multisplit(keys, spec, values=values, method="block",
                               max_workers=w) for w in (1, 2)]
    return {"drift": sum(not _same(ref, r) for r in runs),
            "shards": runs[-1].extra["shards"],
            "starts_checksum": int(ref.bucket_starts.sum())}


def stream_cells() -> dict:
    """2^20 kv pairs, m = 32, streamed in 1 MiB chunks into caller
    buffers; the sharded engine over the same input."""
    keys, values = _kv(1 << 20)
    spec = RangeBuckets(32)
    ref = multisplit(keys, spec, values=values, method="block",
                     engine="fast")
    ws = Workspace()
    res = stream_multisplit(keys, spec, values=values, method="block",
                            workspace=ws, chunk_bytes=1 << 20,
                            out=np.empty_like(keys),
                            out_values=np.empty_like(values))
    sharded = sharded_multisplit(keys, spec, values=values, method="block")
    return {"drift": int(not _same(ref, res)) + int(not _same(ref, sharded)),
            "chunks": res.extra["chunks"],
            "shards": res.extra["shards"],
            "starts_checksum": int(ref.bucket_starts.sum()),
            "peak_under_dataset": int(ws.peak_nbytes
                                      < keys.nbytes + values.nbytes)}


def service_cells() -> dict:
    """Five concurrent waves of 32 requests of 256 keys, m = 16, through
    a coalescing service; the last wave against direct calls."""
    rng = np.random.default_rng(2016)
    batch = [rng.integers(0, 2**32, 256, dtype=np.uint32) for _ in range(32)]
    spec = RangeBuckets(16)

    async def drive():
        cfg = ServiceConfig(max_batch=32, workers=2)
        async with ReproService(cfg) as svc:
            for _ in range(5):
                results = await asyncio.gather(
                    *[svc.multisplit(k, spec) for k in batch])
            return results, svc.metrics_snapshot()["series"]

    results, series = asyncio.run(drive())
    count = next(r["count"] for r in series
                 if r["name"] == "service.latency_ms"
                 and r["labels"].get("route") == "multisplit")
    drift = 0
    for res, k in zip(results, batch):
        ref = multisplit(k, spec, engine="fast")
        drift += int(not (np.array_equal(res.keys, ref.keys)
                          and np.array_equal(res.bucket_starts,
                                             ref.bucket_starts)))
    return {"drift": drift,
            "starts_checksum": sum(int(r.bucket_starts.sum())
                                   for r in results),
            "latency_count": count}


ENGINE_GOLDENS = {
    batch_cells: {"items": 8, "starts_checksum": 588937},
    sharded_cells: {"drift": 0, "shards": 2, "starts_checksum": 4328335},
    stream_cells: {"drift": 0, "chunks": 4, "shards": 8,
                   "starts_checksum": 17301848, "peak_under_dataset": 1},
    service_cells: {"drift": 0, "starts_checksum": 69343,
                    "latency_count": 160},
}


@pytest.mark.parametrize("cells", list(ENGINE_GOLDENS),
                         ids=[f.__name__ for f in ENGINE_GOLDENS])
def test_engine_golden(cells):
    assert cells() == ENGINE_GOLDENS[cells]
