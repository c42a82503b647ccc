"""Service benchmark: coalesced vs naive per-request throughput.

Drives 64 concurrent small multisplit requests through an in-process
:class:`~repro.service.ReproService` twice — once with coalescing
enabled (``max_batch=64``: the wave's requests share a window that
flushes when full or on the loop's next turn) and once with it disabled
(``max_batch=1``, no window: the naive per-request path, every request
its own kernel dispatch; both run on the event-loop thread at these
sizes) — and records both to ``BENCH_service.json`` at the repo root,
plus the direct sequential engine loop as a floor.

The acceptance gate is the serving-stack version of the paper's
batching argument: per-request overhead (event-loop wakeups, future
delivery, per-call kernel fixed costs, one spec evaluation per
request) is the "kernel launch" of a service, and coalescing a
64-request window into one fused composite-bucket dispatch must
amortize it by **at least 3x** versus the naive path, while every response stays bit-identical to a direct
``multisplit`` call and the ``/metrics`` snapshot carries p50/p99
latency histograms for the route.

Run:  PYTHONPATH=src python benchmarks/bench_service.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

import numpy as np

from repro.multisplit import RangeBuckets, multisplit
from repro.service import ReproService, ServiceConfig

REQUESTS = 64
N = 256
M = 16
ROUNDS = 7
RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _workload(requests: int, n: int, seed: int = 2016) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2**32, n, dtype=np.uint32) for _ in range(requests)]


async def _drive(config: ServiceConfig, batch, spec, rounds: int):
    """Best-of-``rounds`` wall time for one concurrent request wave."""
    async with ReproService(config) as svc:
        for _ in range(2):  # warm executor threads + worker arenas
            await asyncio.gather(*[svc.multisplit(k, spec) for k in batch])
        best = float("inf")
        results = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *[svc.multisplit(k, spec) for k in batch])
            best = min(best, time.perf_counter() - t0)
        snapshot = svc.metrics_snapshot()["series"]
        return best * 1e3, results, snapshot


def _hist_quantiles(snapshot: list[dict], route: str) -> dict:
    for rec in snapshot:
        if (rec["name"] == "service.latency_ms"
                and rec.get("labels", {}).get("route") == route):
            return rec
    return {}


def run(requests: int = REQUESTS, n: int = N, m: int = M,
        rounds: int = ROUNDS, workers: int = 2) -> dict:
    batch = _workload(requests, n)
    spec = RangeBuckets(m)

    coalesced_cfg = ServiceConfig(max_batch=requests, workers=workers)
    naive_cfg = ServiceConfig(max_batch=1, workers=workers)

    # direct sequential engine loop: the overhead-free floor
    reference = [multisplit(k, spec, engine="fast") for k in batch]
    direct_ms = min(
        _timed_ms(lambda: [multisplit(k, spec, engine="fast") for k in batch])
        for _ in range(3))

    coalesced_ms, results, snapshot = asyncio.run(
        _drive(coalesced_cfg, batch, spec, rounds))
    naive_ms, _, _ = asyncio.run(_drive(naive_cfg, batch, spec, rounds))

    # bit-identical: coalesced responses == direct multisplit calls
    drift = 0
    for res, ref in zip(results, reference):
        if not (np.array_equal(res.keys, ref.keys)
                and np.array_equal(res.bucket_starts, ref.bucket_starts)):
            drift += 1
    starts_checksum = int(sum(int(r.bucket_starts.sum()) for r in results))

    hist = _hist_quantiles(snapshot, "multisplit")
    return {
        "requests": requests,
        "n_per_request": n,
        "m": m,
        "rounds": rounds,
        "workers": workers,
        "direct_ms": round(direct_ms, 3),
        "coalesced_ms": round(coalesced_ms, 3),
        "naive_ms": round(naive_ms, 3),
        "speedup_coalesced_vs_naive": round(naive_ms / coalesced_ms, 2),
        "drift": drift,
        "starts_checksum": starts_checksum,
        "latency_count": int(hist.get("count", 0)),
        "latency_p50_ms": hist.get("p50_ms"),
        "latency_p99_ms": hist.get("p99_ms"),
    }


def _timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def test_service_coalescing_gate():
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["drift"] == 0, report
    assert report["speedup_coalesced_vs_naive"] >= 3.0, report
    assert report["latency_p50_ms"] is not None, report
    assert report["latency_p99_ms"] is not None, report
    assert report["latency_count"] > 0, report


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
