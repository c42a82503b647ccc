"""Stream-engine benchmark: out-of-core multisplit at n = 2^24.

Measures one large key-value multisplit (m = 32, block-level MS) through
``engine="stream"`` against the in-core sharded engine and records the
result to ``BENCH_stream.json`` at the repo root:

* ``sharded_warm_ms`` / ``stream_warm_ms`` — paired medians on warmed
  workspaces. The two engines are timed *interleaved* (sharded, stream,
  sharded, stream, ...) and the headline ``speedup_vs_sharded`` is the
  median of the per-pair ratios: drifting background load on a shared
  runner hits both sides of a pair alike, so the ratio stays stable
  even when the absolute milliseconds wander.
* ``sol_fraction`` — stream wall-clock as a fraction of "speed of
  light": a straight ``memcpy`` of the same keys+values payload into
  the same output buffers, i.e. the cost of touching the data once
  with no bucketing at all.
* ``peak_arena_nbytes`` — the stream workspace's high-water mark, which
  must stay below the dataset itself: the engine's O(chunk + m*P) bound
  is what makes it an out-of-core tier rather than a third in-core one.

The stream engine runs at its out-of-core calling convention —
caller-provided ``out=``/``out_values=`` buffers (a memmap in real use)
and the default chunk budget — so the comparison covers exactly the
code path the CI bounded-memory job locks down. Both engines run the
same {local, global, local} core (``repro.engine.stream.run_core``)
over one shard sequence: the sharded engine feeds it the whole array
as one chunk, the stream engine feeds it ``chunk_bytes`` chunks whose
shards join one chunk-major sequence, scanned once and mapped over
the workers once per pass, as the sharded engine's are. The two
engines thus run the same code on the same 128 shards, and the >= 1x
gate pins down that the chunk cuts cost no throughput.

Every configuration cross-checks bit-identity against the fast engine
(itself emulate-parity gated) before any timing is trusted.

Run:  PYTHONPATH=src python benchmarks/bench_stream.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_stream.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.engine import Workspace, sharded_multisplit, stream_multisplit
from repro.multisplit import RangeBuckets, multisplit

N = 1 << 24
M = 32
PAIRS = 9
RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_stream.json"


def _timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _median(xs: list[float]) -> float:
    return sorted(xs)[len(xs) // 2]


def run(n: int = N, m: int = M, pairs: int = PAIRS,
        chunk_bytes: int | None = None) -> dict:
    rng = np.random.default_rng(2016)
    keys = rng.integers(0, 2**32, n, dtype=np.uint32)
    values = np.arange(n, dtype=np.uint32)
    spec = RangeBuckets(m)
    method = "block"
    out_keys = np.empty(n, dtype=keys.dtype)
    out_values = np.empty(n, dtype=values.dtype)

    sharded_ws = Workspace()
    stream_ws = Workspace()

    def sharded():
        return sharded_multisplit(keys, spec, values=values, method=method,
                                  workspace=sharded_ws)

    stream_kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}

    def stream():
        return stream_multisplit(keys, spec, values=values, method=method,
                                 workspace=stream_ws, out=out_keys,
                                 out_values=out_values, **stream_kwargs)

    # bit-identity first: never report a speedup for a wrong answer
    ref = multisplit(keys, spec, values=values, method=method, engine="fast")
    drift = 0
    for res in (sharded(), stream()):
        drift += int(not (np.array_equal(ref.keys, res.keys)
                          and np.array_equal(ref.values, res.values)
                          and np.array_equal(ref.bucket_starts,
                                             res.bucket_starts)))
    stream_res = stream()
    chunks = stream_res.extra["chunks"]
    shards = stream_res.extra["shards"]
    chunk_bytes = stream_res.extra["chunk_bytes"]

    # paired interleaved timing on the (now warm) arenas; the first
    # two pairs are discarded — they still carry one-time costs
    # (branch-predictor/cache settling, lazy imports) that hit the two
    # sides unevenly
    sharded_times, stream_times, ratios = [], [], []
    for _ in range(pairs + 2):
        a = _timed_ms(sharded)
        b = _timed_ms(stream)
        sharded_times.append(a)
        stream_times.append(b)
        ratios.append(a / b)
    sharded_times, stream_times = sharded_times[2:], stream_times[2:]
    ratios = ratios[2:]

    # speed of light: touch the payload once, no bucketing
    memcpy_ms = _median([_timed_ms(lambda: (np.copyto(out_keys, keys),
                                            np.copyto(out_values, values)))
                         for _ in range(pairs)])

    dataset_nbytes = keys.nbytes + values.nbytes
    sharded_ms = _median(sharded_times)
    stream_ms = _median(stream_times)
    return {
        "n": n,
        "m": m,
        "method": method,
        "key_value": True,
        "chunks": int(chunks),
        "shards": int(shards),
        "chunk_bytes": int(chunk_bytes),
        "drift": drift,
        "starts_checksum": int(ref.bucket_starts.sum()),
        "sharded_warm_ms": round(sharded_ms, 3),
        "stream_warm_ms": round(stream_ms, 3),
        "speedup_vs_sharded": round(_median(ratios), 3),
        "memcpy_ms": round(memcpy_ms, 3),
        "sol_fraction": round(memcpy_ms / stream_ms, 3),
        "dataset_nbytes": int(dataset_nbytes),
        "peak_arena_nbytes": int(stream_ws.peak_nbytes),
        "peak_fraction": round(stream_ws.peak_nbytes / dataset_nbytes, 3),
    }


def test_stream_bench():
    report = run()
    if report["speedup_vs_sharded"] < 1.0 and report["drift"] == 0:
        # one re-measure before failing the >= 1x gate: a transient
        # load spike can still straddle whole pairs on a busy runner
        report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["drift"] == 0, report
    # the out-of-core tier must not tax in-core callers: at the default
    # chunk budget stream has to at least match sharded throughput;
    # both run one shard sequence, so this measures a tie
    assert report["speedup_vs_sharded"] >= 1.0, report
    # speed-of-light floor: a full stable multisplit should cost no
    # more than ~20 payload copies end to end
    assert report["sol_fraction"] >= 0.05, report
    # the whole point of the tier: scratch high-water mark bounded well
    # below the dataset (O(chunk + m*P), not O(n))
    assert report["peak_arena_nbytes"] < report["dataset_nbytes"], report


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
