"""Backend benchmark: the numpy kernels on the fast and sharded engines
at paper scale.

Measures one large key-value multisplit per configuration and records
the grid to ``BENCH_backends.json`` at the repo root:

* n = 2^22 keys, m in {32, 256, 1024, 4096} buckets (block-level MS
  at 32, the reduced-bit regime at 256 — the paper's two headline
  bucket ranges — and two wide cells whose uint16 ids put the sharded
  scatter on its computed-destination store)
* the one shipped backend, ``numpy`` (cells are named
  ``numpy_<engine>_...``)
* engines: the monolithic fast path, plus the sharded path with
  ``max_workers`` in {1, 4}

Before any timing is trusted, every engine x m cell is cross-checked
bit-for-bit against the fast-engine reference (itself emulate-parity
gated); the ``drift`` metric counts failures and must be exactly zero,
and each m's ``bucket_starts`` checksum must equal the seeded input's.

``fast`` and ``sharded`` at one worker are timed in interleaved pairs,
so drifting background load hits both sides of a pair alike; the gate
is the median per-pair ratio ``pair_fast_over_w1_m<m>``, which must be
at least 1.2 at every m. At one worker the ratio measures the
{local, global, local} decomposition, not the core count (the
committed record reads 2.2-2.7 on a 2-vCPU host). The w4 cells are recorded, not gated:
what threads add depends on the host's cores.

Run:  PYTHONPATH=src python benchmarks/bench_backends.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.engine import Workspace
from repro.multisplit import RangeBuckets, multisplit

N = 1 << 22
MS = (32, 256, 1024, 4096)
WORKERS = (1, 4)
PAIRS = 5
MIN_PAIR_RATIO = 1.2
# bucket_starts sums of the seeded n = 2^22 input, per m
STARTS_CHECKSUMS = {32: 69163027, 256: 538625829, 1024: 2148211390,
                    4096: 8586556346}
RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_backends.json"


def _timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _median(xs: list[float]) -> float:
    return sorted(xs)[len(xs) // 2]


def _same(a, b) -> bool:
    return (np.array_equal(a.keys, b.keys)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.bucket_starts, b.bucket_starts))


def run(n: int = N, ms: tuple = MS, workers: tuple = WORKERS,
        repeats: int = 3) -> dict:
    rng = np.random.default_rng(2016)
    keys = rng.integers(0, 2**32, n, dtype=np.uint32)
    values = np.arange(n, dtype=np.uint32)
    report = {
        "n": n,
        "buckets": list(ms),
        "workers": list(workers),
        "repeats": repeats,
        "pairs": PAIRS,
        "key_value": True,
        "backends": ["numpy"],
        "drift": 0,
    }

    def call(engine, m, w, ws):
        method = "block" if m <= 128 else "reduced_bit"
        kwargs = {"workspace": ws}
        if engine == "sharded":
            kwargs["max_workers"] = w
        return multisplit(keys, RangeBuckets(m), values=values, method=method,
                          engine=engine, **kwargs)

    for m in ms:
        ref = call("fast", m, None, None)
        report[f"starts_checksum_m{m}"] = int(ref.bucket_starts.sum())
        # bit-identity first: never report a speedup for a wrong answer
        for w in workers:
            report["drift"] += int(not _same(ref, call("sharded", m, w,
                                                       None)))

        # fast vs sharded at one worker, timed in interleaved pairs on
        # warm arenas
        fast_ws, w1_ws = Workspace(), Workspace()
        call("fast", m, None, fast_ws)
        call("sharded", m, 1, w1_ws)
        fast_t, w1_t = [], []
        for _ in range(PAIRS):
            fast_t.append(_timed_ms(lambda: call("fast", m, None, fast_ws)))
            w1_t.append(_timed_ms(lambda: call("sharded", m, 1, w1_ws)))
        fast_ws.clear()
        w1_ws.clear()
        report[f"numpy_fast_m{m}_ms"] = round(_median(fast_t), 3)
        report[f"numpy_sharded_m{m}_w1_ms"] = round(_median(w1_t), 3)
        report[f"pair_fast_over_w1_m{m}"] = round(
            _median([a / b for a, b in zip(fast_t, w1_t)]), 2)

        for w in workers:
            if w == 1:
                continue  # timed in the pairs above
            ws = Workspace()
            call("sharded", m, w, ws)  # warm arena / pool
            report[f"numpy_sharded_m{m}_w{w}_ms"] = round(_median(
                [_timed_ms(lambda: call("sharded", m, w, ws))
                 for _ in range(repeats)]), 3)
            ws.clear()

    # headline ratios of medians (higher = faster than the monolithic
    # numpy fast path); recorded for the reader, never gated — the gate
    # is the paired one-worker ratio above
    for m in ms:
        base = report[f"numpy_fast_m{m}_ms"]
        for key in [k for k in report if k.endswith(f"_m{m}_w1_ms")
                    or k.endswith(f"_m{m}_w{max(workers)}_ms")]:
            name = key[:-3].replace(f"_m{m}_", "_")
            report[f"speedup_{name}_m{m}"] = round(base / report[key], 2)
    return report


def check(report: dict) -> None:
    """The gates of a default-configuration run."""
    assert report["drift"] == 0, report
    for m, checksum in STARTS_CHECKSUMS.items():
        assert report[f"starts_checksum_m{m}"] == checksum, report
        assert report[f"pair_fast_over_w1_m{m}"] >= MIN_PAIR_RATIO, report


def test_backends_grid():
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    check(report)


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
    check(report)
