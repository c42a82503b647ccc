#!/usr/bin/env python
"""Measure the ``engine="auto"`` size floor between ``fast`` and ``sharded``.

For every input size ``n``, bucket count ``m`` and mode (key-value or
keys-only) this times ``engine="fast"`` and ``engine="sharded"`` at one
and two workers on uniform uint32 keys (``RangeBuckets(m)``,
``method="block"``), rotating which engine runs first in every round
so host drift hits all three alike. Each cell prints
``sharded time / fast time`` for one and two workers (medians); a ratio
below 1 means sharding wins. ``SHARDED_AUTO_MIN_N`` is the smallest
``n`` at which sharding wins most cells and loses none by more than
that cell's spread across runs.

Run:  PYTHONPATH=src python scripts/auto_floor_sweep.py [--log2n 15 20]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.multisplit import RangeBuckets, multisplit

BUCKETS = (16, 32, 256, 4096)
RUNS = [("fast", {}), ("w1", {"engine": "sharded", "max_workers": 1}),
        ("w2", {"engine": "sharded", "max_workers": 2})]


def _time(keys, spec, values, kw) -> float:
    t0 = time.perf_counter()
    multisplit(keys, spec, values=values, method="block",
               **{"engine": "fast", **kw})
    return time.perf_counter() - t0


def cell(n: int, m: int, kv: bool, reps: int) -> tuple[float, float]:
    rng = np.random.default_rng(n + m)
    keys = rng.integers(0, 2**32, n, dtype=np.uint32)
    values = np.arange(n, dtype=np.uint32) if kv else None
    spec = RangeBuckets(m)
    times = {name: [] for name, _ in RUNS}
    for name, kw in RUNS:  # warm-up
        _time(keys, spec, values, kw)
    for r in range(reps):
        for i in range(len(RUNS)):
            name, kw = RUNS[(r + i) % len(RUNS)]
            times[name].append(_time(keys, spec, values, kw))
    fast = np.median(times["fast"])
    return np.median(times["w1"]) / fast, np.median(times["w2"]) / fast


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--log2n", type=int, nargs=2, default=(15, 20))
    args = ap.parse_args()
    sizes = range(args.log2n[0], args.log2n[1] + 1)
    for kv in (True, False):
        print(f"\n{'key-value' if kv else 'keys-only'}: sharded / fast, "
              "w1 / w2")
        print("| m | " + " | ".join(f"2^{b}" for b in sizes) + " |")
        print("|---" * (len(sizes) + 1) + "|")
        for m in BUCKETS:
            row = []
            for b in sizes:
                w1, w2 = cell(1 << b, m, kv, 15 if b <= 19 else 9)
                row.append(f"{w1:.2f} / {w2:.2f}")
            print(f"| {m} | " + " | ".join(row) + " |", flush=True)


if __name__ == "__main__":
    main()
