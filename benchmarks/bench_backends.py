"""Backend benchmark: numpy vs numba at paper scale.

Measures one large key-value multisplit per configuration and records
the grid to ``BENCH_backends.json`` at the repo root:

* n = 2^22 keys, m in {32, 256} buckets (block-level MS at 32, the
  reduced-bit regime at 256 — the paper's two headline bucket ranges)
* every *available* backend: ``numpy`` always, ``numba`` only when
  importable (the record simply omits its metrics elsewhere, which the
  bench-compare gate treats as "new" rather than missing)
* engines: the monolithic fast path per backend, plus the sharded path
  with ``max_workers`` in {1, 4}

Before any timing is trusted, every backend x engine x m cell is
cross-checked bit-for-bit against the fast/numpy reference (itself
emulate-parity gated); the ``drift`` metric counts failures and the
regression gate requires it to be exactly zero.

The per-cell speedups recorded here are hardware- and
availability-dependent (a 1-core runner gains nothing from w4; a
no-numba host has no numba cells), so ``test_backends_grid`` asserts
only the invariant that holds everywhere — zero drift — and leaves the
multi-core and compiled-kernel claims to the recorded numbers.

Run:  PYTHONPATH=src python benchmarks/bench_backends.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.engine import Workspace
from repro.engine.backends import available_backends
from repro.multisplit import RangeBuckets, multisplit

N = 1 << 22
MS = (32, 256)
WORKERS = (1, 4)
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
    avail = available_backends()
    backends = [name for name in ("numpy", "numba") if avail[name]]

    report = {
        "n": n,
        "buckets": list(ms),
        "workers": list(workers),
        "repeats": repeats,
        "key_value": True,
        "backends": backends,
        "drift": 0,
    }

    def call(backend, engine, m, w, ws):
        method = "block" if m <= 128 else "reduced_bit"
        kwargs = {"workspace": ws, "backend": backend}
        if engine == "sharded":
            kwargs["max_workers"] = w
        return multisplit(keys, RangeBuckets(m), values=values, method=method,
                          engine=engine, **kwargs)

    for m in ms:
        ref = call("numpy", "fast", m, None, None)
        report[f"starts_checksum_m{m}"] = int(ref.bucket_starts.sum())
        cells = []
        for backend in backends:
            cells.append((backend, "fast", None))
            cells.extend((backend, "sharded", w) for w in workers)
        for backend, engine, w in cells:
            # bit-identity first: never report a speedup for a wrong answer
            report["drift"] += int(not _same(ref, call(backend, engine, m, w,
                                                       None)))
            ws = Workspace()
            call(backend, engine, m, w, ws)  # warm arena / JIT / pool
            tag = (f"{backend}_fast_m{m}_ms" if engine == "fast"
                   else f"{backend}_sharded_m{m}_w{w}_ms")
            report[tag] = round(_median(
                [_timed_ms(lambda: call(backend, engine, m, w, ws))
                 for _ in range(repeats)]), 3)
            ws.clear()

    # headline ratios (higher = faster than the monolithic numpy fast
    # path); recorded for the reader, never gated — they are hardware-
    # and availability-dependent
    for m in ms:
        base = report[f"numpy_fast_m{m}_ms"]
        for key in [k for k in report if k.endswith(f"_m{m}_w1_ms")
                    or k.endswith(f"_m{m}_w{max(workers)}_ms")]:
            name = key[:-3].replace(f"_m{m}_", "_")
            report[f"speedup_{name}_m{m}"] = round(base / report[key], 2)
    return report


def test_backends_grid():
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["drift"] == 0, report


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
