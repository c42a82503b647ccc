"""Skew-robust bucketing benchmark: sampled splitters vs equal-width ranges.

The paper's evaluation assumes bucket mappings that spread keys evenly;
real service traffic is Zipf-skewed, and a handful of hot buckets
serialize the scatter. This bench builds the adversarial workload —
n = 2^22 keys drawn from a Pareto-style heavy tail (``u^-5`` scaled to
``[2^10, 2^40]``, the continuous analogue of Zipf s=1.1's hot head with
almost-distinct keys so an elementwise spec *can* balance them) — and
records to ``BENCH_skew.json`` at the repo root:

* ``range_skew``    — max-bucket/mean-bucket load under equal-width
  ``RangeBuckets`` over the key domain (the paper's default bucketing);
  the hot head lands >96% of keys in bucket 0, ~62x skew
* ``splitter_skew`` — the same ratio under ``BucketSpec.from_sample``
  sampled splitters (m=64, oversample=32, one recursion level on
  buckets exceeding 2x mean), gated at <= 2x
* ``resplits``      — oversized buckets re-split by the recursion pass
* ``drift``         — bit-identity of the composed SplitterBuckets run
  against the stable oracle and across the fast/sharded engines (must
  be 0 before any skew number is trusted)
* ``sample_ms`` / ``split_ms`` — wall-clock to build the splitters and
  to run the balanced multisplit (informational; the gates are on the
  deterministic skew/drift numbers only)

Everything gated is seeded-deterministic, so ``test_skew_gate`` also
pins the exact values of the default configuration (``EXACT``): a
change there is an algorithm change to review, not noise.

Run:  PYTHONPATH=src python benchmarks/bench_skew.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_skew.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.multisplit import BucketSpec, RangeBuckets, multisplit
from repro.multisplit.validate import reference_multisplit
from repro.obs import collecting

N = 1 << 22
M = 64
OVERSAMPLE = 32
KEY_MAX = 1 << 40
# the seeded default run's deterministic cells
EXACT = {"range_skew": 61.6983, "splitter_skew": 1.4099, "resplits": 0,
         "starts_checksum": 139614448}
RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_skew.json"


def make_skewed_keys(n: int = N, seed: int = 2016) -> np.ndarray:
    """Heavy-tailed uint64 keys: hot head, almost-distinct values."""
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random(n), 1e-9)
    return np.minimum(u**-5 * 1024.0, float(KEY_MAX)).astype(np.uint64)


def run(n: int = N, m: int = M, repeats: int = 3) -> dict:
    keys = make_skewed_keys(n)
    mean = n / m

    range_spec = RangeBuckets(m, 0, KEY_MAX + 1)
    range_counts = np.bincount(range_spec(keys), minlength=m)
    range_skew = float(range_counts.max() / mean)

    # timed with metrics off, as callers run it: with metrics on,
    # from_sample also counts the full input for its skew gauges
    t0 = time.perf_counter()
    spec = BucketSpec.from_sample(keys, m, oversample=OVERSAMPLE)
    sample_ms = (time.perf_counter() - t0) * 1e3
    # the splitters do not depend on metrics; a second call reports
    # how many buckets the recursion re-split
    with collecting() as reg:
        BucketSpec.from_sample(keys, m, oversample=OVERSAMPLE)
    resplits = sum(r["value"] for r in reg.snapshot()
                   if r["name"] == "bucketing.resplits")
    counts = np.bincount(spec(keys), minlength=m)
    splitter_skew = float(counts.max() / mean)

    # bit-identity before anyone trusts the skew numbers: the composed
    # SplitterBuckets spec must produce the oracle stable permutation
    # on every result-only engine
    ref_keys, _, ref_starts = reference_multisplit(keys, spec)
    drift = 0
    for engine in ("fast", "sharded"):
        res = multisplit(keys, spec, engine=engine)
        drift += int(not (np.array_equal(ref_keys, res.keys)
                          and np.array_equal(ref_starts,
                                             np.asarray(res.bucket_starts,
                                                        dtype=np.int64))))

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        multisplit(keys, spec, engine="fast")
        times.append((time.perf_counter() - t0) * 1e3)
    split_ms = sorted(times)[len(times) // 2]

    return {
        "n": n,
        "m": m,
        "oversample": OVERSAMPLE,
        "range_skew": round(range_skew, 4),
        "splitter_skew": round(splitter_skew, 4),
        "resplits": int(resplits),
        "drift": drift,
        "starts_checksum": int(ref_starts.sum()),
        "sample_ms": round(sample_ms, 3),
        "split_ms": round(split_ms, 3),
    }


def test_skew_gate():
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["drift"] == 0, report
    # the workload must actually be adversarial for equal-width buckets
    assert report["range_skew"] > 50.0, report
    # ...and sampled splitters must tame it
    assert report["splitter_skew"] <= 2.0, report
    assert {k: report[k] for k in EXACT} == EXACT, report


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
