"""Sort-family benchmark: the multisplit-derived sorts at paper scale.

Measures the reduced-bit radix sort and semisort built on the
result-only engines, and records the grid to ``BENCH_sort_family.json``
at the repo root:

* full-32-bit key-value sort at n = 2^22: the emulated SIMT
  ``radix_sort`` baseline vs ``fast_radix_sort`` on the fast and
  sharded engines — the ISSUE's acceptance headline (>= 5x over the
  emulation) lives here as ``speedup_fast_full32``;
* the reduced-bit regime: m in {32, 256} distinct keys, where
  ``bits = ceil(log2 m)`` collapses the sort to a single multisplit
  pass (Section 3.4's trick measured end to end);
* ``semisort`` on a uniform key distribution vs a heavy-duplicate one
  (80% of keys drawn from three hot values), exercising the adaptive
  strategy split of arXiv 2304.10078.

Before any timing is trusted every sort cell is cross-checked against
``stable_sort_pairs`` (and semisort against its grouping contract);
``drift`` counts failures and must be exactly zero. Permutation-
sensitive checksums of the seeded inputs and the semisort group counts
are pinned exactly (``EXACT``).

Run:  PYTHONPATH=src python benchmarks/bench_sort_family.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_sort_family.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.engine import Workspace
from repro.simt import Device, K40C
from repro.sort import fast_radix_sort, semisort, stable_sort_pairs
from repro.sort.radix import radix_sort

N = 1 << 22
REDUCED_MS = (32, 256)
# the seeded default run's deterministic cells
EXACT = {"drift": 0, "full32_checksum": 2162351404,
         "reduced_checksum_m32": 2183571491,
         "reduced_checksum_m256": 2101559079,
         "semisort_uniform_groups": 4194304, "semisort_heavy_groups": 838864}
RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_sort_family.json"


def _timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _median(xs: list[float]) -> float:
    return sorted(xs)[len(xs) // 2]


def _perm_checksum(sorted_values: np.ndarray) -> int:
    # permutation-sensitive: any reordering of equal keys moves values
    return int(sorted_values[::4096].astype(np.uint64).sum())


def _grouped_ok(res, keys) -> bool:
    g = res.keys
    if not np.array_equal(np.sort(g), np.sort(keys)):
        return False
    boundary = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    return (np.array_equal(boundary, res.group_starts)
            and res.num_groups == np.unique(keys).size)


def run(n: int = N, repeats: int = 3) -> dict:
    rng = np.random.default_rng(2016)
    keys = rng.integers(0, 2**32, n, dtype=np.uint32)
    values = np.arange(n, dtype=np.uint32)
    ref_k, ref_v = stable_sort_pairs(keys, values)

    report = {
        "n": n,
        "repeats": repeats,
        "reduced_ms": list(REDUCED_MS),
        "drift": 0,
        "full32_checksum": _perm_checksum(ref_v),
    }

    # ---- emulated baseline: one audited full-32-bit kv pass ----------
    emu_keys, emu_vals = None, None

    def emulate():
        nonlocal emu_keys, emu_vals
        emu_keys, emu_vals = radix_sort(Device(K40C), keys, values, bits=32)

    report["emulate_full32_ms"] = round(_timed_ms(emulate), 3)
    report["drift"] += int(not (np.array_equal(emu_keys, ref_k)
                                and np.array_equal(emu_vals, ref_v)))

    # ---- fast / sharded full-32-bit sorts ----------------------------
    for tag, kw in (("fast", {"engine": "fast"}),
                    ("sharded_w4", {"engine": "sharded", "max_workers": 4})):
        sk, sv = fast_radix_sort(keys, values, **kw)
        report["drift"] += int(not (np.array_equal(sk, ref_k)
                                    and np.array_equal(sv, ref_v)))
        ws = Workspace()
        fast_radix_sort(keys, values, workspace=ws, **kw)  # warm arena
        report[f"{tag}_full32_ms"] = round(_median(
            [_timed_ms(lambda: fast_radix_sort(keys, values, workspace=ws,
                                               **kw))
             for _ in range(repeats)]), 3)
        ws.clear()

    for tag in ("fast", "sharded_w4"):
        report[f"speedup_{tag}_full32"] = round(
            report["emulate_full32_ms"] / report[f"{tag}_full32_ms"], 2)

    # ---- reduced-bit regime: m distinct keys, single pass ------------
    for m in REDUCED_MS:
        km = rng.integers(0, m, n, dtype=np.uint32)
        rm_k, rm_v = stable_sort_pairs(km, values)
        sk, sv = fast_radix_sort(km, values, engine="fast")
        report["drift"] += int(not (np.array_equal(sk, rm_k)
                                    and np.array_equal(sv, rm_v)))
        report[f"reduced_checksum_m{m}"] = _perm_checksum(rm_v)
        ws = Workspace()
        fast_radix_sort(km, values, engine="fast", workspace=ws)
        report[f"fast_reduced_m{m}_ms"] = round(_median(
            [_timed_ms(lambda: fast_radix_sort(km, values, engine="fast",
                                               workspace=ws))
             for _ in range(repeats)]), 3)
        ws.clear()

    # ---- semisort: uniform vs heavy-duplicate ------------------------
    uniform = rng.integers(0, 2**63, n, dtype=np.uint64)
    hot = rng.choice(np.array([3, 99, 2**40], dtype=np.uint64), int(n * 0.8))
    heavy = np.concatenate(
        [hot, rng.integers(0, 2**50, n - hot.size, dtype=np.uint64)])
    rng.shuffle(heavy)
    for tag, data, want in (("uniform", uniform, "uniform"),
                            ("heavy", heavy, "heavy")):
        res = semisort(data)
        report["drift"] += int(not _grouped_ok(res, data))
        report["drift"] += int(res.strategy != want)
        report[f"semisort_{tag}_groups"] = res.num_groups
        ws = Workspace()
        semisort(data, workspace=ws)
        report[f"semisort_{tag}_ms"] = round(_median(
            [_timed_ms(lambda: semisort(data, workspace=ws))
             for _ in range(repeats)]), 3)
        ws.clear()
    return report


def check(report: dict) -> None:
    """The gates of a default-configuration run."""
    assert {k: report[k] for k in EXACT} == EXACT, report
    # the acceptance headline: the engine-run sort beats the emulated
    # baseline by >= 5x on full 32-bit keys at n = 2^22
    assert report["speedup_fast_full32"] >= 5.0, report


def test_sort_family():
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    check(report)


if __name__ == "__main__":
    report = run()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {RESULT_PATH}]")
    check(report)
