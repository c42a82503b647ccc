"""Workload definitions and seeded input generation.

Every input is a pure function of ``--seed``: the program under test only
ever sees the arrays (or request lines) built here. Sizes and rates were
chosen on a 2-vCPU host with a 105 MiB shared L3; each constant says why it
exists.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("split_uniform", "split_skewed", "serve_mixed")

# split_uniform: the bandwidth regime. 2^25 uniform uint32 keys plus
# values make each array 128 MiB and the per-call working set ~544 MiB,
# several times L3, so the engine's prescan/scatter streams from DRAM and
# range evaluation is cheap. At 2^22 call times spread too much to gate.
UNIFORM_N = 1 << 25
UNIFORM_M = 32

# split_skewed: the same engine used differently. Heavy-tailed keys in
# memmap files route engine="auto" to the out-of-core stream engine (two
# 16 MiB chunks), and sampled splitters (BucketSpec.from_sample, after GPU
# sample sort) make bucketing the dominant layer with a wide m=256
# scatter. 2^23 keys keep an op near 1.7 s, so a run holds enough ops for
# a steady median.
SKEWED_N = 1 << 23
SKEWED_M = 256
# bench_skew's u^-5 shape scaled by 2^10, truncated (not clamped) to the
# uint32 domain so no single key value swallows a bucket
SKEW_SCALE = 1024.0
SKEW_UMIN = (SKEW_SCALE / (2.0**32 - 1)) ** 0.2

# serve_mixed: the only workload where protocol, validation, the
# coalescer window and the executor dominate; engine work is tiny.
SERVE_RANGE_M = 16
SERVE_SPLITTER_M = 16
# request mix: 60% range multisplit (coalesces), 20% splitter multisplit
# (one shared list, so it coalesces too, and exercises value-keyed
# batching), 20% sort (bypasses the coalescer and holds an executor
# thread next to the coalesced batches)
SERVE_KINDS = ("range", "splitter", "sort")
SERVE_KIND_P = (0.6, 0.2, 0.2)
SERVE_SIZES = (256, 1024, 4096)
SERVE_SIZE_P = (0.6, 0.3, 0.1)
# distinct key arrays per size class; requests draw from this pool so
# lines can be encoded (and oracles computed) once per payload
SERVE_POOL = 48
# `low` is the lightly loaded service: latency is decode + window +
# kernel with little queueing. `high` queues visibly, but both sit far
# below the knee (~450-550 req/s for this mix on 2 vCPUs, and lower while
# the hypervisor steals CPU time), where p99 still repeats from run to
# run.
SERVE_RATES = {"low": 150.0, "high": 250.0}
# max_rate_rps: the highest offered rate whose p99 stays within this
# limit with no growing backlog
SERVE_P99_LIMIT_MS = 50.0
SERVE_CONNECTIONS = 2


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator per (workload, seed, stream)."""
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(stream)])


def uniform_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_for("split_uniform", seed)
    keys = rng.integers(0, 2**32, UNIFORM_N, dtype=np.uint32)
    values = rng.integers(0, 2**32, UNIFORM_N, dtype=np.uint32)
    return keys, values


def skewed_paths(work: str) -> tuple[str, str]:
    keys = os.path.join(work, "skewed_keys.u32")
    return keys, os.path.join(work, "skewed_values.u32")


def write_skewed_inputs(seed: int, work: str) -> None:
    """Write the heavy-tailed keys and their values as flushed memmaps."""
    rng = rng_for("split_skewed", seed)
    kpath, vpath = skewed_paths(work)
    keys = np.memmap(kpath, dtype=np.uint32, mode="w+", shape=(SKEWED_N,))
    step = 1 << 22
    for lo in range(0, SKEWED_N, step):
        u = SKEW_UMIN + (1.0 - SKEW_UMIN) * rng.random(min(step, SKEWED_N - lo))
        keys[lo : lo + u.size] = np.minimum(np.floor(u**-5 * SKEW_SCALE), 2.0**32 - 1)
    keys.flush()
    del keys
    values = np.memmap(vpath, dtype=np.uint32, mode="w+", shape=(SKEWED_N,))
    values[:] = rng.integers(0, 2**32, SKEWED_N, dtype=np.uint32)
    values.flush()
    del values


def skewed_inputs(work: str) -> tuple[np.memmap, np.memmap]:
    kpath, vpath = skewed_paths(work)
    keys = np.memmap(kpath, dtype=np.uint32, mode="r", shape=(SKEWED_N,))
    values = np.memmap(vpath, dtype=np.uint32, mode="r", shape=(SKEWED_N,))
    return keys, values


class ServePayloads:
    """Seeded request payloads for serve_mixed.

    ``pool[size][j]`` is a key array; a request is (kind, size, j). The
    splitter list is shared by every splitter request, as one client's
    sampled bucketing would be.
    """

    def __init__(self, seed: int):
        rng = rng_for("serve_mixed", seed)
        self.pool = {s: [] for s in SERVE_SIZES}
        for s in SERVE_SIZES:
            for _ in range(SERVE_POOL):
                self.pool[s].append(rng.integers(0, 2**32, s, dtype=np.uint32))
        # equal-width splitters with a little seeded jitter: the keys are
        # uniform, so buckets stay balanced and max_bucket_ratio steady
        width = 2**32 // SERVE_SPLITTER_M
        jitter = rng.integers(-width // 64, width // 64, SERVE_SPLITTER_M - 1)
        even = np.arange(1, SERVE_SPLITTER_M, dtype=np.int64) * width
        self.splitters = (even + jitter).astype(np.uint32)
        self._keys_json = {}
        for s, arrs in self.pool.items():
            self._keys_json[s] = [_json_list(a) for a in arrs]
        splitters = _json_list(self.splitters)
        self._spec_json = {
            "range": b'{"kind":"range","num_buckets":%d}' % SERVE_RANGE_M,
            "splitter": b'{"kind":"splitter","splitters":[%s]}' % splitters,
        }
        self._expected: dict = {}

    def line(self, req_id: int, kind: str, size: int, j: int) -> bytes:
        keys = self._keys_json[size][j]
        if kind == "sort":
            return b'{"id":%d,"op":"sort","keys":[%s]}\n' % (req_id, keys)
        return b'{"id":%d,"op":"multisplit","spec":%s,"keys":[%s]}\n' % (
            req_id, self._spec_json[kind], keys)

    def expected(self, kind: str, size: int, j: int) -> dict:
        """Stable-oracle response fields, computed with numpy alone (once
        per request kind, size and key array)."""
        req = (kind, size, j)
        if req not in self._expected:
            self._expected[req] = self._oracle(*req)
        return self._expected[req]

    def _oracle(self, kind: str, size: int, j: int) -> dict:
        keys = self.pool[size][j]
        if kind == "sort":
            return {"keys": np.sort(keys, kind="stable").tolist()}
        if kind == "range":
            ids = (keys.astype(np.uint64) * SERVE_RANGE_M) >> np.uint64(32)
            m = SERVE_RANGE_M
        else:
            ids = np.searchsorted(self.splitters, keys, side="right")
            m = SERVE_SPLITTER_M
        order = np.argsort(ids, kind="stable")
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids.astype(np.int64), minlength=m), out=starts[1:])
        return {"keys": keys[order].tolist(), "bucket_starts": starts.tolist()}


def _json_list(arr) -> bytes:
    """Comma-separated integers, the body of a JSON list."""
    return ",".join(map(str, arr.tolist())).encode()


def serve_schedule(seed: int, phase: str, rate: float, seconds: float):
    """Poisson arrivals: (due offsets in s, kinds, sizes, pool indices).

    The window holds exactly ``rate * seconds`` arrivals (a Poisson
    process conditioned on its count: sorted uniform times), and kinds
    and sizes follow the mix exactly in a seeded order, so the offered
    load is the same for every seed and only its timing varies.
    """
    rng = rng_for("serve_mixed", seed, stream=1 + hash_phase(phase))
    k = max(1, round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, k))
    kinds = rng.permutation(_exact_mix(SERVE_KIND_P, k))
    sizes = rng.permutation(_exact_mix(SERVE_SIZE_P, k))
    picks = rng.integers(0, SERVE_POOL, size=k)
    return due, kinds, sizes, picks


def _exact_mix(shares, k: int) -> np.ndarray:
    """``k`` category indices in the given shares (largest remainder)."""
    want = np.asarray(shares) * k
    counts = np.floor(want).astype(int)
    counts[np.argsort(counts - want)[: k - counts.sum()]] += 1
    return np.repeat(np.arange(len(shares)), counts)


def hash_phase(phase: str) -> int:
    """Stable small integer for a phase name (no PYTHONHASHSEED dependence)."""
    return sum((i + 1) * ord(c) for i, c in enumerate(phase)) % 100_003
