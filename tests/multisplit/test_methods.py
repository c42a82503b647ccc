"""Correctness tests for every multisplit implementation."""

import hashlib

import numpy as np
import pytest

from repro.multisplit import (
    multisplit,
    RangeBuckets,
    IdentityBuckets,
    check_multisplit,
    identity_sort_multisplit,
    randomized_multisplit,
    recursive_split_lower_bound_ms,
)
from repro.simt import Device, K40C, GTX750TI

STABLE_METHODS = ["direct", "warp", "block", "scan_split", "recursive_split", "reduced_bit"]
ALL_METHODS = STABLE_METHODS + ["radix_sort", "randomized"]


def run_and_check(method, n, m, kv=False, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    values = rng.integers(0, 2**32, size=n, dtype=np.uint32) if kv else None
    spec = RangeBuckets(m)
    res = multisplit(keys, spec, values=values, method=method, **kwargs)
    check_multisplit(res, keys, spec, values)
    return res


class TestAllMethodsSmall:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("kv", [False, True])
    def test_two_buckets(self, method, kv):
        run_and_check(method, 2000, 2, kv=kv)

    @pytest.mark.parametrize("method", [m for m in ALL_METHODS if m != "scan_split"])
    @pytest.mark.parametrize("m", [3, 8, 13, 32])
    def test_various_m(self, method, m):
        run_and_check(method, 3000, m)

    @pytest.mark.parametrize("method", ["block", "reduced_bit", "randomized", "recursive_split"])
    @pytest.mark.parametrize("m", [33, 64, 200])
    def test_more_than_warp_width(self, method, m):
        run_and_check(method, 5000, m)


class TestEdgeCases:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_empty_input(self, method):
        res = run_and_check(method, 0, 2)
        assert res.keys.size == 0
        assert res.bucket_starts.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_element(self, method):
        run_and_check(method, 1, 2)

    @pytest.mark.parametrize("method", ["direct", "warp", "block"])
    @pytest.mark.parametrize("n", [31, 32, 33, 255, 256, 257])
    def test_tile_boundaries(self, method, n):
        run_and_check(method, n, 4)

    @pytest.mark.parametrize("method", ["direct", "warp", "block", "reduced_bit"])
    def test_single_bucket(self, method):
        res = run_and_check(method, 500, 1)
        assert res.bucket_starts.tolist() == [0, 500]

    @pytest.mark.parametrize("method", ["direct", "warp", "block"])
    def test_all_keys_in_one_bucket(self, method):
        keys = np.zeros(1000, dtype=np.uint32)  # all land in bucket 0
        spec = RangeBuckets(8)
        res = multisplit(keys, spec, method=method)
        check_multisplit(res, keys, spec)
        assert res.bucket_sizes().tolist() == [1000, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("method", ["direct", "warp", "block"])
    def test_empty_middle_buckets(self, method):
        rng = np.random.default_rng(3)
        # only buckets 0 and 7 populated
        keys = np.concatenate([
            rng.integers(0, 2**29, 500).astype(np.uint32),
            rng.integers(7 * 2**29, 2**32, 500).astype(np.uint32),
        ])
        spec = RangeBuckets(8)
        res = multisplit(keys, spec, method=method)
        check_multisplit(res, keys, spec)
        assert (res.bucket_sizes()[1:7] == 0).all()

    def test_duplicate_keys_stable_with_values(self):
        keys = np.array([5, 5, 5, 5] * 100, dtype=np.uint32)
        values = np.arange(400, dtype=np.uint32)
        spec = RangeBuckets(4)
        for method in STABLE_METHODS:
            if method == "scan_split":
                continue
            res = multisplit(keys, spec, values=values, method=method)
            assert (res.values == values).all(), method


class TestStability:
    @pytest.mark.parametrize("method", [m for m in STABLE_METHODS if m != "scan_split"])
    def test_stable_flag_and_order(self, method):
        res = run_and_check(method, 4000, 8, kv=True, seed=7)
        assert res.stable

    def test_radix_sort_method_not_stable_flag(self):
        res = run_and_check("radix_sort", 1000, 4)
        assert not res.stable

    def test_randomized_not_stable_flag(self):
        res = run_and_check("randomized", 1000, 4)
        assert not res.stable


class TestMethodConstraints:
    def test_scan_split_requires_two_buckets(self):
        with pytest.raises(ValueError, match="2 buckets"):
            run_and_check("scan_split", 100, 4)

    def test_warp_level_rejects_m_over_32(self):
        with pytest.raises(ValueError, match="m <= 32"):
            run_and_check("warp", 100, 64)

    def test_radix_sort_requires_monotone_buckets(self):
        from repro.multisplit import sort_based_multisplit, CustomBuckets
        keys = np.arange(64, dtype=np.uint32)
        spec = CustomBuckets(lambda k: k % 2, 2)  # not monotone in key
        with pytest.raises(ValueError, match="monotone"):
            sort_based_multisplit(keys, spec)

    def test_block_emulation_cap(self):
        from repro.multisplit import block_level_multisplit
        keys = np.zeros(1 << 16, dtype=np.uint32)
        with pytest.raises(ValueError, match="emulation cap"):
            block_level_multisplit(keys, RangeBuckets(1 << 22))

    def test_randomized_relaxation_validated(self):
        keys = np.zeros(64, dtype=np.uint32)
        with pytest.raises(ValueError, match="relaxation"):
            randomized_multisplit(keys, RangeBuckets(2), relaxation=0.5)

    @pytest.mark.parametrize("method", ["direct", "warp", "block", "reduced_bit"])
    def test_rejects_2d_keys(self, method):
        with pytest.raises(ValueError):
            multisplit(np.zeros((4, 4), dtype=np.uint32), RangeBuckets(2), method=method)

    @pytest.mark.parametrize("method", ["direct", "warp", "block", "reduced_bit",
                                        "scan_split", "randomized"])
    def test_rejects_mismatched_values(self, method):
        with pytest.raises(ValueError):
            multisplit(np.zeros(8, dtype=np.uint32), RangeBuckets(2),
                       values=np.zeros(7, dtype=np.uint32), method=method)


class TestDevices:
    @pytest.mark.parametrize("spec", [K40C, GTX750TI])
    def test_runs_on_both_devices(self, spec):
        res = run_and_check("warp", 2048, 8, device=Device(spec))
        assert res.simulated_ms > 0

    def test_device_spec_accepted_directly(self):
        res = run_and_check("direct", 1024, 4, device=GTX750TI)
        assert res.timeline.spec.name == GTX750TI.name

    def test_same_device_accumulates(self):
        dev = Device(K40C)
        run_and_check("direct", 1024, 4, device=dev)
        first = len(dev.timeline.records)
        run_and_check("direct", 1024, 4, device=dev)
        assert len(dev.timeline.records) == 2 * first


class TestIdentitySort:
    def test_identity_sort(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 8, 4000).astype(np.uint32)
        spec = IdentityBuckets(8)
        res = identity_sort_multisplit(keys, spec)
        check_multisplit(res, keys, spec)

    def test_identity_sort_rejects_large_keys(self):
        with pytest.raises(ValueError):
            identity_sort_multisplit(np.array([9], dtype=np.uint32), IdentityBuckets(8))


class TestRecursiveBound:
    def test_bound_formula(self):
        assert recursive_split_lower_bound_ms(2.0, 2) == 2.0
        assert recursive_split_lower_bound_ms(2.0, 8) == 6.0
        assert recursive_split_lower_bound_ms(2.0, 32) == 10.0
        assert recursive_split_lower_bound_ms(2.0, 1) == 2.0


class TestRandomizedDetails:
    @pytest.mark.parametrize("relaxation", [1.25, 2.0, 4.0])
    def test_relaxation_sweep_correct(self, relaxation):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 2**32, 3000, dtype=np.uint32)
        spec = RangeBuckets(8)
        res = randomized_multisplit(keys, spec, relaxation=relaxation)
        check_multisplit(res, keys, spec)
        assert res.extra["relaxation"] == relaxation

    def test_buffer_slots_grow_with_relaxation(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 2**32, 10000, dtype=np.uint32)
        spec = RangeBuckets(4)
        small = randomized_multisplit(keys, spec, relaxation=1.25)
        big = randomized_multisplit(keys, spec, relaxation=3.0)
        assert big.extra["buffer_slots"] > small.extra["buffer_slots"]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**32, 2000, dtype=np.uint32)
        spec = RangeBuckets(4)
        a = randomized_multisplit(keys, spec, seed=42)
        b = randomized_multisplit(keys, spec, seed=42)
        assert (a.keys == b.keys).all()

    # (n, m, relaxation, seed, key-value, dart rounds allowed) -> output
    # digest and the insert:dart_throw record: warp instructions, shared
    # accesses, rounds and simulated ms. m = 1 at relaxation 1.0 runs out
    # of rounds and probes its stragglers; zero rounds probes every item.
    PINS = {
        (4099, 1, 1.0, 0, True, None):
            ("7469cd158a4e6f4e", 4719600, 11796, 512, 0.12336266767676768),
        (9000, 32, 1.5, 7, False, None):
            ("9da5a76843bd1d04", 1266000, 3165, 83, 0.036946581010101),
        (20000, 256, 2.0, 5, True, None):
            ("8275e79406f021ca", 1469200, 3673, 31, 0.043283818686868696),
        (3000, 4, 1.0, 1, False, None):
            ("e54f785059a15a7e", 1535200, 3838, 228, 0.04350875505050505),
        (700, 8, 2.0, 3, True, 0):
            ("826baefbe8ff4eeb", 280000, 0, 0, 0.012046830101010101),
    }

    @pytest.mark.parametrize("case", list(PINS), ids=str)
    def test_pinned_outputs_and_pricing(self, case, monkeypatch):
        from repro.multisplit import randomized as rnd_mod
        n, m, relaxation, seed, kv, max_rounds = case
        if max_rounds is not None:
            monkeypatch.setattr(rnd_mod, "_MAX_ROUNDS", max_rounds)
        keys = np.random.default_rng(n).integers(0, 2**32, n, dtype=np.uint32)
        values = np.arange(n, dtype=np.uint32) if kv else None
        res = randomized_multisplit(keys, RangeBuckets(m), values=values,
                                    relaxation=relaxation, seed=seed)
        out = res.keys.tobytes() + (res.values.tobytes() if kv else b"")
        rec, = [r for r in res.timeline.records if r.name == "insert:dart_throw"]
        digest, winst, shared, rounds, ms = self.PINS[case]
        assert hashlib.sha256(out).hexdigest()[:16] == digest
        assert rec.counters.warp_instructions == winst
        assert rec.counters.shared_accesses == shared
        assert rec.counters.extra["rounds"] == rounds
        assert rec.total_ms == pytest.approx(ms, rel=1e-12)


class TestThreadCoarsening:
    """Footnote 5: multiple items per thread divide L by the factor."""

    @pytest.mark.parametrize("ipl", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, 95, 96, 4096, 10000])
    def test_correct_at_any_factor(self, ipl, n):
        rng = np.random.default_rng(ipl * 100 + 1)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        values = rng.integers(0, 2**32, n, dtype=np.uint32)
        spec = RangeBuckets(8)
        from repro.multisplit import direct_multisplit
        res = direct_multisplit(keys, spec, values=values, items_per_lane=ipl)
        check_multisplit(res, keys, spec, values)

    def test_shrinks_global_scan(self):
        from repro.multisplit import direct_multisplit
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 2**32, 1 << 19, dtype=np.uint32)
        r1 = direct_multisplit(keys, RangeBuckets(16), items_per_lane=1)
        r4 = direct_multisplit(keys, RangeBuckets(16), items_per_lane=4)
        assert r4.stage_ms("scan") < r1.stage_ms("scan") / 1.5

    def test_same_permutation_as_uncoarsened(self):
        from repro.multisplit import direct_multisplit
        rng = np.random.default_rng(10)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        r1 = direct_multisplit(keys, RangeBuckets(8), items_per_lane=1)
        r4 = direct_multisplit(keys, RangeBuckets(8), items_per_lane=4)
        assert (r1.keys == r4.keys).all()

    def test_rejects_bad_factor(self):
        from repro.multisplit import direct_multisplit
        with pytest.raises(ValueError, match="items_per_lane"):
            direct_multisplit(np.zeros(8, dtype=np.uint32), RangeBuckets(2),
                              items_per_lane=0)

    def test_via_api_kwargs(self):
        keys = np.random.default_rng(11).integers(0, 2**32, 2048, dtype=np.uint32)
        spec = RangeBuckets(4)
        res = multisplit(keys, spec, method="direct", items_per_lane=2)
        check_multisplit(res, keys, spec)
