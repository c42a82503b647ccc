"""Read-only inputs across every engine (regression lock).

Real out-of-core inputs are usually read-only — ``np.memmap(mode="r")``
or ``writeable=False`` views shared between threads. Every result-only
engine (and the emulation) must accept them without raising and without
silently copying a contiguous input a second time: the engines write
only to freshly-allocated outputs, never in place.
"""

import numpy as np
import pytest

from repro.engine import Workspace, fast_multisplit, sharded_multisplit
from repro.multisplit import RangeBuckets, multisplit
from repro.multisplit._common import as_inputs
from repro.sort import fast_radix_sort
from tests.shards import fixed_shards

ENGINES = ("emulate", "fast", "sharded", "stream", "auto")


def frozen(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


@pytest.fixture
def case():
    rng = np.random.default_rng(97)
    keys = rng.integers(0, 2**32, 20_000, dtype=np.uint32)
    values = np.arange(keys.size, dtype=np.uint32)
    return keys, values


class TestReadOnlyInputs:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_writeable_false_view(self, engine, case):
        keys, values = case
        ref = multisplit(keys, RangeBuckets(16), values=values,
                         method="block", engine="fast")
        res = multisplit(frozen(keys), RangeBuckets(16),
                         values=frozen(values), method="block",
                         engine=engine)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)
        # the input was never touched
        assert not keys.flags.writeable or np.array_equal(
            keys, np.asarray(case[0]))

    @pytest.mark.parametrize("engine", ("fast", "sharded", "stream", "auto"))
    def test_readonly_memmap(self, engine, case, tmp_path):
        keys, values = case
        path = str(tmp_path / "keys.bin")
        keys.tofile(path)
        mm = np.memmap(path, dtype=np.uint32, mode="r")
        ref = multisplit(keys, RangeBuckets(16), method="block",
                         engine="fast")
        res = multisplit(mm, RangeBuckets(16), method="block", engine=engine)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)

    def test_no_silent_copy_for_contiguous_readonly(self, case):
        # the engines' shared input coercion must pass a contiguous
        # read-only array through as-is — a copy here would double the
        # memory footprint of every out-of-core call
        keys, values = case
        ro_k, ro_v = frozen(keys), frozen(values)
        ck, cv = as_inputs(ro_k, ro_v)
        assert ck is ro_k
        assert cv is ro_v

    def test_workspace_path_readonly(self, case):
        keys, values = case
        ws = Workspace()
        a = fast_multisplit(frozen(keys), RangeBuckets(16),
                            values=frozen(values), method="block",
                            workspace=ws)
        with fixed_shards(7):
            b = sharded_multisplit(frozen(keys), RangeBuckets(16),
                                   values=frozen(values), method="block",
                                   workspace=ws)
        assert b.extra["shards"] == 7
        assert np.array_equal(np.asarray(a.keys), np.asarray(b.keys))
        assert np.array_equal(np.asarray(a.values), np.asarray(b.values))


class TestReadOnlySort:
    def test_fast_radix_sort_readonly_across_engines(self, case):
        keys, values = case
        expect_k, expect_v = fast_radix_sort(keys, values, engine="fast")
        for engine in ("fast", "sharded", "stream", "auto"):
            sk, sv = fast_radix_sort(frozen(keys), frozen(values),
                                     engine=engine)
            assert np.array_equal(expect_k, sk), engine
            assert np.array_equal(expect_v, sv), engine

    def test_fast_radix_sort_readonly_memmap(self, case, tmp_path):
        keys, _ = case
        path = str(tmp_path / "keys.bin")
        keys.tofile(path)
        mm = np.memmap(path, dtype=np.uint32, mode="r")
        expect_k, _ = fast_radix_sort(keys, engine="fast")
        sk, _ = fast_radix_sort(mm)  # auto routes memmaps to stream
        assert np.array_equal(expect_k, sk)

    def test_signed_readonly_keys(self):
        rng = np.random.default_rng(101)
        keys = rng.integers(-2**31, 2**31, 10_000).astype(np.int32)
        expect = np.sort(keys, kind="stable")
        for engine in ("fast", "stream"):
            sk, _ = fast_radix_sort(frozen(keys), engine=engine)
            assert np.array_equal(expect, sk), engine
